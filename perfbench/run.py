"""scatlin benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload grid-33 --seed 1 --seconds 30 --trace 0

The script finds the source checkout from its own path, imports scatlin from
the checkout's `src/` and refuses to run without it.  With `--trace 0` it times
the workload and reports the end-to-end metrics; with `--trace 1` it runs
every item once untraced and once with every layer function wrapped, and
reports per-layer calls, self times and counts.  Reports and spans go to
`.perfbench_out/` in the checkout.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# set-up repeats are spread over the timed run: a round of items after the
# first opens with set-ups while all set-ups so far took less than this share
# of the items so far; the run ends with SETUP_MIN set-ups or more.
# `setup_s` is the fastest set-up and `ops_per_s` rests on each item's mean
# time (README.md, "Steadiness and bounds")
SETUP_SHARE = 0.25
SETUP_MIN = 5

# end-to-end metrics of a `--trace 0` run, with their units
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_checkout():
    """Put the checkout's src/ first on the path; refuse any other scatlin."""
    src = ROOT / "src"
    if not (src / "scatlin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scatlin sources in {src}")
    sys.path.insert(0, str(src))
    import scatlin

    if Path(scatlin.__file__).resolve().parent != (src / "scatlin").resolve():
        sys.exit(f"perfbench: imported scatlin from {scatlin.__file__}, not {src}")


def environment(numpy_version) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        env["caches"][name] = size
    return env


def run_item(item, recorder=None):
    """(seconds, failed operations, facts); an exception fails every operation.

    Only `item.run` is timed; a recorder, when given, is paused for the check.
    """
    t0 = time.perf_counter()
    try:
        out = item.run()
    except Exception:
        dt = time.perf_counter() - t0
        print(f"perfbench: {item.label} raised", file=sys.stderr)
        traceback.print_exc()
        return dt, item.ops, {"error": True}
    dt = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    try:
        failed, facts = item.check(out)
    except Exception:
        print(f"perfbench: checking {item.label} raised", file=sys.stderr)
        traceback.print_exc()
        return dt, item.ops, {"error": True}
    finally:
        if recorder is not None:
            recorder.active = True
    return dt, failed, facts


def run_timed(args, setup, workdir):
    """End-to-end run: items round-robin for `args.seconds`, at least one
    full round, with set-ups between rounds that take SETUP_SHARE of the
    items' time.  Throughput uses each item's mean time; every set-up
    builds the same seeded inputs, and the items that follow use the newest
    one."""
    setup_times = []
    times = defaultdict(list)
    facts = {}
    attempted = failed = 0
    st = None

    def set_up():
        nonlocal st, setup_total
        st = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        st = setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        setup_total += setup_times[-1]

    # the items get `args.seconds`; set-up time extends the deadline
    setup_total = 0.0
    start = time.perf_counter()
    set_up()
    n = len(st.items)
    items_s = 0.0
    i = 0
    while i < n or time.perf_counter() - setup_total < start + args.seconds:
        if i % n == 0:
            while setup_total < SETUP_SHARE * items_s:
                set_up()
        item = st.items[i % n]
        dt, bad, facts[item.label] = run_item(item)
        times[i % n].append(dt)
        items_s += dt
        attempted += item.ops
        failed += bad
        i += 1
        del item  # holds the set-up's tower, which the next set-up releases
    while len(setup_times) < SETUP_MIN:
        set_up()

    items = st.items
    busy = sum(sum(times[k]) / len(times[k]) for k in range(len(items)))
    values = {
        "ops_per_s": sum(it.ops for it in items) / busy,
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    metrics = {k: (values[k], u) for k, u in E2E_UNITS.items()}
    details = {
        "setup_times_s": setup_times,
        "items": len(items),
        "item_runs": i,
        "mean_round_s": busy,
        "item_times_s": {items[k].label: times[k] for k in range(len(items))},
    }
    return metrics, attempted, failed, facts, st, details


def run_traced(args, setup, workdir):
    """Per-layer run: every item once untraced and once traced, back to back
    and in alternating order, so that both runs see the same machine state."""
    import spans
    from scatlin import fieldcore

    st = setup(args.seed, workdir)
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        fieldcore.FieldCtx(st.ctx.p, st.ctx.e, st.ctx.t)  # records the build span
    finally:
        spans.uninstall(undo)
    facts = {}
    attempted = failed = 0
    round_s = {False: 0.0, True: 0.0}
    for op, item in enumerate(st.items):
        rec.op = op
        for traced in (False, True) if op % 2 == 0 else (True, False):
            undo = spans.install(rec) if traced else []
            try:
                dt, bad, facts[item.label] = run_item(item, rec if traced else None)
            finally:
                spans.uninstall(undo)
            round_s[traced] += dt
            attempted += item.ops
            failed += bad
    untraced_s, traced_s = round_s[False], round_s[True]

    own = spans.self_times(rec.rows)
    totals = rec.layer_totals(own)
    units = spans.layer_metric_units()
    values = {}
    for name, _, _ in spans.LAYERS:
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update({k: rec.counts.get(k, 0) for k in units if k not in values})
    build_id = rec.names.index("fieldcore.build")
    values["fieldcore.build_s"] = sum(r[4] - r[3] for r in rec.rows if r[0] == build_id)
    values["fieldcore.table_bytes"] = st.table_bytes
    values["trace.spans"] = len(rec.rows)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {k: (values[k], u) for k, u in units.items()}
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    rec.save(spans_file, own)
    details = {"spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, attempted, failed, facts, st, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_checkout()
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload}; choose from {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            metrics, attempted, failed, facts, st, details = run_traced(args, setup, workdir)
        else:
            metrics, attempted, failed, facts, st, details = run_timed(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np.__version__),
        "tower": {"p": st.ctx.p, "e": st.ctx.e, "t": st.ctx.t, "field_size": st.ctx.size,
                  "table_bytes": st.table_bytes},
        "inputs": st.info,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
        "facts": facts,
    }
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k not in ("facts", "metrics")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
