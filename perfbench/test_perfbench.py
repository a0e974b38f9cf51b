"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from scatlin import fieldcore, quadrinomial, scattered, sweep  # noqa: E402


def test_self_times_known_tree():
    # root [0, 10] with children A [1, 4] and B [5, 9]; A has children
    # [2, 3] and [3.5, 4]; B has none
    rows = [
        [0, -1, 0, 0.0, 10.0],
        [1, 0, 0, 1.0, 4.0],
        [2, 1, 0, 2.0, 3.0],
        [2, 1, 0, 3.5, 4.0],
        [1, 0, 0, 5.0, 9.0],
    ]
    assert spans.self_times(rows) == pytest.approx([3.0, 1.5, 1.0, 0.5, 4.0])


def test_layer_totals_sum_self_time_per_name():
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 7.0]).__next__
    rec = spans.SpanRecorder(clock=clock)
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()          # outer [0, 4], inner [1, 3]
    inner()          # inner [5, 7]
    assert [r[1] for r in rec.rows] == [-1, 0, -1]
    totals = rec.layer_totals(spans.self_times(rec.rows))
    assert totals == {"outer": (1, 2.0), "inner": (2, 4.0)}


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    ctx = fieldcore.make_field(3, 1, 3)
    original = scattered.is_scattered_fiber
    assert sweep.is_scattered_fiber is original
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        assert sweep.is_scattered_fiber is scattered.is_scattered_fiber
        assert scattered.is_scattered_fiber is not original
        p = quadrinomial.QuadParams(ctx, 1, 0, 1)
        sweep.is_scattered_fiber(quadrinomial.build_quadrinomial(p))
    finally:
        spans.uninstall(undo)
    assert sweep.is_scattered_fiber is original
    assert not hasattr(fieldcore.FieldCtx.scale_vec, "__wrapped__")
    names = [rec.names[r[0]] for r in rec.rows]
    assert names[0] == "scattered.is_scattered_fiber"
    assert "linpoly.eval_vec" in names and "fieldcore.scale_vec" in names
    eval_row = names.index("linpoly.eval_vec")
    assert rec.rows[eval_row][1] == 0
    assert rec.counts["linpoly.eval_vec.elements"] == ctx.size
    rec.save(tmp_path / "spans.npz", spans.self_times(rec.rows))


def _inputs(st):
    return [(it.label, it.ops, it.run.args, it.check.args) for it in st.items]


def test_same_seed_same_inputs(tmp_path):
    a = workloads.setup_structure35(5, str(tmp_path))
    b = workloads.setup_structure35(5, str(tmp_path))
    c = workloads.setup_structure35(6, str(tmp_path))
    assert _inputs(a) == _inputs(b)
    assert [it.label for it in a.items] != [it.label for it in c.items]
    g1 = workloads.setup_grid33(5, str(tmp_path))
    g2 = workloads.setup_grid33(5, str(tmp_path))
    assert _inputs(g1) == _inputs(g2)
    t1 = workloads.setup_tower35(5, str(tmp_path))
    t2 = workloads.setup_tower35(5, str(tmp_path))
    assert _inputs(t1) == _inputs(t2)


def test_same_seed_same_outputs(tmp_path):
    facts = []
    for _ in range(2):
        st = workloads.setup_structure35(7, str(tmp_path))
        facts.append([run.run_item(it)[1:] for it in st.items[:4]])
    assert facts[0] == facts[1]
    assert all(failed == 0 for failed, _ in facts[0])


def test_grid33_step_matches_recorded_digest(tmp_path):
    st = workloads.setup_grid33(3, str(tmp_path))
    _, failed, fact = run.run_item(st.items[0])
    assert failed == 0
    assert fact["sha256"] == workloads.GRID33_DIGESTS[1]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-33", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_starts_with_cold_library_caches(tmp_path):
    ctx = fieldcore.make_field(3, 1, 3)
    quadrinomial.scattered_conditions(quadrinomial.QuadParams(ctx, 1, 0, 1))
    assert quadrinomial._POWER_SET_CACHE
    workloads.setup_grid33(1, str(tmp_path))
    assert not quadrinomial._POWER_SET_CACHE and not sweep._FIBER_CACHE
    assert fieldcore.make_field(3, 1, 3) is not ctx
