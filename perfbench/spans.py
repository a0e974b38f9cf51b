"""Span recording for the traced benchmark run.

Only the traced process is instrumented: `install` wraps the public
functions listed in LAYERS by replacing every binding of each one in the
loaded scatlin modules (a function imported by name, as in
`from .scattered import is_scattered_fiber`, is a separate binding of its
own) and by setting methods on their classes.  Each call then records one
span: name, parent span, benchmark operation, start and end.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FIELD_KERNELS = ("scale_vec", "mul_vec", "add_vec", "frob_vec", "pow_vec")

# (layer metric prefix, scatlin module, attribute path in that module)
LAYERS = (
    ("cli.main", "cli", "main"),
    ("sweep.classify_sweep", "sweep", "classify_sweep"),
    ("sweep.classify_record", "sweep", "classify_record"),
    ("sweep.quad_fiber_profile", "sweep", "quad_fiber_profile"),
    ("quadrinomial.scattered_conditions", "quadrinomial", "scattered_conditions"),
    ("quadrinomial.prior_family_tag", "quadrinomial", "prior_family_tag"),
    ("quadrinomial.nonscattered_witness", "quadrinomial", "nonscattered_witness"),
    ("scattered.is_scattered_fiber", "scattered", "is_scattered_fiber"),
    ("scattered.linear_set_size", "scattered", "linear_set_size"),
    ("linpoly.eval_vec", "linpoly", "LinPoly.eval_vec"),
    ("fieldcore.build", "fieldcore", "FieldCtx.__init__"),
    *((f"fieldcore.{k}", "fieldcore", f"FieldCtx.{k}") for k in FIELD_KERNELS),
    ("equivalence.gl_search", "equivalence", "gl_search"),
    ("equivalence.necessary_conditions", "equivalence", "necessary_conditions"),
    ("mrdcodes.stabilizer", "mrdcodes", "stabilizer"),
    ("mrdcodes.right_idealizer", "mrdcodes", "right_idealizer"),
    ("mrdcodes.left_idealizer", "mrdcodes", "left_idealizer"),
    ("mrdcodes.min_distance", "mrdcodes", "RankCode.min_distance"),
    ("gflinalg.solve_affine", "gflinalg", "solve_affine"),
    ("gflinalg.nullspace", "gflinalg", "nullspace"),
    ("gflinalg.span_vectors", "gflinalg", "span_vectors"),
    ("gflinalg.rank_batched", "gflinalg", "rank_batched"),
    ("projgeom.intersection_number", "projgeom", "intersection_number"),
    ("projgeom.meets_subgeometry", "projgeom", "meets_subgeometry"),
)


def _count_kernel(name):
    elements, nbytes = f"{name}.elements", f"{name}.bytes"

    def hook(counts, result, args):
        # kernels return numpy arrays or numpy scalars
        counts[elements] += result.size
        counts[nbytes] += result.nbytes + sum(
            a.nbytes for a in args if isinstance(a, np.ndarray)
        )
    return hook


def _count_gl(counts, result, args):
    counts["equivalence.beta_candidates"] += result.beta_candidates
    counts["equivalence.systems_solved"] += result.systems_solved
    counts["equivalence.witnesses"] += result.witness is not None


def _count(key, value):
    def hook(counts, result, args):
        counts[key] += value(result)
    return hook


# counts the public results already return or imply, keyed by layer prefix
HOOKS = {
    **{f"fieldcore.{k}": _count_kernel(f"fieldcore.{k}") for k in FIELD_KERNELS},
    "linpoly.eval_vec": _count("linpoly.eval_vec.elements", lambda r: r.size),
    "quadrinomial.nonscattered_witness":
        _count("quadrinomial.witnesses_found", lambda r: r is not None),
    "scattered.is_scattered_fiber": _count("scattered.scattered_found", bool),
    "mrdcodes.stabilizer": _count("mrdcodes.stabilizer.order_total", lambda r: r.order_with_zero),
    "equivalence.gl_search": _count_gl,
}

# (metric, unit) of every count and run-level figure the traced run reports
EXTRA_METRICS = (
    ("fieldcore.build_s", "s"),
    ("fieldcore.table_bytes", "bytes"),
    *((f"fieldcore.{k}.{m}", u) for k in FIELD_KERNELS
      for m, u in (("elements", "count"), ("bytes", "bytes"))),
    ("linpoly.eval_vec.elements", "count"),
    ("quadrinomial.witnesses_found", "count"),
    ("scattered.scattered_found", "count"),
    ("mrdcodes.stabilizer.order_total", "count"),
    ("equivalence.beta_candidates", "count"),
    ("equivalence.systems_solved", "count"),
    ("equivalence.witnesses", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metric_units() -> dict:
    """Every per-layer metric name of the traced run, with its unit."""
    units = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class SpanRecorder:
    """Spans as rows [name id, parent row or -1, operation id, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.names: list = []
        self._ids: dict = {}
        self.rows: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = True
        self._stack = [-1]
        self._clock = clock

    def wrap(self, name, fn, hook=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        rows, stack, clock = self.rows, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            row = [nid, stack[-1], self.op, 0.0, 0.0]
            stack.append(len(rows))
            rows.append(row)
            row[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, result, args)
            return result

        return traced

    def layer_totals(self, own_times) -> dict:
        """{name: (calls, total self time)}, given `self_times(self.rows)`."""
        calls = Counter()
        self_s = defaultdict(float)
        for row, own in zip(self.rows, own_times):
            name = self.names[row[0]]
            calls[name] += 1
            self_s[name] += own
        return {n: (calls[n], self_s[n]) for n in calls}

    def save(self, path, own_times):
        arr = np.array(self.rows, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            parent=arr[:, 1].astype(np.int64),
            op=arr[:, 2].astype(np.int32),
            start=arr[:, 3],
            end=arr[:, 4],
            self_s=np.asarray(own_times, dtype=np.float64),
        )


def self_times(rows) -> list:
    """Each span's duration minus its children's durations.

    The recorder keeps one call stack, so children never overlap and lie
    inside their parent.
    """
    out = [row[4] - row[3] for row in rows]
    for row in rows:
        if row[1] >= 0:
            out[row[1]] -= row[4] - row[3]
    return out


def install(recorder: SpanRecorder) -> list:
    """Wrap every LAYERS function; returns the undo list for `uninstall`."""
    undo = []
    loaded = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "scatlin" or n.startswith("scatlin."))]
    for name, module, path in LAYERS:
        owner = sys.modules[f"scatlin.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, HOOKS.get(name))
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
