"""The benchmark workloads, driven through scatlin's public API.

`setup(seed, workdir)` empties scatlin's process-wide caches, so that it
starts as cold as a fresh process, then builds a workload's tower and
seeded inputs and returns the items to time.  `Item.run` is the timed call;
`Item.check` verifies its output outside the timing and returns (failed
operations, facts for the report).  Library functions are looked up on their
modules at call time, so the traced run sees the wrapped bindings.
README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable

import numpy as np

from scatlin import cli, equivalence, fieldcore, mrdcodes, projgeom, quadrinomial, scattered, sweep

# SHA-256 of `scatlin classify --q 3 --t 3 --s S --h-dedup` per step, recorded
# on the unmodified library; each file is byte-identical to the `.sS` file
# that `--all-s` writes
GRID33_DIGESTS = {
    1: "c543f60ecde9d9be15caee5c73ecd133315aac54752fd015d19faf69077e2a00",
    5: "fb7a036c9dfa1dc4f2bd4bbba9f54f9d292441917fa49641a507aee7d77da640",
}
GRID33_ROOTS_SAMPLE = 8  # records per step rechecked with the roots oracle


@dataclass
class Item:
    label: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Setup:
    ctx: fieldcore.FieldCtx
    table_bytes: int
    items: list
    info: dict


def _call(module, attr, *args):
    return getattr(module, attr)(*args)


def _fail(label, why, n):
    print(f"perfbench: check failed on {label}: {why}", file=sys.stderr)
    return n


def clear_library_caches():
    """Forget every tower and per-tower table scatlin keeps for the process."""
    fieldcore.make_field.cache_clear()
    quadrinomial._POWER_SET_CACHE.clear()
    sweep._FIBER_CACHE.clear()


def build_field(p, e, t):
    clear_library_caches()
    ctx = fieldcore.FieldCtx(p, e, t)
    return ctx, sum(v.nbytes for v in vars(ctx).values() if isinstance(v, np.ndarray))


def coprime_steps(ctx):
    """The steps `classify --all-s` sweeps: 1 <= s < 2t, gcd(s, 2t) = 1."""
    return [s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]


def condition_members(ctx, s, k, rng):
    """k seeded members (m, h) on which the sufficient conditions apply.

    Every such member has m in the middle field and norm(h) = +-1, so
    rejection sampling from those sets is uniform over condition pairs.
    """
    mid = ctx.subfield(ctx.t)
    hs = ctx.nonzero_elements()
    norms = ctx.pow_vec(hs, ctx.order // (ctx.q ** ctx.t - 1))
    hs = hs[(norms == 1) | (norms == ctx.neg_one)]
    out = []
    while len(out) < k:
        p = quadrinomial.QuadParams(ctx, s, int(mid[rng.integers(mid.size)]),
                                    int(hs[rng.integers(hs.size)]))
        if quadrinomial.scattered_conditions(p).applies:
            out.append(p)
    return out


def _label(p):
    return f"s={p.s} m={p.m} h={p.h}"


# ---------------------------------------------------------------------------
# grid-33: the exhaustive h-deduped classification sweep through the CLI


def _classify(s, out):
    return _call(cli, "main", ["classify", "--q", "3", "--t", "3", "--s", str(s),
                               "--h-dedup", "--out", out])


def _check_classify(ctx, s, out, sample, ops, rc):
    label = f"classify s={s}"
    data = Path(out).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    facts = {"exit_code": rc, "sha256": digest}
    if rc != 0 or digest != GRID33_DIGESTS[s]:
        return _fail(label, f"exit {rc}, sha256 {digest}", ops), facts
    lines = data.decode().splitlines()
    failed = len(json.loads(lines[-1])["violations_applies_not_scattered"])
    for i in sample:
        rec = json.loads(lines[1 + i])
        f = quadrinomial.build_quadrinomial(quadrinomial.QuadParams(ctx, s, rec["m"], rec["h"]))
        if scattered.is_scattered_roots(f) != rec["scattered"]:
            failed += _fail(label, f"roots oracle disagrees on m={rec['m']} h={rec['h']}", 1)
    facts["roots_rechecked"] = len(sample)
    return min(failed, ops), facts


def setup_grid33(seed, workdir):
    ctx, table_bytes = build_field(3, 1, 3)
    rng = np.random.default_rng(seed)
    steps = coprime_steps(ctx)
    per_step = ctx.subfield(ctx.t).size * sweep.h_class_reps(ctx).size
    items = []
    for s in steps:
        out = str(Path(workdir) / f"classify.s{s}")
        sample = sorted(rng.choice(per_step, GRID33_ROOTS_SAMPLE, replace=False).tolist())
        items.append(Item(f"classify s={s}", per_step, partial(_classify, s, out),
                          partial(_check_classify, ctx, s, out, sample, per_step)))
    info = {"steps": steps, "records_per_round": per_step * len(steps),
            "roots_sample_per_step": GRID33_ROOTS_SAMPLE}
    return Setup(ctx, table_bytes, items, info)


# ---------------------------------------------------------------------------
# structure-35: point queries on single members at (3,5)


def _right_idealizer(f):
    return _call(mrdcodes, "right_idealizer", mrdcodes.RankCode(f))


def _left_idealizer(f):
    return _call(mrdcodes, "left_idealizer", mrdcodes.RankCode(f))


def _intersection_number(ctx, s, f):
    return _call(projgeom, "intersection_number", projgeom.polynomial_vertex(ctx, s, f))


def _min_distance(f):
    return mrdcodes.RankCode(f).min_distance()


def _gl_pair(p1, p2, f, g):
    return (_call(equivalence, "gl_search", f, g),
            _call(equivalence, "necessary_conditions", p1, p2))


def _check_stabilizer(label, order, st):
    ok = (1, 0, 0, 1) in st.elements and st.order_with_zero == order
    return (0 if ok else _fail(label, f"order {st.order_with_zero}", 1),
            {"order_with_zero": st.order_with_zero})


def _check_idealizer(label, pairs):
    ok = (1, 0) in pairs
    return (0 if ok else _fail(label, "identity missing", 1)), {"order": len(pairs)}


def _check_intersection(label, value):
    # family members are separated from the pseudoregulus (1) and LP (2) types
    return (0 if value >= 3 else _fail(label, f"value {value}", 1)), {"value": value}


def _check_min_distance(label, want, d):
    return (0 if d == want else _fail(label, f"distance {d}", 1)), {"min_distance": d}


def _check_gl_pair(label, case, partner, f, g, out):
    res, cond = out
    why = []
    if cond["case"] != case:
        why.append(f"case {cond['case']}")
    if res.witness is not None:
        if not equivalence.verify_gl_witness(f, g, res.witness):
            why.append("witness fails recheck")
        if case == "a":
            why.append("witness in class a")
        if not cond["conditions_hold"]:
            why.append("witness without the conditions")
    elif partner:
        why.append("no witness for a scalar-orbit partner")
    facts = {"case": case, "witness": res.witness is not None,
             "beta_candidates": res.beta_candidates, "systems_solved": res.systems_solved,
             "conditions_hold": cond["conditions_hold"]}
    return (_fail(label, ", ".join(why), 2) if why else 0), facts


def setup_structure35(seed, workdir):
    ctx, table_bytes = build_field(3, 1, 5)
    rng = np.random.default_rng(seed)
    steps = coprime_steps(ctx)
    members = [p for s in steps for p in condition_members(ctx, s, 2, rng)]
    items = []
    for p in members:
        f = quadrinomial.build_quadrinomial(p)
        lb = _label(p)
        items += [
            Item(f"stabilizer {lb}", 1, partial(_call, mrdcodes, "stabilizer", f),
                 partial(_check_stabilizer, f"stabilizer {lb}", ctx.q ** 2)),
            Item(f"right_idealizer {lb}", 1, partial(_right_idealizer, f),
                 partial(_check_idealizer, f"right_idealizer {lb}")),
            Item(f"left_idealizer {lb}", 1, partial(_left_idealizer, f),
                 partial(_check_idealizer, f"left_idealizer {lb}")),
            Item(f"intersection_number {lb}", 1, partial(_intersection_number, ctx, p.s, f),
                 partial(_check_intersection, f"intersection_number {lb}")),
        ]
    # second steps by their class against s = 1; class c includes two
    # scalar-orbit partners (m, -h), which are equivalent by construction
    classes = {}
    for ell in steps:
        classes.setdefault(equivalence.step_case(ctx, 1, ell), []).append(ell)
    for case in ("a", "b", "c"):
        ells = classes[case]
        for i in range(4):
            (p1,) = condition_members(ctx, 1, 1, rng)
            partner = case == "c" and i < 2
            if partner:
                p2 = quadrinomial.QuadParams(ctx, ells[0], p1.m, ctx.mul(ctx.neg_one, p1.h))
                assert (p2.s, p2.h) != (p1.s, p1.h)
            else:
                (p2,) = condition_members(ctx, ells[i % len(ells)], 1, rng)
            f, g = quadrinomial.build_quadrinomial(p1), quadrinomial.build_quadrinomial(p2)
            lb = f"gl {case} {_label(p1)} / {_label(p2)}"
            items.append(Item(lb, 2, partial(_gl_pair, p1, p2, f, g),
                              partial(_check_gl_pair, lb, case, partner, f, g)))
    (p,) = condition_members(ctx, 1, 1, rng)
    lb = f"min_distance {_label(p)}"
    items.append(Item(lb, 1, partial(_min_distance, quadrinomial.build_quadrinomial(p)),
                      partial(_check_min_distance, lb, ctx.n - 1)))
    info = {"steps": steps, "members": len(members), "gl_pairs_per_class": 4,
            "scalar_orbit_partners": 2, "min_distance_codes": 1,
            "queries_per_round": sum(it.ops for it in items)}
    return Setup(ctx, table_bytes, items, info)


# ---------------------------------------------------------------------------
# tower-35: one-shot scatteredness decisions on the (3,5) tower


def _decide(f):
    return _call(scattered, "is_scattered_fiber", f), _call(scattered, "linear_set_size", f)


def _check_decide(label, points, applies, out):
    sc, size = out
    why = []
    if sc != (size == points):
        why.append(f"scattered={sc} but linear set size {size}")
    if applies and not sc:
        why.append("conditions apply but not scattered")
    facts = {"scattered": bool(sc), "linear_set_size": int(size), "conditions_apply": applies}
    return (_fail(label, "; ".join(why), 1) if why else 0), facts


def setup_tower35(seed, workdir):
    ctx, table_bytes = build_field(3, 1, 5)
    rng = np.random.default_rng(seed)
    steps = coprime_steps(ctx)
    mid = ctx.subfield(ctx.t)
    points = (ctx.q ** ctx.n - 1) // (ctx.q - 1)
    items = []
    for s in steps:
        params = condition_members(ctx, s, 2, rng) + [
            quadrinomial.QuadParams(ctx, s, int(mid[rng.integers(mid.size)]),
                                    int(rng.integers(1, ctx.size)))
            for _ in range(2)
        ]
        for p in params:
            applies = quadrinomial.scattered_conditions(p).applies
            lb = f"decide {_label(p)}"
            items.append(Item(lb, 1, partial(_decide, quadrinomial.build_quadrinomial(p)),
                              partial(_check_decide, lb, points, applies)))
    info = {"steps": steps, "condition_members_per_step": 2, "random_members_per_step": 2,
            "polys_per_round": len(items)}
    return Setup(ctx, table_bytes, items, info)


WORKLOADS = {
    "grid-33": setup_grid33,
    "structure-35": setup_structure35,
    "tower-35": setup_tower35,
}
