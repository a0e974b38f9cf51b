"""Exhaustive (m, h) sweeps over the four-term family at desk scale.

The classification sweep walks the full parameter grid, records the
sufficient-condition verdict, the prior-class tag and the fiber-oracle
verdict per pair, and surfaces every disagreement between "conditions
apply" and "scattered" as a datum (a scattered pair outside the conditions
would refute the only-if direction of the expected characterization, so it
is reported, never assumed away).  Every verdict comes from
`scattered.fiber_profile`, the kernel one-shot decisions use too.

Each sweep call keeps a `ProfileMemo`: the profile is the same on every
scaling mu*f(lambda*X) and every p-power twist of f (see
`scattered.profile_key`), so the kernel runs once per orbit of these maps
and every other pair pays only for its key.  Records, tags and witnesses
stay per pair.  The memo lives for one call only; a sweep given a `stats`
dict writes the number of kernel calls (`profiles`) and of polynomials asked
(`polynomials`) there, outside its report.

Polynomials only depend on h through two power ratios, so h and lambda*h
give the same member for every base-field scalar lambda; the sweeps can
optionally deduplicate h by these orbits.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
import numpy as np

from .fieldcore import make_field, FieldCtx
from .quadrinomial import (
    QuadParams,
    build_quadrinomial,
    build_quadrinomial_swapped,
    trace_zero_power_set,
    scattered_conditions,
    prior_family_tag,
    nonscattered_witness,
)
from .linpoly import LinPoly
from .scattered import fiber_profile, is_scattered_fiber, is_scattered_roots, profile_key

SCHEMA_VERSION = 1

# Always empty; perfbench clears it in every workload set-up.
_FIBER_CACHE: dict = {}


def quad_fiber_profile(params: QuadParams):
    """(linear set size, scattered) for one family member."""
    return fiber_profile(build_quadrinomial(params))


class ProfileMemo:
    """`fiber_profile` once per scaling-Frobenius orbit, for one sweep call.

    On a miss the profile is computed and stored under the `profile_key` of
    every p-power twist of f, so the kernel runs once per orbit of
    f -> mu*f(lambda*X)^sigma.  `calls` counts kernel runs and `asked`
    counts lookups.
    """

    def __init__(self):
        self.profiles = {}
        self.calls = 0
        self.asked = 0

    def __call__(self, f: LinPoly) -> tuple:
        self.asked += 1
        key = profile_key(f)
        hit = self.profiles.get(key)
        if hit is None:
            hit = fiber_profile(f)
            self.calls += 1
            for j in range(f.ctx.deg):
                self.profiles[profile_key(f.frobenius_twist(j))] = hit
        return hit


def _write_stats(stats, calls: int, asked: int):
    if stats is not None:
        stats.update(profiles=calls, polynomials=asked)


def h_class_reps(ctx: FieldCtx) -> np.ndarray:
    """Smallest index per base-field-scalar orbit of nonzero h."""
    d = ctx.order // (ctx.q - 1)
    hs = ctx.nonzero_elements()
    cls = ctx.LOG[hs] % d
    reps = np.full(d, ctx.size, dtype=np.int64)
    np.minimum.at(reps, cls, hs)
    return np.sort(reps)


def classify_record(params: QuadParams, with_witness: bool = True, memo=None) -> dict:
    """One classification record; a sweep passes its `ProfileMemo`."""
    ctx = params.ctx
    verdict = scattered_conditions(params)
    n_points, scattered = (memo or ProfileMemo())(build_quadrinomial(params))
    rec = {
        "m": int(params.m),
        "h": int(params.h),
        "norm_h": int(params.norm_h),
        "case_tag": verdict.case_tag,
        "prior_tag": prior_family_tag(params),
        "scattered": bool(scattered),
        "linear_set_size": n_points,
    }
    if with_witness:
        rec["witness"] = None
        if ctx.in_subfield(params.h, ctx.t) and ctx.pow(params.h, 4) == 1:
            w = nonscattered_witness(params)
            if w is not None:
                rec["witness"] = w
    return rec


def _classify_shard(args):
    p, e, t, s, ms, hs, with_witness = args
    ctx = make_field(p, e, t)
    memo = ProfileMemo()
    out = []
    for m in ms:
        for h in hs:
            out.append(classify_record(QuadParams(ctx, s, int(m), int(h)), with_witness, memo))
    return out, memo.calls, memo.asked


def classify_sweep(
    ctx: FieldCtx,
    s: int,
    h_dedup: bool = False,
    with_witness: bool = True,
    workers: int = 1,
    stats: dict | None = None,
) -> tuple:
    """Full grid sweep; returns (records, summary).

    Records are emitted in canonical (m index, h index) order regardless of
    worker count.  Each worker keeps its own memo.
    """
    t0 = time.time()
    ms = [int(m) for m in ctx.subfield(ctx.t)]
    hs = [int(h) for h in (h_class_reps(ctx) if h_dedup else ctx.nonzero_elements())]
    if workers > 1:
        shards = [
            (ctx.p, ctx.e, ctx.t, s, ms[i::workers], hs, with_witness)
            for i in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_classify_shard, shards))
    else:
        chunks = [_classify_shard((ctx.p, ctx.e, ctx.t, s, ms, hs, with_witness))]
    records = sorted((r for chunk, _, _ in chunks for r in chunk),
                     key=lambda r: (r["m"], r["h"]))
    _write_stats(stats, sum(c[1] for c in chunks), sum(c[2] for c in chunks))

    applies_not_scattered = [
        (r["m"], r["h"]) for r in records if r["case_tag"] != "none" and not r["scattered"]
    ]
    scattered_not_applies = [
        (r["m"], r["h"]) for r in records if r["case_tag"] == "none" and r["scattered"]
    ]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "e": ctx.e,
        "t": ctx.t,
        "s": s,
        "h_dedup": h_dedup,
        "pairs": len(records),
        "scattered": sum(r["scattered"] for r in records),
        "condition_applies": sum(r["case_tag"] != "none" for r in records),
        "case_counts": _count_by(records, "case_tag"),
        "prior_counts": _count_by(records, "prior_tag"),
        "violations_applies_not_scattered": applies_not_scattered,
        "conjecture_data_scattered_not_applies": scattered_not_applies,
        "elapsed_s": round(time.time() - t0, 3),
    }
    return records, summary


def _count_by(records, key):
    out = {}
    for r in records:
        out[r[key]] = out.get(r[key], 0) + 1
    return out


# ---------------------------------------------------------------------------


def condition_pairs(ctx: FieldCtx, s: int):
    """All (m, h) where the sufficient conditions apply, by direct construction."""
    plus = trace_zero_power_set(ctx, s, +1)
    minus = trace_zero_power_set(ctx, s, -1)
    mid = ctx.subfield(ctx.t)
    outside = np.setdiff1d(mid, np.union1d(plus, minus))
    hs = ctx.nonzero_elements()
    norms = ctx.pow_vec(hs, ctx.order // (ctx.q ** ctx.t - 1))
    h_norm_one = hs[norms == 1]
    h_norm_minus = hs[norms == ctx.neg_one]
    pairs = []
    if ctx.t % 2 == 0 or ctx.q % 4 == 1:
        for m in outside:
            for h in np.concatenate([h_norm_one, h_norm_minus]):
                pairs.append((int(m), int(h)))
    else:
        for m in plus[plus != 0]:
            for h in h_norm_minus:
                pairs.append((int(m), int(h)))
        h2 = ctx.mul_vec(h_norm_one, h_norm_one)
        good = h_norm_one[h2 != ctx.neg_one]
        for m in outside:
            for h in good:
                pairs.append((int(m), int(h)))
    return pairs


def sufficiency_sweep(
    ctx: FieldCtx, s: int, roots_sample: int = 0, seed: int = 0, stats: dict | None = None,
) -> dict:
    """Every pair satisfying the sufficient conditions must be scattered.

    Runs the fiber oracle on all such pairs and, optionally, the independent
    roots oracle on a seeded sample, cross-checked against a fresh fiber
    count.  Returns counts and any violations.
    """
    t0 = time.time()
    pairs = condition_pairs(ctx, s)
    memo = ProfileMemo()
    violations = []
    case_counts = {}
    for m, h in pairs:
        params = QuadParams(ctx, s, m, h)
        verdict = scattered_conditions(params)
        if not verdict.applies:
            raise RuntimeError("condition pair construction disagrees with the predicate")
        case_counts[verdict.case_tag] = case_counts.get(verdict.case_tag, 0) + 1
        if not memo(build_quadrinomial(params))[1]:
            violations.append((m, h, verdict.case_tag))
    _write_stats(stats, memo.calls, memo.asked)
    roots_checked = 0
    roots_disagreements = []
    if roots_sample:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pairs), size=min(roots_sample, len(pairs)), replace=False)
        for i in sorted(idx.tolist()):
            m, h = pairs[i]
            f = build_quadrinomial(QuadParams(ctx, s, m, h))
            fiber = is_scattered_fiber(f)
            roots = is_scattered_roots(f)
            roots_checked += 1
            if fiber != roots:
                roots_disagreements.append((m, h))
    return {
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "e": ctx.e,
        "t": ctx.t,
        "s": s,
        "pairs_checked": len(pairs),
        "case_counts": case_counts,
        "violations": violations,
        "roots_oracle_checked": roots_checked,
        "roots_oracle_disagreements": roots_disagreements,
        "elapsed_s": round(time.time() - t0, 3),
    }


def bad_power_set_sweep(ctx: FieldCtx, s: int, stats: dict | None = None) -> dict:
    """Every m in the minus power set with mid-field h of fourth power 1 must
    fail scatteredness, with a verified constructive witness where one exists."""
    t0 = time.time()
    minus = trace_zero_power_set(ctx, s, -1)
    mid = ctx.subfield(ctx.t)
    mid_nz = mid[mid != 0]
    hs = [int(h) for h in mid_nz[ctx.pow_vec(mid_nz, 4) == 1]]
    failures = []
    witnesses = 0
    memo = ProfileMemo()
    for m in minus:
        for h in hs:
            params = QuadParams(ctx, s, int(m), h)
            if memo(build_quadrinomial(params))[1]:
                failures.append((int(m), h, "scattered"))
                continue
            w = nonscattered_witness(params)
            if w is None:
                failures.append((int(m), h, "no witness"))
            else:
                witnesses += 1
    _write_stats(stats, memo.calls, memo.asked)
    return {
        "schema_version": SCHEMA_VERSION,
        "pairs_checked": int(minus.size) * len(hs),
        "witnesses_verified": witnesses,
        "failures": failures,
        "elapsed_s": round(time.time() - t0, 3),
    }


def conjecture_scan(
    ctx: FieldCtx, s: int, h_dedup: bool = True, stats: dict | None = None,
) -> dict:
    """Scattered-versus-conditions comparison for both exponent orderings.

    The swapped ordering exchanges the roles of the t-1 and t+1 exponents;
    the scan reports mismatch lists for each form so either reading of the
    expected characterization can be examined from the same artifact.
    """
    t0 = time.time()
    ms = ctx.subfield(ctx.t)
    hs = h_class_reps(ctx) if h_dedup else ctx.nonzero_elements()
    mismatches_main = []
    mismatches_swapped = []
    counts = {"pairs": 0, "scattered_main": 0, "scattered_swapped": 0, "applies": 0}
    memo = ProfileMemo()
    for m in ms:
        for h in hs:
            params = QuadParams(ctx, s, int(m), int(h))
            applies = scattered_conditions(params).applies
            sc_main = memo(build_quadrinomial(params))[1]
            sc_sw = memo(build_quadrinomial_swapped(params))[1]
            counts["pairs"] += 1
            counts["scattered_main"] += sc_main
            counts["scattered_swapped"] += sc_sw
            counts["applies"] += applies
            if sc_main != applies:
                mismatches_main.append((int(m), int(h), applies, sc_main))
            if sc_sw != applies:
                mismatches_swapped.append((int(m), int(h), applies, sc_sw))
    _write_stats(stats, memo.calls, memo.asked)
    return {
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "e": ctx.e,
        "t": ctx.t,
        "s": s,
        "h_dedup": h_dedup,
        "counts": counts,
        "mismatches_main_ordering": mismatches_main,
        "mismatches_swapped_ordering": mismatches_swapped,
        # m = 0 degenerates to the trailing binomial, which the conditions
        # never cover but which can be scattered off the norm range; the
        # nonzero-m splits isolate the family proper
        "nonzero_m_mismatches_main": sum(1 for r in mismatches_main if r[0] != 0),
        "nonzero_m_mismatches_swapped": sum(1 for r in mismatches_swapped if r[0] != 0),
        "elapsed_s": round(time.time() - t0, 3),
    }
