"""Literal sweeps, kept as references for the fast paths of scatlin.

`fiber_profile_sorted` keys every f(x)/x with the F_q-line of x and compares
distinct keys with distinct values by sorting; it is the reference for
`scattered.fiber_profile`, which counts the values instead.  It evaluates f
with `eval_vec_digits`, so it shares no addition with the library kernel.

`scaling_class` normalizes f under every nonzero lambda and picks the
smallest result; it is the reference for `scattered.profile_key`.

`scattered_conditions_branches` and `prior_family_tag_branches` decide the
case and prior tags of one pair by if/else branches on power-set
membership, the norm and h^2; they are the references for
`quadrinomial.condition_tags` and its one-pair calls.  `record_pairs`
builds one classification record from them, one `fiber_profile` and the
witness range h in F_{q^t}, h^4 = 1.  `classify_sweep_pairs`,
`conjecture_scan_pairs`, `sufficiency_sweep_pairs` and
`bad_power_set_sweep_pairs` walk the (m, h) grid pair by pair with these;
they are the references for the sweeps of `scatlin.sweep`, whose reports
they reproduce key for key.  `condition_pairs_grid` filters the whole grid
with `scattered_conditions_branches`; it is the reference for
`sweep.condition_pairs`.

`pair_profiles_per_orbit` is the per-orbit loop that `sweep.pair_grid`
replaced: per support it codes every row with `orbit_codes_all_rows`, and
builds one `LinPoly` and runs one `fiber_profile` per orbit
representative.  `orbit_codes_all_rows` takes the p-power twist minimum
on every row, where `scattered.orbit_codes` takes it once per distinct
scaling key.  They are the references for `pair_grid`'s kernel-call count
and profiles, for `scattered.fiber_profiles` and for `orbit_codes`.

`graph_maps_grid` tests every (alpha, beta) pair of the top field against
g o (alpha*X + beta*f) = gamma*X + delta*f and reads gamma and delta off the
coefficient slots; it is the reference for `stabilizer`, `right_idealizer`
and `gl_search`.  `left_idealizer_grid` tests every pair for the left
idealizer.  Both cost q^(2n) and are meant for the (3,3) tower.

`codeword_ranks_elimination` row-reduces the F_p-matrix of X + b*f for every
b, and of f, with `gflinalg.rank_batched`; it is the reference for
`RankCode.codeword_ranks`, which reads the ranks off the fiber counts.

`closure_all_pairs` adds and multiplies every pair of a set of 2x2
matrices; it is the reference for `StabilizerSet.closure_flags`.

`is_irreducible_trial` divides by every monic polynomial of degree at most
d/2; it is the reference for the companion-matrix test
`fieldcore._is_irreducible`.

`add_vec_digits` and `eval_vec_digits` add base-p digit vectors and reduce
mod p; they are the references for `FieldCtx.add_vec`, `FieldCtx.add` and
`LinPoly.eval_vec`, which add through Zech logarithms.

`eval_vec_zech` sums the terms through Zech logarithms with one `scale_vec`
per term and reduces every partial sum with `%`, and `fiber_counts_mod`
reduces the log of f(x)/x with `%` on its values; they are the references
for `LinPoly.eval_vec`, which factors out the first coefficient and reduces
by conditional subtraction, and for `scattered.fiber_counts`.

`fill_powers_int64` fills the powers of one element in blocks of int64
matrix products reduced with `%`, and `smallest_generator_loop` tests one
candidate at a time with int64 matrix powers; they are the references for
`fieldcore._fill_powers` and `fieldcore.smallest_generator`, which multiply
float64 stacks through BLAS.

`meets_subgeometry_all_points` evaluates every equation on every nonzero x;
it is the reference for `projgeom.meets_subgeometry`, which evaluates each
equation only on the x that satisfy the ones before it.
"""

from itertools import product
from math import prod

import numpy as np

from scatlin import gflinalg
from scatlin.fieldcore import _factorize
from scatlin.linpoly import LinPoly
from scatlin.quadrinomial import (
    QuadParams, build_quadrinomial, build_quadrinomial_swapped, family_slots,
    nonscattered_witness, trace_zero_power_set,
)
from scatlin.scattered import _scaling_steps, fiber_profile, is_scattered_roots, profile_keys
from scatlin.sweep import SCHEMA_VERSION, h_class_reps

GRID_BOUND = 3 ** 12


def fiber_profile_sorted(f):
    """(linear set size, scattered): every value of f(x)/x on one F_q-line."""
    ctx = f.ctx
    vals = eval_vec_digits(f, ctx.elements())[1:]   # f(x), x = 1 .. size-1
    xs = np.arange(1, ctx.size, dtype=np.int64)
    logs_x = ctx.LOG[xs]
    # ratio f(x)/x in log form; kernel elements get the sentinel ctx.order
    ratio = np.where(vals == 0, ctx.order, (ctx.LOG[vals] - logs_x) % ctx.order)
    line_mod = ctx.order // (ctx.q - 1)
    keys = ratio * (line_mod + 1) + logs_x % line_mod
    n_points = int(np.unique(ratio).size)
    return n_points, np.unique(keys).size == n_points


def scaling_class(f):
    """Smallest coefficient vector of mu*f(lambda*X) over all lambda != 0,
    with mu chosen to make the lowest-exponent coefficient 1; () for f = 0.

    Two polynomials get the same class iff one is a scaling of the other.
    """
    ctx = f.ctx
    qv = f.q_view()
    support = np.flatnonzero(qv).tolist()
    if not support:
        return ()
    lam = ctx.nonzero_elements()
    # coefficient of X^(q^e) in f(lambda*X) is a_e * lambda^(q^e)
    cols = [ctx.scale_vec(int(qv[e]), ctx.frob_vec(lam, e)) for e in support]
    inv_lead = ctx.pow_vec(cols[0], -1)
    normed = np.stack([ctx.mul_vec(c, inv_lead) for c in cols], axis=1)
    return tuple(support), min(map(tuple, normed.tolist()))


def _in_sorted(arr, v):
    i = np.searchsorted(arr, v)
    return i < arr.size and arr[i] == v


def scattered_conditions_branches(params):
    """Case tag of (m, h): "I", "IIa", "IIb" or "none".

    Case I   : t even, or t odd with q = 1 mod 4; m outside both power sets
               and norm of h onto the middle field equal to +-1.
    Case IIa : t odd, q = 3 mod 4; m a nonzero (q^s+1)-power of a trace-zero
               element and norm -1.
    Case IIb : t odd, q = 3 mod 4; m outside both power sets, norm +1 and
               h^2 != -1.
    """
    ctx, s, m, h = params.ctx, params.s, params.m, params.h
    in_plus = _in_sorted(trace_zero_power_set(ctx, s, +1), m)
    in_minus = _in_sorted(trace_zero_power_set(ctx, s, -1), m)
    nh = params.norm_h
    norm_is_one = nh == 1
    norm_is_minus_one = nh == ctx.neg_one
    h2_is_minus_one = ctx.mul(h, h) == ctx.neg_one
    if (ctx.t % 2 == 0) or (ctx.q % 4 == 1):
        if (not in_plus and not in_minus) and (norm_is_one or norm_is_minus_one):
            return "I"
        return "none"
    # t odd and q = 3 mod 4
    if in_plus and m != 0 and norm_is_minus_one:
        return "IIa"
    if (not in_plus and not in_minus) and norm_is_one and not h2_is_minus_one:
        return "IIb"
    return "none"


def prior_family_tag_branches(params):
    """Prior tag of (m, h): "LZ-ZZ" (m = 1, h mid-field with h^2 = -1),
    "LMTZ" (m = 1, h outside the middle field with norm -1), "SZZ" (h in the
    base field, m outside both step-1 power sets), or "none"."""
    ctx, m, h = params.ctx, params.m, params.h
    h_mid = ctx.in_subfield(h, ctx.t)
    h2_minus_one = ctx.mul(h, h) == ctx.neg_one
    if m == 1 and h_mid and h2_minus_one:
        return "LZ-ZZ"
    if m == 1 and not h_mid and params.norm_h == ctx.neg_one:
        return "LMTZ"
    if ctx.in_subfield(h, 1):
        plus = trace_zero_power_set(ctx, 1, +1)
        minus = trace_zero_power_set(ctx, 1, -1)
        if not _in_sorted(plus, m) and not _in_sorted(minus, m):
            return "SZZ"
    return "none"


def record_pairs(params, with_witness=True):
    """The record of `classify_record` for one pair, tags by the branches."""
    ctx, h = params.ctx, params.h
    n_points, scattered = fiber_profile(build_quadrinomial(params))
    rec = {
        "m": params.m,
        "h": h,
        "norm_h": params.norm_h,
        "case_tag": scattered_conditions_branches(params),
        "prior_tag": prior_family_tag_branches(params),
        "scattered": bool(scattered),
        "linear_set_size": n_points,
    }
    if with_witness:
        in_range = ctx.in_subfield(h, ctx.t) and ctx.pow(h, 4) == 1
        rec["witness"] = nonscattered_witness(params) if in_range else None
    return rec


def _grid(ctx, s, h_dedup):
    hs = h_class_reps(ctx) if h_dedup else ctx.nonzero_elements()
    return [QuadParams(ctx, s, int(m), int(h)) for m in ctx.subfield(ctx.t) for h in hs]


def _head(ctx, s):
    return {"schema_version": SCHEMA_VERSION, "p": ctx.p, "e": ctx.e, "t": ctx.t, "s": s}


def _count(tags):
    out = {}
    for tag in tags:
        out[tag] = out.get(tag, 0) + 1
    return out


def classify_sweep_pairs(ctx, s, h_dedup=False, with_witness=True):
    """(records, summary) of `classify_sweep`, one `record_pairs` per pair."""
    records = [record_pairs(p, with_witness) for p in _grid(ctx, s, h_dedup)]
    return records, {
        **_head(ctx, s),
        "h_dedup": h_dedup,
        "pairs": len(records),
        "scattered": sum(r["scattered"] for r in records),
        "condition_applies": sum(r["case_tag"] != "none" for r in records),
        "case_counts": _count(r["case_tag"] for r in records),
        "prior_counts": _count(r["prior_tag"] for r in records),
        "violations_applies_not_scattered": [
            (r["m"], r["h"]) for r in records if r["case_tag"] != "none" and not r["scattered"]],
        "conjecture_data_scattered_not_applies": [
            (r["m"], r["h"]) for r in records if r["case_tag"] == "none" and r["scattered"]],
    }


def conjecture_scan_pairs(ctx, s, h_dedup=True):
    """The report of `conjecture_scan`, pair by pair."""
    mismatches = {False: [], True: []}
    counts = {"pairs": 0, "scattered_main": 0, "scattered_swapped": 0, "applies": 0}
    for p in _grid(ctx, s, h_dedup):
        applies = scattered_conditions_branches(p) != "none"
        counts["pairs"] += 1
        counts["applies"] += applies
        for swapped, build in ((False, build_quadrinomial), (True, build_quadrinomial_swapped)):
            scattered = fiber_profile(build(p))[1]
            counts["scattered_swapped" if swapped else "scattered_main"] += scattered
            if scattered != applies:
                mismatches[swapped].append((p.m, p.h, applies, scattered))
    return {
        **_head(ctx, s),
        "h_dedup": h_dedup,
        "counts": counts,
        "mismatches_main_ordering": mismatches[False],
        "mismatches_swapped_ordering": mismatches[True],
        "nonzero_m_mismatches_main": sum(1 for r in mismatches[False] if r[0] != 0),
        "nonzero_m_mismatches_swapped": sum(1 for r in mismatches[True] if r[0] != 0),
    }


def condition_pairs_grid(ctx, s):
    """Every (m, h) on which a case applies, in (case, m, norm_h != 1, h) order."""
    rows = []
    for p in _grid(ctx, s, False):
        case = scattered_conditions_branches(p)
        if case != "none":
            rows.append((case, p.m, p.norm_h != 1, p.h))
    return [(m, h) for _, m, _, h in sorted(rows)]


def sufficiency_sweep_pairs(ctx, s, roots_sample=0, seed=0):
    """The report of `sufficiency_sweep`, pair by pair."""
    pairs = condition_pairs_grid(ctx, s)
    tags = [scattered_conditions_branches(QuadParams(ctx, s, m, h)) for m, h in pairs]
    violations = [(m, h, tag) for (m, h), tag in zip(pairs, tags)
                  if not fiber_profile(build_quadrinomial(QuadParams(ctx, s, m, h)))[1]]
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(pairs), size=min(roots_sample, len(pairs)), replace=False)
    disagreements = []
    for i in sorted(sample.tolist()):
        f = build_quadrinomial(QuadParams(ctx, s, *pairs[i]))
        if fiber_profile(f)[1] != is_scattered_roots(f):
            disagreements.append(pairs[i])
    return {
        **_head(ctx, s),
        "pairs_checked": len(pairs),
        "case_counts": _count(tags),
        "violations": violations,
        "roots_oracle_checked": int(sample.size),
        "roots_oracle_disagreements": disagreements,
    }


def bad_power_set_sweep_pairs(ctx, s):
    """The report of `bad_power_set_sweep`, pair by pair."""
    mid = ctx.subfield(ctx.t)
    hs = [int(h) for h in mid if h and ctx.pow(int(h), 4) == 1]
    failures, witnesses = [], 0
    for m in trace_zero_power_set(ctx, s, -1).tolist():
        for h in hs:
            p = QuadParams(ctx, s, m, h)
            if fiber_profile(build_quadrinomial(p))[1]:
                failures.append((m, h, "scattered"))
            elif nonscattered_witness(p) is None:
                failures.append((m, h, "no witness"))
            else:
                witnesses += 1
    return {**_head(ctx, s),
            "pairs_checked": len(hs) * trace_zero_power_set(ctx, s, -1).size,
            "witnesses_verified": witnesses, "failures": failures}


def orbit_codes_all_rows(ctx, support, logs):
    """The codes of `orbit_codes`, with the twist minimum taken on every row."""
    order = ctx.order
    radices = [g for g, *_ in _scaling_steps(ctx.q, order, tuple(support))]
    weights = np.array([prod(radices[i + 1:]) for i in range(len(radices))], dtype=np.int64)
    logs = np.asarray(logs, dtype=np.int64)
    return np.min([profile_keys(ctx, support, logs * pow(ctx.p, j, order) % order) @ weights
                   for j in range(ctx.deg)], axis=0)


def pair_profiles_per_orbit(ctx, s, M, H, forms=(False,)):
    """(size, scattered, calls) of `sweep.pair_grid`: per support, codes from
    `orbit_codes_all_rows`, and one `LinPoly` and one `fiber_profile` per
    orbit representative."""
    M, H = np.asarray(M, dtype=np.int64), np.asarray(H, dtype=np.int64)
    n, order = ctx.n, ctx.order
    logs = np.zeros((len(forms), M.size, n), dtype=np.int64)
    live = np.zeros(logs.shape, dtype=bool)
    for f, swapped in enumerate(forms):
        for slot, times_m, negated, k in family_slots(ctx.t, swapped):
            e = (1 - ctx.q ** ((s * k) % n)) % order
            logs[f, :, slot] = (ctx.LOG[H] * e + ctx.LOG[M] * times_m + order // 2 * negated) % order
            live[f, :, slot] = (M != 0) | (not times_m)
    logs, live = logs.reshape(-1, n), live.reshape(-1, n)
    exps = (s * np.arange(n)) % n
    support = live @ (1 << exps)
    size, scattered = np.zeros((2, support.size), dtype=np.int64)
    calls = 0
    for pattern in np.unique(support):
        rows = np.flatnonzero(support == pattern)
        slots = np.flatnonzero(live[rows[0]])
        slots = slots[np.argsort(exps[slots])]
        codes = orbit_codes_all_rows(ctx, tuple(exps[slots].tolist()), logs[rows][:, slots])
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        profiles = np.array([
            fiber_profile(LinPoly(ctx, s, np.where(live[r], ctx.EXP[logs[r]], 0)))
            for r in rows[first]
        ], dtype=np.int64)
        size[rows] = profiles[inverse, 0]
        scattered[rows] = profiles[inverse, 1]
        calls += first.size
    shape = (len(forms), M.size)
    return size.reshape(shape), scattered.reshape(shape) != 0, calls


def _has_remainder(a, b, p):
    """a mod the monic b over F_p is nonzero (coefficient lists, little-endian)."""
    r = list(a)
    k = len(b) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i] % p
        if c:
            for j in range(k + 1):
                r[i - k + j] = (r[i - k + j] - c * b[j]) % p
    return any(x % p for x in r[:k])


def is_irreducible_trial(m, p):
    """The monic m has no monic factor of degree 1 .. deg(m)/2 over F_p."""
    d = len(m) - 1
    return all(
        _has_remainder(m, list(low) + [1], p)
        for k in range(1, d // 2 + 1)
        for low in product(range(p), repeat=k)
    )


def _compose_with_span_of_f(outer, inner, bs):
    """Slot values of outer o (b*inner) for every b, as {slot: array}."""
    ctx = outer.ctx
    s = outer.s
    acc = {k: np.zeros((bs.size, ctx.deg), dtype=np.int64) for k in range(ctx.n)}
    for i in outer.support():
        fb = ctx.frob_vec(bs, (s * i) % ctx.n)
        for j in inner.support():
            k = (i + j) % ctx.n
            cst = ctx.mul(int(outer.coeffs[i]), ctx.frob(int(inner.coeffs[j]), (s * i) % ctx.n))
            acc[k] += ctx.DIGITS[ctx.scale_vec(cst, fb)]
    return {k: (v % ctx.p) @ ctx.PP for k, v in acc.items()}


def _add_outer(ctx, av, bv):
    """Outer sum grid of two index vectors (either may be None == zeros)."""
    na = ctx.size
    if av is None:
        av = np.zeros(na, dtype=np.int64)
    if bv is None:
        bv = np.zeros(na, dtype=np.int64)
    dig = ctx.DIGITS[av][:, None, :] + ctx.DIGITS[bv][None, :, :]
    return (dig % ctx.p) @ ctx.PP


def _div_by_const(ctx, arr, c):
    return ctx.scale_vec(ctx.inv(c), arr)


def _check_size(ctx):
    if ctx.size ** 2 > GRID_BOUND:
        raise ValueError(f"grid of {ctx.size ** 2} pairs is above {GRID_BOUND}")


def graph_maps_grid(f, g):
    """All (alpha, beta, gamma, delta) with g o (alpha*X + beta*f) = gamma*X + delta*f.

    Sorted tuples, invertible or not.  f must be independent of X, so that
    delta is read off a slot other than 0.
    """
    ctx = f.ctx
    _check_size(ctx)
    fq = LinPoly.from_q_view(ctx, 1, f.q_view())
    gq = LinPoly.from_q_view(ctx, 1, g.q_view())
    fsupp = [k for k in fq.support() if k != 0]
    if not fsupp:
        raise ValueError("f must be independent of X")
    els = ctx.elements()
    b_part = _compose_with_span_of_f(gq, fq, els)
    a_part = {k: ctx.scale_vec(int(gq.coeffs[k]), ctx.frob_vec(els, k)) for k in gq.support()}
    slot = {k: _add_outer(ctx, a_part.get(k), b_part[k]) for k in range(ctx.n)}
    # slot k reads delta*f_k for k != 0 and gamma + delta*f_0 for k = 0
    delta = _div_by_const(ctx, slot[fsupp[0]], int(fq.coeffs[fsupp[0]]))
    ok = np.ones((ctx.size, ctx.size), dtype=bool)
    for k in range(1, ctx.n):
        ok &= slot[k] == ctx.scale_vec(int(fq.coeffs[k]), delta)
    gamma = ctx.add_vec(slot[0], ctx.NEG[ctx.scale_vec(int(fq.coeffs[0]), delta)])
    aa, bb = np.nonzero(ok)
    return sorted(
        zip(aa.tolist(), bb.tolist(), gamma[aa, bb].tolist(), delta[aa, bb].tolist())
    )


def closure_all_pairs(ctx, elements):
    """(additive, multiplicative) closure of the 2x2 matrices in elements
    plus the zero matrix, by testing every ordered pair."""
    mats = np.array(list(elements) + [(0, 0, 0, 0)], dtype=np.int64)
    members = {tuple(m) for m in mats.tolist()}
    ii, jj = np.meshgrid(np.arange(len(mats)), np.arange(len(mats)), indexing="ij")
    a, b = mats[ii.ravel()], mats[jj.ravel()]

    def entry(x, y, u, v):
        return ctx.add_vec(ctx.mul_vec(a[:, x], b[:, y]), ctx.mul_vec(a[:, u], b[:, v]))

    sums = np.stack([ctx.add_vec(a[:, k], b[:, k]) for k in range(4)], axis=1)
    prods = np.stack([entry(0, 0, 1, 2), entry(0, 1, 1, 3),
                      entry(2, 0, 3, 2), entry(2, 1, 3, 3)], axis=1)
    return (all(tuple(m) in members for m in sums.tolist()),
            all(tuple(m) in members for m in prods.tolist()))


def invertible(ctx, maps):
    """The maps (alpha, beta, gamma, delta) with alpha*delta != beta*gamma."""
    return [m for m in maps if ctx.mul(m[0], m[3]) != ctx.mul(m[1], m[2])]


def canonical_witness(ctx, maps):
    """The invertible map smallest by (beta, alpha, gamma, delta), or None."""
    return min(invertible(ctx, maps), key=lambda m: (m[1], m[0], m[2], m[3]), default=None)


def left_idealizer_grid(code):
    """All (a, b) with (a*X + b*f) o f back in the span <X, f>, pair by pair."""
    ctx = code.ctx
    _check_size(ctx)
    f = code.f
    supp = f.support()
    els = ctx.elements()
    ff = f.compose(f)
    a_part = {k: ctx.scale_vec(int(f.coeffs[k]), els) for k in supp}
    b_part = {k: ctx.scale_vec(int(ff.coeffs[k]), els) for k in range(ctx.n)}

    ok = np.ones((ctx.size, ctx.size), dtype=bool)
    ratio = None
    for k in range(1, ctx.n):  # slot 0 is absorbed by a'
        grid = _add_outer(ctx, a_part.get(k), b_part[k])
        if k not in supp:
            ok &= grid == 0
            continue
        # b' = slot_k / f_k must agree across the support
        rk = _div_by_const(ctx, grid, int(f.coeffs[k]))
        if ratio is None:
            ratio = rk
        else:
            ok &= ratio == rk
    aa, bb = np.nonzero(ok)
    return sorted(set(zip(aa.tolist(), bb.tolist())))


def codeword_ranks_elimination(code):
    """F_q-ranks of X + b*f for every b, then of f, by Gaussian elimination."""
    ctx = code.ctx
    bs = ctx.elements()
    fx = code.f.eval_vec(ctx.PP)
    # matrices of x -> x + b*f(x) for every b, one basis column at a time;
    # digit entries keep the stack at one byte per entry
    mats = np.empty((ctx.size, ctx.deg, ctx.deg), dtype=np.int8)
    for j in range(ctx.deg):
        mats[:, :, j] = ctx.DIGITS[ctx.add_vec(ctx.scale_vec(int(fx[j]), bs), ctx.PP[j])]
    ranks = gflinalg.rank_batched(mats, ctx.p)
    ranks = np.append(ranks, gflinalg.rank(code.f.matrix(), ctx.p))
    if (ranks % ctx.e).any():
        raise RuntimeError("a codeword's F_p-rank is not a multiple of e")
    return ranks // ctx.e


def add_vec_digits(ctx, a, b):
    """a + b elementwise: digit vectors added mod p."""
    return ((ctx.DIGITS[a] + ctx.DIGITS[b]) % ctx.p) @ ctx.PP


def eval_vec_digits(f, xs):
    """f at the flattened xs: the terms' digit vectors summed, then reduced mod p."""
    ctx = f.ctx
    xs = np.asarray(xs).ravel()
    acc = np.zeros((xs.size, ctx.deg), dtype=np.int16)
    for i in f.support():
        term = ctx.scale_vec(int(f.coeffs[i]), ctx.frob_vec(xs, f.s * i))
        acc += ctx.DIGITS[term]
    return (acc % ctx.p).astype(np.int64) @ ctx.PP


def eval_vec_zech(f, xs):
    """f at the flattened xs: each term scaled by its coefficient, summed in
    the log domain and reduced mod order."""
    ctx = f.ctx
    xs = np.asarray(xs).ravel()
    acc = zero = None
    for i in f.support():
        lt = ctx.LOG[ctx.scale_vec(int(f.coeffs[i]), ctx.frob_vec(xs, f.s * i))]
        if acc is None:
            acc = lt
            continue
        z = ctx.ZECH[lt - acc]
        acc += z
        acc %= ctx.order
        if zero is not None:
            acc[zero] = lt[zero]
            z[zero] = 0
        zero = z < 0
        if not zero.any():
            zero = None
    if acc is None:
        return np.zeros(xs.size, dtype=np.int64)
    out = ctx.EXP[acc]
    if zero is not None:
        out[zero] = 0
    out[xs == 0] = 0
    return out


def fiber_counts_mod(f):
    """The fiber counts of f(x)/x from `eval_vec_zech`, the log of each
    ratio reduced with %."""
    ctx = f.ctx
    vals = eval_vec_zech(f, ctx.elements())[1:]
    ratio = np.where(vals == 0, ctx.order, (ctx.LOG[vals] - ctx.LOG[1:]) % ctx.order)
    return np.bincount(ratio, minlength=ctx.order + 1)


def _digits_int64(idx, p, d):
    return np.array([(idx // p ** j) % p for j in range(d)], dtype=np.int64)


def _matpow_int64(mat, k, p):
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return out


def _mult_matrix_int64(modulus, p, a):
    """a(C) with C the companion matrix of the monic modulus: column j is a x^j."""
    d = len(modulus) - 1
    comp = np.eye(d, k=-1, dtype=np.int64)
    comp[:, -1] = -np.asarray(modulus[:d], dtype=np.int64) % p
    cols = [_digits_int64(a, p, d)]
    for _ in range(d - 1):
        cols.append(comp @ cols[-1] % p)
    return np.stack(cols, axis=1)


def fill_powers_int64(modulus, p, a, count):
    """Indices of a^0, ..., a^(count-1) modulo the modulus, in blocks of
    int64 products: a^r for r < B by doubling, then A^B times the last block."""
    d = len(modulus) - 1
    pp = p ** np.arange(d, dtype=np.int64)
    step = _mult_matrix_int64(modulus, p, a)
    block = 1 << (count.bit_length() // 2)
    cols = _digits_int64(1, p, d)[:, None]
    while cols.shape[1] < block:
        cols = np.hstack([cols, step @ cols % p])
        step = step @ step % p
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, block):
        n = min(block, count - start)
        out[start:start + n] = pp @ cols[:, :n]
        cols = step @ cols % p
    return out


def smallest_generator_loop(modulus, p):
    """The smallest index a with a(C)^(order/r) != I for every prime r | order,
    candidates one at a time."""
    d = len(modulus) - 1
    order = p ** d - 1
    eye = np.eye(d, dtype=np.int64)
    cofactors = [order // r for r in _factorize(order)]
    for cand in range(2, order + 1):
        mat = _mult_matrix_int64(modulus, p, cand)
        if all(not np.array_equal(_matpow_int64(mat, cf, p), eye) for cf in cofactors):
            return cand
    return None


def meets_subgeometry_all_points(space):
    """Some nonzero x satisfies every equation at the point (x^(q^(s*i)))_i."""
    ctx = space.ctx
    xs = ctx.nonzero_elements()
    ok = np.ones(xs.size, dtype=bool)
    for e in space.equations:
        ok &= LinPoly(ctx, space.s, e).eval_vec(xs) == 0
    return bool(ok.any())
