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
`family_supports` and `code_pass_per_row` are the code pass that
`sweep._code_pass` replaced: per support, `family_terms` logs for every
row of the grid, and `orbit_codes` on all of them, which computes and
sorts one scaling key per row.  `pair_grid_per_row` profiles one row per
code from it; they are the references for `sweep._code_pass`, which builds
logs only for one row per coset of `scattered.scaling_lattice`, and for
`sweep.pair_grid`.  `scaling_lattice_grid` tests every (a, l) of a
rectangle for a*alpha + l*beta being a scaling, by comparing the
`profile_keys` rows of l*beta and -a*alpha; it is the reference for
`scattered.scaling_lattice`.
`fiber_profiles_full_field` counts f(x)/x at every nonzero x, in blocks of
2^14/size rows, and reads scatteredness off the largest count q - 1; it is
the reference for `scattered.fiber_profiles`, which counts one point per
F_q*-class.

`graph_maps_grid` tests every (alpha, beta) pair of the top field against
g o (alpha*X + beta*f) = gamma*X + delta*f, one coefficient slot after
another on the pairs that pass the slots before, and reads gamma and delta
off the slots; it is the reference for `stabilizer`, `right_idealizer`
and `gl_search`.  `left_idealizer_grid` tests every pair for the left
idealizer.  Both cost q^(2n) and are meant for the (3,3) tower.
`left_idealizer_list` decides the closed form as `left_idealizer` does and
lists its pairs as Python tuples; it is the reference for the
`mrdcodes.PairRange` that `left_idealizer` returns.

`codeword_ranks_elimination` row-reduces the F_p-matrix of X + b*f for every
b, and of f, with `gflinalg.rank_batched`; it is the reference for
`RankCode.codeword_ranks`, which reads the ranks off the fiber counts.

`closure_all_pairs` adds and multiplies every pair of a set of 2x2
matrices; it is the reference for `StabilizerSet.closure_flags`.
`mat_mul_scalar` and `mat_det_scalar` write the product and the
determinant of one pair of (alpha, beta, gamma, delta) tuples entry by
entry with scalar `ctx.mul`, `ctx.add` and `ctx.sub`; they are the
references for `mrdcodes.mat_mul` and `mrdcodes.mat_det`.

`is_irreducible_trial` divides by every monic polynomial of degree at most
d/2; it is the reference for the companion-matrix test
`fieldcore._is_irreducible`.

`add_vec_digits` and `eval_vec_digits` add base-p digit vectors and reduce
mod p; they are the references for `FieldCtx.add_vec`, `FieldCtx.add` and
`LinPoly.eval_vec`, which add through Zech logarithms.

`scale_vec_where` scales by `np.where` over the whole sum of logs; it is
the reference for `FieldCtx.scale_vec`, which shifts one log array in place
and writes the zeros back.

`eval_vec_zech` sums the terms through Zech logarithms with one `scale_vec`
per term and reduces every partial sum with `%`, and `fiber_counts_mod`
reduces the log of f(x)/x with `%` on its values; they are the references
for `LinPoly.eval_vec`, which factors out the first coefficient and reduces
by conditional subtraction, and for `scattered.fiber_counts`.
`fiber_counts_field` counts every nonzero x from the values of `eval_vec`;
it is the reference for `scattered.fiber_counts`, which counts one point
per F_q*-class on the log sums and multiplies by q - 1.

`eval_terms_loop`, `compose_terms_loop` and `adjoint_terms_loop` work on a
step-s presentation {i: a_i} of sum_i a_i X^(q^(s*i)), raising to q^(s*i)
one term at a time; they are the references for `LinPoly.from_terms`, after
which the library knows no step.

`fill_powers_int64` fills the powers of one element in blocks of int64
matrix products reduced with `%`, and `smallest_generator_loop` tests one
candidate at a time with int64 matrix powers; they are the references for
`fieldcore._fill_powers` and `fieldcore.smallest_generator`, which multiply
float64 stacks through BLAS.

`meets_subgeometry_all_points` evaluates every equation on every nonzero x
by digit sums at the step-s coordinates;
it is the reference for `projgeom.meets_subgeometry`, which evaluates each
equation only on the x that satisfy the ones before it and refuses a
one-term equation outright.

`row_reduce_masked` updates every other row at each pivot through a boolean
mask and `np.outer`; `nullspace_loop` reads the kernel off it entry by
entry, and `solve_affine_twice` reduces the augmented matrix and the matrix
separately.  They are the references for `gflinalg.row_reduce`,
`nullspace` and `solve_affine`, which take the kernel from the one
reduction.  `row_reduce_eager` updates only the rows nonzero in the pivot
column and reduces every updated entry mod p at every pivot; it is the
reference for the lazy `gflinalg.row_reduce`, which reduces only the pivot
column and the pivot row until the end.

`graph_system_three_blocks` gathers the graph-map system in (alpha, beta,
delta), (n*deg) x (3*deg), from the field tables, and
`graph_maps_three_blocks` takes the kernel of its rows outside slot 0 and
reads gamma off slot 0; they are the references for `mrdcodes._graph_maps`,
which reads delta off the first slot k0 >= 1 of f and reduces only the
(n-2)*deg x 2*deg system in (alpha, beta).  `graph_system_per_element`
assembles the system from one multiplication matrix per coefficient and
one Frobenius matrix per power; it is the reference for
`graph_system_three_blocks`.

`quad_coeffs_scalar` computes each coefficient of the family polynomial
with scalar `ctx.pow`, `ctx.mul` and `ctx.neg`, one `family_slots` row at
a time; it is the reference for `quadrinomial.family_terms` and
`quad_coeffs`, which read every term's log off one array expression.
`decompose_per_params` splits x over the kernels of the leading and
trailing pairs of one member, building the split, taking both nullspaces
(of m*lead_unit when m != 0) and checking their rank on every call; it is
the reference for `quadrinomial.decompose`, which matches x - ker(lead)
against ker(tail), the kernel sets one `QuadSplit` holds for every m.
`trace_rel_loop` adds the digit vectors of the conjugates one at a time; it
is the reference for `FieldCtx.trace_rel`, one gather and one `sum_vec`.
`compose_loop` multiplies every pair of terms of the two supports and adds
their digit vectors one at a time; it is the reference for
`LinPoly.compose`, which sums the columns of `linpoly.composition_terms`.

`sigma_image_loop` applies the collineation one step at a time, one
Frobenius and one roll per equation and step; it is the reference for
`ProjSubspace.sigma_image`, which takes k steps in closed form.

`intersection_number_from_scratch` eliminates every chain
gamma ^ ... ^ gamma^sigma^g anew with `field_row_echelon_loop`, one scalar
test per entry; it is the reference for `projgeom.intersection_number`,
which grows one `FieldEchelon` along the chain.

`csv_lines_writer` writes the CSV rows of the classification records
through `csv.writer`, looking the tag names up row by row; it is the
reference for `cli._csv_lines`, which joins pieces formatted once per
distinct value.
"""

import csv
import io
from itertools import product
from math import prod

import numpy as np

from scatlin import gflinalg
from scatlin.fieldcore import DirectSumError, _factorize
from scatlin.linpoly import LinPoly, composition_terms, log_sums
from scatlin.mrdcodes import _refuse_above_bound
from scatlin.quadrinomial import (
    CASES, PRIORS, QuadParams, build_quadrinomial, build_quadrinomial_swapped, family_slots,
    family_terms, nonscattered_witness, split_maps, trace_zero_power_set,
)
from scatlin.scattered import (
    _ratio_counts, _scaling_steps, fiber_profile, fiber_profiles, is_scattered_roots,
    orbit_codes, profile_keys,
)
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
    support = f.support()
    if not support:
        return ()
    lam = ctx.nonzero_elements()
    # coefficient of X^(q^e) in f(lambda*X) is a_e * lambda^(q^e)
    cols = [ctx.scale_vec(int(f.coeffs[e]), ctx.frob_vec(lam, e)) for e in support]
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
            fiber_profile(LinPoly.from_terms(
                ctx, s, dict(enumerate(np.where(live[r], ctx.EXP[logs[r]], 0).tolist()))))
            for r in rows[first]
        ], dtype=np.int64)
        size[rows] = profiles[inverse, 0]
        scattered[rows] = profiles[inverse, 1]
        calls += first.size
    shape = (len(forms), M.size)
    return size.reshape(shape), scattered.reshape(shape) != 0, calls


def family_supports(ctx, s, M, H, forms):
    """(q-exponents, rows, logs) per support of the members (M, H): all four
    terms for m != 0, pooled across the forms, and the two terms without m for
    m = 0, one support per form.  Row f*M.size + i is pair i in forms[f]."""
    zero = M == 0
    rows = np.arange(len(forms) * M.size).reshape(len(forms), M.size)
    supports, pooled = [], []
    for f, swapped in enumerate(forms):
        slots, times_m, logs = family_terms(ctx, s, M, H, swapped)
        exps, plain, logs = s * np.array(slots) % ctx.n, ~np.array(times_m), np.stack(logs, -1)
        supports.append((exps[plain], rows[f][zero], logs[zero][:, plain]))
        pooled.append(logs[~zero])
    if forms:
        supports.append((exps, rows[:, ~zero].ravel(), np.concatenate(pooled)))
    return supports


def code_pass_per_row(ctx, s, M, H, forms=(False,)):
    """(support, rows, code of every row, distinct scaling keys, logs) per
    nonempty support of `family_supports`, the codes from `orbit_codes` on
    the logs of every row."""
    M, H = np.asarray(M, dtype=np.int64), np.asarray(H, dtype=np.int64)
    out = []
    for exps, rows, logs in family_supports(ctx, s, M, H, forms):
        if rows.size:
            support = tuple(exps.tolist())
            codes, first, inverse = orbit_codes(ctx, support, logs)
            out.append((support, rows, codes[inverse], codes.size, logs))
    return out


def pair_grid_per_row(ctx, s, M, H, forms=(False,)):
    """(size, scattered, calls, keys) of `sweep.pair_grid` from
    `code_pass_per_row`: one `fiber_profiles` row per distinct code."""
    size, scattered = np.zeros((2, len(forms), np.size(M)), dtype=np.int64)
    calls = keys = 0
    for support, rows, codes, n_keys, logs in code_pass_per_row(ctx, s, M, H, forms):
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        sizes, verdicts = fiber_profiles(ctx, support, logs[first])
        size.flat[rows] = sizes[inverse]
        scattered.flat[rows] = verdicts[inverse]
        calls += first.size
        keys += n_keys
    return size, scattered != 0, calls, keys


def scaling_lattice_grid(ctx, support, alpha, beta, a_range):
    """in_k[a, l]: whether a*alpha + l*beta is the log row of a scaling, for
    a < a_range and l < order; a row is one iff its `profile_keys` row is
    that of no offset at all, so (a, l) is in the lattice iff l*beta and
    -a*alpha have one key."""
    order = ctx.order
    alpha, beta = (np.asarray(v, dtype=np.int64) for v in (alpha, beta))
    rows = np.concatenate([np.arange(order)[:, None] * beta,
                           -np.arange(a_range)[:, None] * alpha]) % order
    _, ids = np.unique(profile_keys(ctx, support, rows), axis=0, return_inverse=True)
    ids = ids.ravel()
    return ids[order:, None] == ids[None, :order]


def fiber_profiles_full_field(ctx, support, logs):
    """(size, scattered) of `scattered.fiber_profiles`, counted over every
    nonzero x, the ratio logs acc - LOG[x]."""
    logs = np.asarray(logs, dtype=np.int64)
    columns = ((logs[:, 1:] - logs[:, :1]) % ctx.order).T[..., None]
    terms = [ctx.LOG[ctx.FROB[e][1:]] for e in support]
    size = np.empty(len(logs), dtype=np.int64)
    scattered = np.empty(len(logs), dtype=bool)
    step = max(1, 2 ** 14 // ctx.size)
    for r in range(0, len(logs), step):
        acc, cancel = log_sums(ctx, terms, columns[:, r:r + step])
        counts = _ratio_counts(ctx, acc - ctx.LOG[1:], cancel)
        size[r:r + step] = np.count_nonzero(counts, axis=-1)
        scattered[r:r + step] = counts.max(axis=-1) == ctx.q - 1
    return size, scattered


def quad_coeffs_scalar(params, swapped=False):
    """Slot -> coefficient map of the family polynomial, term by term."""
    ctx, s, m, h = params.ctx, params.s, params.m, params.h
    out = {}
    for slot, times_m, negated, k in family_slots(ctx.t, swapped):
        c = ctx.mul(m if times_m else 1, ctx.pow(h, 1 - ctx.q ** ((s * k) % ctx.n)))
        out[slot] = ctx.neg(c) if negated else c
    return out


def decompose_per_params(params, x):
    """x = x1 + x2 over ker(lead) and ker(tail) of the member `params`: the
    split, both nullspaces and the rank check made anew on every call."""
    ctx = params.ctx
    sp = split_maps(params)
    k1 = gflinalg.nullspace((sp.lead if params.m != 0 else sp.lead_unit).matrix(), ctx.p)
    k2 = gflinalg.nullspace(sp.tail.matrix(), ctx.p)
    basis = np.hstack([k1, k2])
    if basis.shape[1] != ctx.deg or gflinalg.rank(basis, ctx.p) != ctx.deg:
        raise DirectSumError("kernels of the two pairs do not split the field")
    coords, _ = gflinalg.solve_affine(basis, ctx.DIGITS[x], ctx.p)
    d1 = k1.shape[1]
    return ctx.from_digits(k1 @ coords[:d1]), ctx.from_digits(k2 @ coords[d1:])


def trace_rel_loop(ctx, x, d):
    """Relative trace onto F_{q^d}, one conjugate's digit vector at a time."""
    acc = ctx.DIGITS[x].copy()
    for i in range(1, ctx.n // d):
        acc = acc + ctx.DIGITS[ctx.frob(x, d * i)]
    return int((acc % ctx.p) @ ctx.PP)


def compose_loop(g, f):
    """g o f, reduced modulo X^(q^(2t)) - X, one pair of terms at a time."""
    ctx = g.ctx
    acc = np.zeros((ctx.n, ctx.deg), dtype=np.int64)
    for i in g.support():
        gi = int(g.coeffs[i])
        for j in f.support():
            term = ctx.mul(gi, ctx.frob(int(f.coeffs[j]), i))
            acc[(i + j) % ctx.n] += ctx.DIGITS[term]
    return LinPoly(ctx, (acc % ctx.p) @ ctx.PP)


def eval_terms_loop(ctx, s, terms, x):
    """sum_i a_i x^(q^(s*i)) for the step-s presentation {i: a_i}, term by term."""
    acc = 0
    for i, a in terms.items():
        acc = ctx.add(acc, ctx.mul(a, ctx.frob(x, s * i)))
    return acc


def compose_terms_loop(ctx, s, g_terms, f_terms):
    """The step-s presentation of g o f, term by term: a_i X^(q^(s*i)) after
    b_j X^(q^(s*j)) is a_i b_j^(q^(s*i)) X^(q^(s*(i+j)))."""
    acc = np.zeros((ctx.n, ctx.deg), dtype=np.int64)
    for i, a in g_terms.items():
        for j, b in f_terms.items():
            acc[(i + j) % ctx.n] += ctx.DIGITS[ctx.mul(a, ctx.frob(b, s * i))]
    return dict(enumerate(((acc % ctx.p) @ ctx.PP).tolist()))


def adjoint_terms_loop(ctx, s, terms):
    """The step-s presentation of the adjoint: slot n-i gets a_i^(q^(s*(n-i)))."""
    return {(ctx.n - i) % ctx.n: ctx.frob(a, s * (ctx.n - i)) for i, a in terms.items()}


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
    acc = {k: np.zeros((bs.size, ctx.deg), dtype=np.int64) for k in range(ctx.n)}
    for i in outer.support():
        fb = ctx.frob_vec(bs, i)
        for j in inner.support():
            k = (i + j) % ctx.n
            cst = ctx.mul(int(outer.coeffs[i]), ctx.frob(int(inner.coeffs[j]), i))
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
    delta is read off a slot other than 0.  Every (alpha, beta) pair of the
    top field is tested, but each slot after the first is summed only on
    the pairs that satisfy the slots before it.
    """
    ctx = f.ctx
    _check_size(ctx)
    fsupp = [k for k in f.support() if k != 0]
    if not fsupp:
        raise ValueError("f must be independent of X")
    els = ctx.elements()
    zero = np.zeros(ctx.size, dtype=np.int64)
    b_part = _compose_with_span_of_f(g, f, els)
    a_part = {k: ctx.scale_vec(int(g.coeffs[k]), ctx.frob_vec(els, k)) for k in g.support()}
    aa, bb = (v.ravel() for v in np.meshgrid(els, els, indexing="ij"))

    def slot(k):
        """Slot k at the pairs (aa, bb), summed digit by digit."""
        dig = ctx.DIGITS[a_part.get(k, zero)[aa]] + ctx.DIGITS[b_part[k][bb]]
        dig %= ctx.p
        return np.einsum("ij,j->i", dig, ctx.PP)

    # slot k reads delta*f_k for k != 0 and gamma + delta*f_0 for k = 0
    k0 = fsupp[0]
    delta = _div_by_const(ctx, slot(k0), int(f.coeffs[k0]))
    for k in range(1, ctx.n):
        if k != k0:
            keep = slot(k) == ctx.scale_vec(int(f.coeffs[k]), delta)
            aa, bb, delta = aa[keep], bb[keep], delta[keep]
    gamma = ctx.add_vec(slot(0), ctx.NEG[ctx.scale_vec(int(f.coeffs[0]), delta)])
    return sorted(zip(aa.tolist(), bb.tolist(), gamma.tolist(), delta.tolist()))


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


def mat_mul_scalar(ctx, w2, w1):
    """The 2x2 product w2 @ w1 of two (alpha, beta, gamma, delta) tuples."""
    a2, b2, c2, d2 = w2
    a1, b1, c1, d1 = w1
    return (
        ctx.add(ctx.mul(a2, a1), ctx.mul(b2, c1)),
        ctx.add(ctx.mul(a2, b1), ctx.mul(b2, d1)),
        ctx.add(ctx.mul(c2, a1), ctx.mul(d2, c1)),
        ctx.add(ctx.mul(c2, b1), ctx.mul(d2, d1)),
    )


def mat_det_scalar(ctx, w):
    """alpha*delta - beta*gamma of one (alpha, beta, gamma, delta) tuple."""
    alpha, beta, gamma, delta = w
    return ctx.sub(ctx.mul(alpha, delta), ctx.mul(beta, gamma))


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


def left_idealizer_list(code):
    """The left idealizer F x {0}, or F x F when f o f is in the span, as a list."""
    ctx = code.ctx
    fq, ffq = code.f.coeffs, code.f.compose(code.f).coeffs
    k = 1 + int(np.flatnonzero(fq[1:])[0])
    ratio = ctx.mul(int(ffq[k]), ctx.inv(int(fq[k])))
    closed = np.array_equal(ffq[1:], ctx.scale_vec(ratio, fq[1:]))
    _refuse_above_bound(ctx.p, 2 * ctx.deg if closed else ctx.deg)
    elements = ctx.elements().tolist()
    return list(product(elements, elements if closed else [0]))


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
        term = ctx.scale_vec(int(f.coeffs[i]), ctx.frob_vec(xs, i))
        acc += ctx.DIGITS[term]
    return (acc % ctx.p).astype(np.int64) @ ctx.PP


def scale_vec_where(ctx, c, a):
    """c*a elementwise for an array a of indices."""
    if c == 0:
        return np.zeros_like(np.asarray(a))
    a = np.asarray(a)
    return np.where(a == 0, 0, ctx.EXP[ctx.LOG[a] + ctx.LOG[c]])


def eval_vec_zech(f, xs):
    """f at the flattened xs: each term scaled by its coefficient, summed in
    the log domain and reduced mod order."""
    ctx = f.ctx
    xs = np.asarray(xs).ravel()
    acc = zero = None
    for i in f.support():
        lt = ctx.LOG[ctx.scale_vec(int(f.coeffs[i]), ctx.frob_vec(xs, i))]
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


def fiber_counts_field(f):
    """The fiber counts of f(x)/x at every nonzero x, from the values of
    `LinPoly.eval_field`, with no factor q - 1."""
    ctx = f.ctx
    vals = f.eval_field()[1:]          # f(x) for x = 1 .. size-1 (by index)
    return _ratio_counts(ctx, ctx.LOG[vals] - ctx.LOG[1:], vals == 0)


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
        terms = [ctx.scale_vec(int(c), ctx.frob_vec(xs, space.s * i)) for i, c in enumerate(e)]
        ok &= (ctx.DIGITS[np.array(terms)].sum(axis=0) % ctx.p == 0).all(axis=1)
    return bool(ok.any())


def row_reduce_masked(mat, p):
    """Reduced row echelon form mod p, (rref, pivot_columns): at each pivot
    every other row is updated through a boolean mask and `np.outer`."""
    a = np.array(mat, dtype=np.int64) % p
    inv = gflinalg.inv_table(p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * inv[a[r, c]]) % p
        mask = np.ones(rows, dtype=bool)
        mask[r] = False
        factors = a[mask, c]
        a[mask] = (a[mask] - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_loop(mat, p):
    """Right kernel basis from `row_reduce_masked`, one entry at a time."""
    a, pivots = row_reduce_masked(mat, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = (-a[r, fc]) % p
    return basis


def solve_affine_twice(mat, rhs, p):
    """(particular, kernel_basis) of mat @ x = rhs mod p, or None: the
    augmented matrix and mat are reduced separately."""
    a = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64).ravel() % p
    aug, pivots = row_reduce_masked(np.hstack([a, b[:, None]]), p)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = aug[r, cols]
    return x, nullspace_loop(a, p)


def row_reduce_eager(mat, p):
    """Reduced row echelon form mod p, (rref, pivot_columns): one Gauss-Jordan
    pass that updates only the rows nonzero in the pivot column, from the
    pivot column on, and reduces every updated entry mod p at every pivot."""
    a = np.array(mat, dtype=np.int64) % p
    inv = gflinalg.inv_table(p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + nz[0]
            a[[r, i], c:] = a[[i, r], c:]
        prow = a[r, c:]
        if prow[0] != 1:
            prow *= inv[prow[0]]
            prow %= p
        col = a[:, c]
        others = np.flatnonzero(col)
        others = others[others != r]
        if others.size:
            a[others, c:] = (a[others, c:] - col[others, None] * prow) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _mult_matrix(ctx, a):
    """Multiplication by a as a deg x deg matrix over F_p, one column at a time."""
    return ctx.DIGITS[[ctx.mul(a, int(ctx.PP[j])) for j in range(ctx.deg)]].T.astype(np.int64)


def _frob_matrix(ctx, i):
    return ctx.DIGITS[[ctx.frob(int(ctx.PP[j]), i) for j in range(ctx.deg)]].T.astype(np.int64)


def graph_system_per_element(f, g):
    """The (n*deg) x (4*deg) F_p-matrix of g o (alpha*X + beta*f) - gamma*X - delta*f,
    assembled from one multiplication matrix per coefficient and one
    Frobenius matrix per power."""
    ctx = f.ctx
    n, d, p = ctx.n, ctx.deg, ctx.p
    fq, gq = f.coeffs, g.coeffs
    frob = [_frob_matrix(ctx, i) for i in range(n)]
    # blocks[k, u]: slot k, unknown u in (alpha, beta, gamma, delta)
    blocks = np.zeros((n, 4, d, d), dtype=np.int64)
    for i in np.nonzero(gq)[0]:
        blocks[i, 0] = _mult_matrix(ctx, int(gq[i])) @ frob[i]
        for j in np.nonzero(fq)[0]:
            c = ctx.mul(int(gq[i]), ctx.frob(int(fq[j]), i))
            blocks[(i + j) % n, 1] += _mult_matrix(ctx, c) @ frob[i]
    blocks[0, 2] = -np.eye(d, dtype=np.int64)
    for j in np.nonzero(fq)[0]:
        blocks[j, 3] = -_mult_matrix(ctx, int(fq[j]))
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, 4 * d) % p


def graph_system_three_blocks(f, g):
    """The (n*deg) x (3*deg) F_p-matrix of g o (alpha*X + beta*f) - delta*f,
    gathered from the field tables one block column per unknown in
    (alpha, beta, delta); row k*deg + r is digit r of slot k, column
    u*deg + j the unknown u set to PP[j]."""
    ctx = f.ctx
    n, d = ctx.n, ctx.deg
    fq, gq = f.coeffs, g.coeffs
    frob_pp = ctx.FROB[:, ctx.PP]  # frob_pp[i, j] = PP[j]^(q^i)
    coef = composition_terms(ctx, gq, fq)
    beta = ctx.DIGITS[ctx.mul_vec(coef[:, :, None], frob_pp[:, None, :])].sum(axis=0)
    alpha = ctx.DIGITS[ctx.mul_vec(gq[:, None], frob_pp)]
    delta = -ctx.DIGITS[ctx.mul_vec(fq[:, None], ctx.PP)].astype(np.int64)
    # blocks[k, u, j, r]: digit r of slot k for unknown u at PP[j]
    blocks = np.stack([alpha, beta, delta], axis=1)
    return blocks.transpose(0, 3, 1, 2).reshape(n * d, 3 * d) % ctx.p


def graph_maps_three_blocks(f, g):
    """All (alpha, beta, gamma, delta) with g o (alpha*X + beta*f) = gamma*X + delta*f,
    as an (N, 4) array: (alpha, beta, delta) is the kernel (`nullspace_loop`)
    of the rows of `graph_system_three_blocks` outside slot 0, and gamma is
    slot 0 of the image."""
    ctx = f.ctx
    d, p = ctx.deg, ctx.p
    mat = graph_system_three_blocks(f, g)
    basis = nullspace_loop(mat[d:], p)
    _refuse_above_bound(p, basis.shape[1])
    basis = np.concatenate([basis[: 2 * d], mat[:d] @ basis % p, basis[2 * d:]])
    return ctx.from_digits_vec(gflinalg.span_vectors(basis, p).reshape(-1, 4, d))


def field_row_echelon_loop(ctx, rows):
    """Rank of the rows over the top field, by Gauss-Jordan elimination with
    one scalar test per entry."""
    m = [np.array(r, dtype=np.int64) for r in rows]
    nrow = len(m)
    ncol = m[0].size if nrow else 0
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = ctx.scale_vec(ctx.inv(int(m[r][c])), m[r])
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                factor = ctx.neg(int(m[i][c]))
                m[i] = ctx.add_vec(m[i], ctx.scale_vec(factor, m[r]))
        r += 1
        if r == nrow:
            break
    return r


def sigma_image_loop(space, power=1):
    """The image of a ProjSubspace under `power` single collineation steps."""
    ctx = space.ctx
    eqs = [e.copy() for e in space.equations]
    for _ in range(power % ctx.n):
        eqs = [np.roll(ctx.frob_vec(e, space.s), 1) for e in eqs]
    return type(space)(ctx, space.s, eqs)


def intersection_number_from_scratch(gamma, check_position=True):
    """Least positive g with dim(gamma ^ gamma^sigma ^ ... ^ gamma^sigma^g)
    above dim(gamma) - 2g, every chain eliminated anew; the position checks
    use `meets_subgeometry_all_points`."""
    ctx = gamma.ctx

    def dim(spaces):
        rows = [e for sp in spaces for e in sp.equations]
        return ctx.n - field_row_echelon_loop(ctx, rows) - 1

    if check_position:
        axis = [np.eye(ctx.n, dtype=np.int64)[i] for i in range(2, ctx.n)]
        if ctx.n - field_row_echelon_loop(ctx, list(gamma.equations) + axis) - 1 >= 0:
            raise ValueError("vertex meets the axis line")
        if meets_subgeometry_all_points(gamma):
            raise ValueError("vertex meets the canonical subgeometry")
    k = dim([gamma])
    chain = [gamma]
    for g in range(1, ctx.n + 2):
        chain.append(chain[-1].sigma_image())
        if dim(chain) > k - 2 * g:
            return g
    raise RuntimeError("intersection number failed to stabilize")


def csv_lines_writer(records):
    """The CSV rows of a `sweep.Records` through `csv.writer`, one row at a
    time with the tag names looked up per row, as one string."""
    out = io.StringIO()
    m, h, norm, case, prior, scattered, size = (col.tolist() for col in records[:7])
    csv.writer(out).writerows(zip(m, h, norm, map(CASES.__getitem__, case),
                                  map(PRIORS.__getitem__, prior), scattered, size))
    return out.getvalue()
