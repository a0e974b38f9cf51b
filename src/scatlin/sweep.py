"""Exhaustive (m, h) sweeps over the four-term family at desk scale.

Every sweep reduces the arrays of one grid builder, `pair_grid`, over flat
pair arrays (M, H).  Tags: the case and prior codes are those of
`quadrinomial.condition_tags`, the one statement of the condition rules;
`condition_pairs` reads one row of it per class of m.  Profiles: the
coefficient logs of `quadrinomial.family_terms`, the one statement of the
family's rule, are grouped by the family's own q-exponent supports.  The
profile is shared by every scaling mu*f(lambda*X) and p-power twist of f,
so per support one `scattered.fiber_profiles` call profiles one row per
`scattered.orbit_codes` code, each at one point per F_q*-class.
`classify_sweep` returns its records as columns (`Records`): the grid's
arrays in canonical (m, h) order and a sparse map of witnesses, with no
per-pair object; `cli._emit_lines` writes the JSON lines from them.
`classify_record` builds the same record as a dict for one pair.

The classification sweep reports every disagreement between "conditions
apply" and "scattered" as a datum (a scattered pair outside the conditions
would refute the only-if direction of the expected characterization).  A
sweep given a `stats` dict writes its kernel calls (`profiles`), the
distinct scaling keys of its code pass (`keys`) and its polynomials
(`polynomials`) there, outside its report.  Reports read no clock, so a
repeated call returns the same report; callers time a sweep themselves.
Every sweep builds one grid in one process.  Polynomials depend on h only
through two power ratios, so h and lambda*h give one member for every
base-field scalar lambda; the sweeps can deduplicate h by these orbits.
"""

from __future__ import annotations

from collections import namedtuple
import numpy as np

from .fieldcore import FieldCtx
from .quadrinomial import (CASES, PRIORS, QuadParams, build_quadrinomial, condition_rows,
                           condition_tags, family_terms, nonscattered_witness, prior_family_tag,
                           scattered_conditions, trace_zero_power_set, witness_range)
from .scattered import (fiber_profile, fiber_profiles, is_scattered_fiber, is_scattered_roots,
                        orbit_codes)

SCHEMA_VERSION = 1

# Always empty; perfbench clears it in every workload set-up.
_FIBER_CACHE: dict = {}


def quad_fiber_profile(params: QuadParams):
    """(linear set size, scattered) for one family member."""
    return fiber_profile(build_quadrinomial(params))


def h_class_reps(ctx: FieldCtx) -> np.ndarray:
    """Smallest index per base-field-scalar orbit of nonzero h: the orbit of
    g^k is g^(k + j*d), d = order/(q-1), a column of EXP read as (q-1) x d."""
    return np.sort(ctx.EXP[:ctx.order].reshape(ctx.q - 1, -1).min(axis=0))


def classify_record(params: QuadParams, with_witness: bool = True) -> dict:
    """One classification record, pair by pair."""
    n_points, scattered = quad_fiber_profile(params)
    rec = {
        "m": int(params.m),
        "h": int(params.h),
        "norm_h": int(params.norm_h),
        "case_tag": scattered_conditions(params).case_tag,
        "prior_tag": prior_family_tag(params),
        "scattered": bool(scattered),
        "linear_set_size": n_points,
    }
    if with_witness:
        in_range = witness_range(params.ctx, params.h)
        rec["witness"] = nonscattered_witness(params) if in_range else None
    return rec


# per-pair arrays of `pair_grid` (size and scattered: one row per form), the
# number of kernel calls (orbit representatives) and of distinct scaling keys
Grid = namedtuple("Grid", "norm_h case prior size scattered calls keys")


def pair_grid(ctx: FieldCtx, s: int, M, H, forms=(False,)) -> Grid:
    """Tags of every pair (M[i], H[i]), and the fiber profile in each form.

    `forms` lists the orderings to profile (False main, True swapped).  Per
    support of `_family_supports`, the code pass reduces the rows to scaling
    keys and the keys to orbit codes, and one `fiber_profiles` call profiles
    the first row of every code; `calls` counts those and `keys` the keys.
    """
    M, H = np.asarray(M, dtype=np.int64), np.asarray(H, dtype=np.int64)
    case, prior, norm = condition_tags(ctx, s, M, H)
    size, scattered = np.zeros((2, len(forms), M.size), dtype=np.int64)
    calls = keys = 0
    # codes compare only within one support
    for exps, rows, logs in _family_supports(ctx, s, M, H, forms):
        if not rows.size:
            continue
        support = tuple(exps.tolist())
        codes, distinct = orbit_codes(ctx, support, logs)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        sizes, verdicts = fiber_profiles(ctx, support, logs[first])
        size.flat[rows] = sizes[inverse]
        scattered.flat[rows] = verdicts[inverse]
        calls += first.size
        keys += distinct
    return Grid(norm, case, prior, size, scattered != 0, calls, keys)


def _family_supports(ctx: FieldCtx, s: int, M, H, forms) -> list:
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


def _product(ms, hs):
    """(M, H) over ms x hs in (m, h) order."""
    return np.repeat(ms, hs.size), np.tile(hs, ms.size)


def _pairs_where(M, H, mask) -> list:
    return list(zip(M[mask].tolist(), H[mask].tolist()))


def _counts(names, codes) -> dict:
    """{name: count} in order of first appearance."""
    seen, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return {names[seen[i]]: int(counts[i]) for i in np.argsort(first)}


def _head(ctx: FieldCtx, s: int, stats, grid: Grid) -> dict:
    """Report head; the grid's kernel calls, scaling keys and polynomials go
    to `stats`."""
    if stats is not None:
        stats.update(profiles=grid.calls, keys=grid.keys, polynomials=grid.scattered.size)
    return {"schema_version": SCHEMA_VERSION, "p": ctx.p, "e": ctx.e, "t": ctx.t, "s": s}


# columns of the classification records, one row per pair; `witness` maps
# a row in the witness range to its witness (rows outside it have none), or
# is None when no witnesses were asked for
Records = namedtuple("Records", "m h norm_h case prior scattered linear_set_size witness",
                     defaults=(None,))


def classify_sweep(ctx: FieldCtx, s: int, h_dedup: bool = False, with_witness: bool = True,
                   stats: dict | None = None) -> tuple:
    """Full grid sweep; returns (records, summary).

    `records` is a `Records` of columns in canonical (m index, h index)
    order: the grid's own arrays, with case and prior as codes into `CASES`
    and `PRIORS`, and witnesses computed only for the rows in
    `witness_range`.  No per-pair object is built; `cli._emit_lines` writes
    the JSON lines from the columns, and the summary reads the same arrays.
    """
    hs = h_class_reps(ctx) if h_dedup else ctx.nonzero_elements()
    M, H = _product(ctx.subfield(ctx.t), hs)
    grid = pair_grid(ctx, s, M, H)
    scattered = grid.scattered[0]
    witness = None
    if with_witness:
        witness = {i: nonscattered_witness(QuadParams(ctx, s, int(M[i]), int(H[i])))
                   for i in np.flatnonzero(witness_range(ctx, H)).tolist()}
    records = Records(M, H, grid.norm_h, grid.case, grid.prior, scattered, grid.size[0],
                      witness)
    applies = grid.case != 0
    return records, {
        **_head(ctx, s, stats, grid),
        "h_dedup": h_dedup,
        "pairs": int(M.size),
        "scattered": int(scattered.sum()),
        "condition_applies": int(applies.sum()),
        "case_counts": _counts(CASES, grid.case),
        "prior_counts": _counts(PRIORS, grid.prior),
        "violations_applies_not_scattered": _pairs_where(M, H, applies & ~scattered),
        "conjecture_data_scattered_not_applies": _pairs_where(M, H, ~applies & scattered),
    }


def condition_pairs(ctx: FieldCtx, s: int):
    """All (m, h) where the sufficient conditions apply, in
    (case, m, norm_h != 1, h) order."""
    ms, hs = ctx.subfield(ctx.t), ctx.nonzero_elements()
    cls, (case, _, norm) = condition_rows(ctx, s, ms, hs)
    i, j = np.nonzero(case[cls])   # ms and hs are sorted: i and j order as m and h do
    order = np.lexsort((j, norm[j] != 1, i, case[cls[i], j]))
    return _pairs_where(ms[i[order]], hs[j[order]], slice(None))


def sufficiency_sweep(ctx: FieldCtx, s: int, roots_sample: int = 0, seed: int = 0,
                      stats: dict | None = None) -> dict:
    """Every pair satisfying the sufficient conditions must be scattered.

    Runs the fiber oracle on all such pairs and, optionally, the independent
    roots oracle on a seeded sample, cross-checked against a fresh fiber
    count.  Returns counts and any violations.
    """
    pairs = condition_pairs(ctx, s)
    M, H = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    grid = pair_grid(ctx, s, M, H)
    bad = ~grid.scattered[0]
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(pairs), size=min(roots_sample, len(pairs)), replace=False)
    members = [(pairs[i], build_quadrinomial(QuadParams(ctx, s, *pairs[i])))
               for i in sorted(sample.tolist())]
    return {
        **_head(ctx, s, stats, grid),
        "pairs_checked": len(pairs),
        "case_counts": _counts(CASES, grid.case),
        "violations": [(m, h, CASES[c]) for m, h, c in
                       zip(M[bad].tolist(), H[bad].tolist(), grid.case[bad].tolist())],
        "roots_oracle_checked": len(members),
        "roots_oracle_disagreements": [mh for mh, f in members
                                       if is_scattered_fiber(f) != is_scattered_roots(f)],
    }


def bad_power_set_sweep(ctx: FieldCtx, s: int, stats: dict | None = None) -> dict:
    """Every m in the minus power set with h in the witness range must fail
    scatteredness, with a verified constructive witness."""
    mid = ctx.subfield(ctx.t)
    M, H = _product(trace_zero_power_set(ctx, s, -1), mid[witness_range(ctx, mid)])
    grid = pair_grid(ctx, s, M, H)
    failures = []
    for m, h, scattered in zip(M.tolist(), H.tolist(), grid.scattered[0].tolist()):
        if scattered:
            failures.append((m, h, "scattered"))
        else:  # m is in the minus power set: a witness, or RuntimeError
            nonscattered_witness(QuadParams(ctx, s, m, h))
    return {
        **_head(ctx, s, stats, grid),
        "pairs_checked": int(M.size),
        "witnesses_verified": int(M.size) - len(failures),
        "failures": failures,
    }


def conjecture_scan(ctx: FieldCtx, s: int, h_dedup: bool = True,
                    stats: dict | None = None) -> dict:
    """Scattered-versus-conditions comparison for both exponent orderings.

    The swapped ordering exchanges the roles of the t-1 and t+1 exponents;
    the scan reports mismatch lists for each form so either reading of the
    expected characterization can be examined from the same artifact.
    """
    hs = h_class_reps(ctx) if h_dedup else ctx.nonzero_elements()
    M, H = _product(ctx.subfield(ctx.t), hs)
    grid = pair_grid(ctx, s, M, H, forms=(False, True))
    applies = grid.case != 0
    main, swapped = ([(m, h, a, not a) for m, h, a in
                      zip(M[off].tolist(), H[off].tolist(), applies[off].tolist())]
                     for off in grid.scattered != applies)
    return {
        **_head(ctx, s, stats, grid),
        "h_dedup": h_dedup,
        "counts": {"pairs": int(M.size), "scattered_main": int(grid.scattered[0].sum()),
                   "scattered_swapped": int(grid.scattered[1].sum()),
                   "applies": int(applies.sum())},
        "mismatches_main_ordering": main,
        "mismatches_swapped_ordering": swapped,
        # m = 0 degenerates to the trailing binomial, which the conditions
        # never cover but which can be scattered off the norm range; the
        # nonzero-m splits isolate the family proper
        "nonzero_m_mismatches_main": sum(1 for r in main if r[0] != 0),
        "nonzero_m_mismatches_swapped": sum(1 for r in swapped if r[0] != 0),
    }
