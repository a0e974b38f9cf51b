import json
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from scatlin import quadrinomial, sweep
from scatlin.cli import _record_lines
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly
from scatlin.quadrinomial import QuadParams, build_quadrinomial, family_slots
from scatlin.scattered import fiber_profile, orbit_codes, profile_key, scaling_lattice
from scatlin.sweep import (
    classify_sweep,
    classify_record,
    condition_pairs,
    sufficiency_sweep,
    bad_power_set_sweep,
    conjecture_scan,
    h_class_reps,
)


def test_h_class_reps(f33):
    reps = h_class_reps(f33)
    assert reps.size == 728 // 2
    # one representative per scalar orbit, always the smallest index
    seen = set()
    for h in reps:
        orbit = {int(h), f33.mul(2, int(h))}
        assert not (orbit & seen)
        assert int(h) == min(orbit)
        seen |= orbit
    assert len(seen) == 728


def test_condition_pairs_match_predicate(f33, f53):
    for ctx in (f33, f53):
        pairs = set(condition_pairs(ctx, 1))
        mid = ctx.subfield(ctx.t)
        for m in mid[:6]:
            for h in range(1, 40):
                case = reference.scattered_conditions_branches(QuadParams(ctx, 1, int(m), h))
                assert ((int(m), h) in pairs) == (case != "none")


def _lines(records, summary):
    """The record and summary lines of a classify artifact."""
    return [*_record_lines(records), json.dumps(summary) + "\n"]


def test_record_schema_roundtrips(f33):
    rec = classify_record(QuadParams(f33, 1, 0, 5))
    again = json.loads(json.dumps(rec))
    assert again == rec
    assert set(rec) == {
        "m", "h", "norm_h", "case_tag", "prior_tag", "scattered",
        "linear_set_size", "witness",
    }


def test_classify_sweep_summary(f33):
    records, summary = classify_sweep(f33, 1, h_dedup=True)
    assert summary["pairs"] == 27 * 364
    assert summary["violations_applies_not_scattered"] == []
    # conditions cover the IIa block only at this size
    assert summary["case_counts"].get("IIa", 0) == 182
    # scattered pairs outside the conditions all sit at m = 0
    assert all(m == 0 for m, _ in summary["conjecture_data_scattered_not_applies"])
    assert records.m.size == summary["pairs"]
    order = np.lexsort((records.h, records.m))
    assert (order == np.arange(summary["pairs"])).all()


@pytest.mark.parametrize("s", [1, 5])
def test_classify_record_matches_the_sweep_line(f33, s):
    """`classify_record` of a pair is the line the sweep writes for it: every
    row in the witness range and a seeded sample of the others."""
    records, _ = classify_sweep(f33, s, h_dedup=True)
    lines = list(_record_lines(records))
    rng = np.random.default_rng(s)
    rows = sorted(set(records.witness) | set(rng.choice(len(lines), 60, replace=False).tolist()))
    # h = 1 is the one h-deduped representative of {h in F_27 : h^4 = 1} = {1, -1}
    assert len(records.witness) == 27
    for i in rows:
        rec = classify_record(QuadParams(f33, s, int(records.m[i]), int(records.h[i])))
        assert json.dumps(rec) + "\n" == lines[i]


def test_sufficiency_sweep_all_steps(f33):
    for s in (1, 5, 7, 11):
        rep = sufficiency_sweep(f33, s)
        assert rep["pairs_checked"] == 364
        assert rep["violations"] == []


def test_bad_power_set_sweep(f33):
    rep = bad_power_set_sweep(f33, 1)
    assert rep["failures"] == []
    assert rep["pairs_checked"] == 28
    assert rep["witnesses_verified"] == 28


def test_conjecture_scan_nonzero_m_clean(f33):
    rep = conjecture_scan(f33, 1, h_dedup=True)
    assert rep["nonzero_m_mismatches_main"] == 0
    # the swapped exponent ordering does not match the conditions
    assert rep["nonzero_m_mismatches_swapped"] > 0


@pytest.mark.parametrize("s", [1, 5])
def test_sweeps_match_per_pair_reference(f33, s):
    """All four sweeps equal their per-pair form, in which every pair gets
    its own tags and every polynomial its own fiber count, key order and
    JSON types included; the kernel runs once per orbit, and the twist
    minimum of the code pass once per scaling key."""
    stats = [{} for _ in range(4)]
    fast = [
        sweep.classify_sweep(f33, s, h_dedup=True, stats=stats[0]),
        sweep.conjecture_scan(f33, s, stats=stats[1]),
        sweep.sufficiency_sweep(f33, s, roots_sample=2, seed=s, stats=stats[2]),
        sweep.bad_power_set_sweep(f33, s, stats=stats[3]),
    ]
    slow = [
        reference.classify_sweep_pairs(f33, s, h_dedup=True),
        reference.conjecture_scan_pairs(f33, s),
        reference.sufficiency_sweep_pairs(f33, s, roots_sample=2, seed=s),
        reference.bad_power_set_sweep_pairs(f33, s),
    ]
    records, summary = slow[0]
    assert _lines(*fast[0]) == [json.dumps(r) + "\n" for r in records + [summary]]
    assert [json.dumps(r) for r in fast[1:]] == [json.dumps(r) for r in slow[1:]]
    assert stats == [{"profiles": c, "keys": k, "polynomials": n}
                     for c, k, n in ((139, 741, 9828), (260, 1414, 2 * 9828), (3, 14, 364),
                                     (2, 2, 28))]


def test_sweeps_are_identical_across_calls(f33):
    """No sweep report reads the clock: two calls give the same JSON."""
    calls = [
        lambda: _lines(*sweep.classify_sweep(f33, 1, h_dedup=True, with_witness=False)),
        lambda: sweep.conjecture_scan(f33, 1),
        lambda: sweep.sufficiency_sweep(f33, 1, roots_sample=2),
        lambda: sweep.bad_power_set_sweep(f33, 1),
    ]
    for call in calls:
        assert json.dumps(call()) == json.dumps(call())


def test_condition_pairs_match_the_filtered_grid(f33):
    for s in (1, 5):
        assert condition_pairs(f33, s) == reference.condition_pairs_grid(f33, s)


def test_condition_pairs_match_the_filtered_grid_at_34(f34):
    """Even t: case I only, read off the rows of one `condition_rows` pass."""
    assert condition_pairs(f34, 3) == reference.condition_pairs_grid(f34, 3)


def test_conditions_hold_on_every_53_condition_pair(f53):
    """The grid's case codes against the branch rules on all 7,812 pairs."""
    pairs = condition_pairs(f53, 1)
    M, H = np.array(pairs).T
    cases = sweep.pair_grid(f53, 1, M, H, forms=()).case
    assert len(pairs) == 7812
    for (m, h), case in zip(pairs, cases.tolist()):
        params = QuadParams(f53, 1, m, h)
        assert reference.scattered_conditions_branches(params) == sweep.CASES[case] != "none"


def test_classify_shard_matches_per_pair_reference_on_seeded_34_rows(f34):
    """A seeded 3-row m slice of the h-deduped (3,4) grid, built on its own:
    the lines written from its columns are the reference records."""
    rng = np.random.default_rng(34)
    s = int(rng.choice([1, 3, 5, 7]))
    ms = np.sort(rng.choice(f34.subfield(4), 3, replace=False))
    hs = h_class_reps(f34)
    M, H = np.repeat(ms, hs.size), np.tile(hs, ms.size)
    grid = sweep.pair_grid(f34, s, M, H)
    records = sweep.Records(M, H, grid.norm_h, grid.case, grid.prior, grid.scattered[0],
                            grid.size[0])
    assert list(_record_lines(records)) == [
        json.dumps(reference.record_pairs(QuadParams(f34, s, m, h), with_witness=False)) + "\n"
        for m, h in zip(M.tolist(), H.tolist())]


def test_tags_read_step_s_cases_and_step_1_szz(f33, monkeypatch):
    """The cases use the power sets at step s and SZZ those at step 1.  Both
    coincide at every tower tried, so the step-5 sets are thinned here to
    tell them apart; the tags must still follow the branch rules.  A fresh
    cache keeps the class tables built from the real sets out of reach."""
    real = quadrinomial.trace_zero_power_set

    def thinned(ctx, s, sign):
        sets = real(ctx, s, sign)
        return sets if s % ctx.n == 1 else sets[:-1]

    monkeypatch.setattr(quadrinomial, "_POWER_SET_CACHE", {})
    for module in (quadrinomial, sweep, reference):
        monkeypatch.setattr(module, "trace_zero_power_set", thinned)
    params = [QuadParams(f33, 5, int(m), h) for m in f33.subfield(3) for h in range(1, f33.size)]
    grid = sweep.pair_grid(f33, 5, [p.m for p in params], [p.h for p in params], forms=())
    tags = list(zip((sweep.CASES[c] for c in grid.case), (sweep.PRIORS[c] for c in grid.prior)))
    assert tags == [(reference.scattered_conditions_branches(p),
                     reference.prior_family_tag_branches(p)) for p in params]
    assert ("none", "SZZ") not in tags


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.integers(0, 2 ** 32 - 1))
def test_pair_grid_matches_the_per_orbit_loop(tower, seed):
    """Both forms of a seeded three-m slice of the h-deduped grid (m = 0 in
    half the draws) at a seeded step: the batched profiles equal one
    `LinPoly` and one `fiber_profile` per orbit, with as many orbits."""
    ctx = make_field(*tower)
    rng = np.random.default_rng(seed)
    s = int(rng.choice([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    mids = ctx.subfield(ctx.t)
    ms = np.sort(rng.choice(mids[rng.integers(2):], 3, replace=False))
    M, H = sweep._product(ms, h_class_reps(ctx))
    grid = sweep.pair_grid(ctx, s, M, H, forms=(False, True))
    size, scattered, calls = reference.pair_profiles_per_orbit(ctx, s, M, H, forms=(False, True))
    assert np.array_equal(grid.size, size)
    assert np.array_equal(grid.scattered, scattered)
    assert grid.calls == calls


def _steps(ctx):
    return [s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]


@pytest.mark.parametrize("tower", [(3, 1, 3), (3, 1, 4), (5, 1, 3)])
def test_scaling_lattices_match_the_brute_force_grid(tower):
    """At every step, in both forms, on the four-term support and on the
    m = 0 one: alpha and beta follow the family's rule, and the lattice of
    `scaling_lattice` holds exactly the (a, l), a < q^t - 1, l < order, on
    which l*beta and -a*alpha have one scaling key."""
    ctx = make_field(*tower)
    order, period = ctx.order, ctx.q ** ctx.t - 1
    a, l = np.arange(period)[:, None], np.arange(order)[None, :]
    for s in _steps(ctx):
        for swapped in (False, True):
            exps, times_m, alpha, beta = sweep._log_parts(ctx, s, swapped)
            rule = sorted(family_slots(ctx.t, swapped), key=lambda term: s * term[0] % ctx.n)
            assert alpha.tolist() == [(period + 2) * times for _, times, _, _ in rule]
            assert beta.tolist() == [(1 - ctx.q ** (s * k % ctx.n)) % order for *_, k in rule]
            for terms in (slice(None), ~times_m):
                support = tuple(exps[terms].tolist())
                A, B, D = scaling_lattice(ctx, support, alpha[terms], beta[terms])
                grid = reference.scaling_lattice_grid(ctx, support, alpha[terms], beta[terms],
                                                      period)
                assert 0 <= B < D and period % A == 0
                assert np.array_equal(grid, (a % A == 0) & ((l - a // A * B) % D == 0))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.booleans(),
       st.sampled_from([(False,), (True,), (False, True)]), st.integers(0, 2 ** 32 - 1))
def test_pair_grid_matches_the_per_row_code_pass(tower, h_dedup, forms, seed):
    """The coset pass against the row pass it replaced, at a seeded step on
    every m of (3,3), or on three m of (3,4) (m = 0 among them in half the
    draws), with h deduplicated or not: the codes agree row by row, and so
    do the sizes, verdicts, kernel calls and key counts."""
    ctx = make_field(*tower)
    rng = np.random.default_rng(seed)
    s = int(rng.choice(_steps(ctx)))
    mids = ctx.subfield(ctx.t)
    if ctx.t == 4:
        mids = np.sort(rng.choice(mids[rng.integers(2):], 3, replace=False))
    M, H = sweep._product(mids, h_class_reps(ctx) if h_dedup else ctx.nonzero_elements())
    _assert_code_passes_agree(ctx, s, M, H, forms)
    grid = sweep.pair_grid(ctx, s, M, H, forms)
    size, scattered, calls, keys = reference.pair_grid_per_row(ctx, s, M, H, forms)
    assert np.array_equal(grid.size, size) and np.array_equal(grid.scattered, scattered)
    assert (grid.calls, grid.keys) == (calls, keys)


@pytest.mark.parametrize("tower", [(7, 1, 3), (3, 2, 3)])
def test_code_pass_matches_orbit_codes_on_seeded_rows(tower):
    """2,000 seeded pairs in both forms at steps 1 and 5 (every tenth m is 0):
    each row's code is the `orbit_codes` code of its own logs.  Codes are
    canonical, so comparing a sample is exact."""
    ctx = make_field(*tower)
    rng = np.random.default_rng(tower[0] * 10 + tower[1])
    M = rng.choice(ctx.subfield(ctx.t)[1:], 2000)
    M[::10] = 0
    H = rng.integers(1, ctx.size, 2000)
    for s in (1, 5):
        _assert_code_passes_agree(ctx, s, M, H, (False, True))


def _assert_code_passes_agree(ctx, s, M, H, forms):
    """`sweep._code_pass` and the row pass give the same supports, rows,
    code of every row and key counts."""
    passes = list(sweep._code_pass(ctx, s, M, H, forms))
    rows_pass = reference.code_pass_per_row(ctx, s, M, H, forms)
    assert len(passes) == len(rows_pass)
    for (support, rows, codes, code, _, keys), ref in zip(passes, rows_pass):
        assert (support, keys) == (ref[0], ref[3])
        assert np.array_equal(rows, ref[1]) and np.array_equal(codes[code], ref[2])


# `stats` of one h-deduped s = 1 `classify_sweep` at larger towers: kernel
# calls, distinct scaling keys, polynomials; recorded before the code pass
# numbered the keys by scaling-lattice coset
CLASSIFY_STATS = {(3, 1, 4): (1703, 13160, 265680), (5, 1, 3): (2667, 15655, 488250)}


@pytest.mark.parametrize("tower", sorted(CLASSIFY_STATS))
def test_larger_classify_stats_are_pinned(tower):
    stats = {}
    classify_sweep(make_field(*tower), 1, h_dedup=True, with_witness=False, stats=stats)
    assert tuple(stats.values()) == CLASSIFY_STATS[tower]
    assert list(stats) == ["profiles", "keys", "polynomials"]


def _orbit_code(f):
    ctx = f.ctx
    support = np.flatnonzero(f.coeffs)
    logs = ctx.LOG[f.coeffs[support]]
    return int(orbit_codes(ctx, tuple(support.tolist()), logs[None, :])[0][0])


def test_orbit_codes_match_fiber_profile_on_seeded_34_orbits(f34):
    """Seeded members at (3,4), each with three scaled and twisted images:
    the images share the member's orbit code and fiber profile."""
    rng = np.random.default_rng(34)
    mids = f34.subfield(4)
    for _ in range(40):
        s = int(rng.choice([1, 3, 5, 7]))
        f = build_quadrinomial(QuadParams(f34, s, int(rng.choice(mids)),
                                          int(rng.integers(1, f34.size))))
        for _ in range(3):
            lam, mu = (int(x) for x in rng.integers(1, f34.size, 2))
            image = f.compose(LinPoly.from_terms(f34, s, {0: lam})).scale(mu)
            image = image.frobenius_twist(int(rng.integers(f34.deg)))
            assert _orbit_code(image) == _orbit_code(f)
            assert fiber_profile(image) == fiber_profile(f)


def test_orbit_codes_separate_the_twisted_scaling_classes(f33):
    """On seeded nonzero-m members of the (3,3) grid, one code per class of
    the smallest `profile_key` over the p-power twists."""
    rng = np.random.default_rng(33)
    mids, reps = f33.subfield(3)[1:], h_class_reps(f33)
    fs = [build_quadrinomial(QuadParams(f33, 1, int(rng.choice(mids)), int(rng.choice(reps))))
          for _ in range(300)]
    codes = [_orbit_code(f) for f in fs]
    classes = [min(profile_key(f.frobenius_twist(j)) for j in range(f33.deg)) for f in fs]
    assert len(set(codes)) == len(set(zip(codes, classes))) == len(set(classes)) > 20
