from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from scatlin.fieldcore import DirectSumError, make_field
from scatlin.linpoly import LinPoly
from scatlin.scattered import is_scattered_fiber
from scatlin.quadrinomial import (
    QuadParams,
    build_quadrinomial,
    build_quadrinomial_swapped,
    trace_zero_power_set,
    power_set_sizes,
    power_sets_step_independent,
    scattered_conditions,
    prior_family_tag,
    split_maps,
    image_characterizations,
    decompose,
    basis_components,
    multiplier_equivalences,
    ratio_in_trace_kernel,
    h_power_report,
    in_minus_power_set,
    nonscattered_witness,
    run_property_suite,
    admissible_h,
    condition_rows,
    condition_tags,
    family_terms,
    quad_coeffs,
)
from scatlin.sweep import pair_grid


def h_with_norm(ctx, value, count=None):
    hs = ctx.nonzero_elements()
    norms = ctx.pow_vec(hs, ctx.order // (ctx.q ** ctx.t - 1))
    out = hs[norms == value]
    return out if count is None else out[:count]


def first_case_pair(ctx, s=1):
    from scatlin.sweep import condition_pairs

    return condition_pairs(ctx, s)[0]


# -- construction -------------------------------------------------------------


def test_reduced_form_for_unit_h(f33):
    m = int(f33.subfield(3)[5])
    f = build_quadrinomial(QuadParams(f33, 1, m, 1))
    t = f33.t
    expected = LinPoly.from_terms(
        f33, 1, {1: m, t + 1: f33.neg(m), t - 1: 1, 2 * t - 1: 1}
    )
    assert f == expected
    # any base-field h gives the same polynomial
    assert build_quadrinomial(QuadParams(f33, 1, m, 2)) == f


def test_four_nonzero_slots(f33):
    rng = np.random.default_rng(0)
    mids = f33.subfield(3)
    for _ in range(25):
        m = int(mids[rng.integers(1, 27)])
        h = int(rng.integers(1, 729))
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        assert len(f.support()) == 4


def test_base_field_scalar_orbit_gives_same_polynomial(f33):
    rng = np.random.default_rng(1)
    mids = f33.subfield(3)
    lam = 2  # the nontrivial base-field scalar
    for _ in range(20):
        m = int(mids[rng.integers(0, 27)])
        h = int(rng.integers(1, 729))
        f1 = build_quadrinomial(QuadParams(f33, 1, m, h))
        f2 = build_quadrinomial(QuadParams(f33, 1, m, f33.mul(lam, h)))
        assert f1 == f2


def test_square_root_of_minus_one_kills_middle_field(f33):
    hs = f33.nonzero_elements()
    h2 = f33.mul_vec(hs, hs)
    cands = hs[(h2 == f33.neg_one)]
    outside = [int(h) for h in cands if not f33.in_subfield(int(h), f33.t)]
    assert outside
    mid = f33.subfield(3)
    for h in outside:
        for m in mid:
            f = build_quadrinomial(QuadParams(f33, 1, int(m), h))
            assert (f.eval_vec(mid) == 0).all()
            assert not is_scattered_fiber(f)


def test_param_validation(f33):
    with pytest.raises(ValueError, match="middle field"):
        QuadParams(f33, 1, 4, 1)  # 4 is not fixed by the middle Frobenius
    for h in (0, -1, f33.size):  # -1 would wrap round to the last index
        with pytest.raises(ValueError, match="nonzero element index below 729"):
            QuadParams(f33, 1, 1, h)
    with pytest.raises(ValueError, match="coprime"):
        QuadParams(f33, 2, 1, 1)


# -- power sets ----------------------------------------------------------------


def test_power_set_sizes(f33, f35, f34):
    assert power_set_sizes(f33, 1)["plus_nonzero"] == 13
    assert power_set_sizes(f33, 1)["minus_nonzero"] == 13
    assert power_set_sizes(f35, 1)["plus_nonzero"] == 121
    assert power_set_sizes(f34, 1)["plus_nonzero"] == 20
    assert power_set_sizes(f34, 1)["minus_nonzero"] == 40


def test_power_sets_live_in_middle_field(f33):
    mid = set(f33.subfield(3).tolist())
    for sign in (+1, -1):
        ps = trace_zero_power_set(f33, 1, sign)
        assert 0 in ps
        assert set(ps.tolist()) <= mid


def test_power_sets_meet_in_zero(f33, f34, f35):
    for ctx in (f33, f34, f35):
        plus = trace_zero_power_set(ctx, 1, +1)
        minus = trace_zero_power_set(ctx, 1, -1)
        assert np.intersect1d(plus, minus).tolist() == [0]


def test_power_sets_step_independence(f33, f34):
    for s in (1, 5, 7, 11):
        assert power_sets_step_independent(f33, s)
    for s in (1, 3, 5, 7):
        assert power_sets_step_independent(f34, s)


# -- condition cases -----------------------------------------------------------


def test_case_iia_at_33(f33):
    plus = trace_zero_power_set(f33, 1, +1)
    m = int(plus[plus != 0][0])
    h = int(h_with_norm(f33, f33.neg_one)[0])
    v = scattered_conditions(QuadParams(f33, 1, m, h))
    assert v.applies and v.case_tag == "IIa"


def test_case_i_at_53(f53):
    plus = trace_zero_power_set(f53, 1, +1)
    minus = trace_zero_power_set(f53, 1, -1)
    mid = f53.subfield(3)
    outside = np.setdiff1d(mid, np.union1d(plus, minus))
    m = int(outside[0])
    h = int(h_with_norm(f53, 1)[0])
    v = scattered_conditions(QuadParams(f53, 1, m, h))
    assert v.applies and v.case_tag == "I"


def test_power_sets_cover_middle_field_at_q3_odd_t(f33, f35):
    # at q = 3 with odd t both power sets have (q^t - 1)/2 nonzero elements
    # and meet only in 0, so together they exhaust the middle field and the
    # outside-both case is vacuous
    for ctx in (f33, f35):
        plus = trace_zero_power_set(ctx, 1, +1)
        minus = trace_zero_power_set(ctx, 1, -1)
        union = np.union1d(plus, minus)
        assert union.size == ctx.q ** ctx.t


def test_case_iib_exists_at_73():
    from scatlin.fieldcore import make_field

    ctx = make_field(7, 1, 3)
    plus = trace_zero_power_set(ctx, 1, +1)
    minus = trace_zero_power_set(ctx, 1, -1)
    mid = ctx.subfield(3)
    outside = np.setdiff1d(mid, np.union1d(plus, minus))
    assert outside.size > 1
    hs = h_with_norm(ctx, 1)
    h = int(next(h for h in hs if ctx.mul(int(h), int(h)) != ctx.neg_one))
    v = scattered_conditions(QuadParams(ctx, 1, int(outside[1]), h))
    assert v.applies and v.case_tag == "IIb"
    assert is_scattered_fiber(build_quadrinomial(QuadParams(ctx, 1, int(outside[1]), h)))


def test_m_zero_never_applies(f33):
    for h in (1, 5, 100):
        assert scattered_conditions(QuadParams(f33, 1, 0, h)).case_tag == "none"


def test_prior_tags(f33, f53):
    # m = 1 with norm -1 outside the middle field
    h = int(
        next(
            h
            for h in h_with_norm(f33, f33.neg_one)
            if not f33.in_subfield(int(h), 3)
        )
    )
    assert prior_family_tag(QuadParams(f33, 1, 1, h)) == "LMTZ"
    # square root of -1 in the base field exists at q = 5
    i5 = int(next(x for x in f53.subfield(1) if f53.mul(int(x), int(x)) == f53.neg_one))
    assert prior_family_tag(QuadParams(f53, 1, 1, i5)) == "LZ-ZZ"
    # base-field h with m outside both power sets (m != 1 to dodge the
    # square-root-of-minus-one tag; 2^2 = -1 at q = 5)
    plus = trace_zero_power_set(f53, 1, +1)
    minus = trace_zero_power_set(f53, 1, -1)
    outside = np.setdiff1d(f53.subfield(3), np.union1d(plus, minus))
    m = int(next(x for x in outside if x not in (0, 1)))
    assert prior_family_tag(QuadParams(f53, 1, m, 2)) == "SZZ"
    # and a pair matching nothing
    assert prior_family_tag(QuadParams(f33, 1, 0, 5)) == "none"


F33, F34 = make_field(3, 1, 3), make_field(3, 1, 4)


@st.composite
def _pairs(draw):
    """A member at (3,3) or (3,4) with any step; m = 0, m = 1, h in F_q,
    h^2 = -1 and norm(h) = +-1 are drawn on purpose, as often as at random."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    hs = ctx.nonzero_elements()
    norms = ctx.pow_vec(hs, ctx.order // (ctx.q ** ctx.t - 1))
    special_h = [ctx.subfield(1)[1:], hs[ctx.mul_vec(hs, hs) == ctx.neg_one],
                 hs[(norms == 1) | (norms == ctx.neg_one)]]
    m = draw(st.one_of(st.sampled_from([0, 1]), st.sampled_from(ctx.subfield(ctx.t).tolist())))
    h = draw(st.one_of(*(st.sampled_from(x.tolist()) for x in special_h),
                       st.integers(1, ctx.size - 1)))
    return QuadParams(ctx, s, m, h)


@settings(max_examples=400, deadline=None)
@given(_pairs())
def test_one_pair_tags_match_the_branch_rules(params):
    verdict = scattered_conditions(params)
    assert verdict.case_tag == reference.scattered_conditions_branches(params)
    assert verdict.applies == (verdict.case_tag != "none")
    assert prior_family_tag(params) == reference.prior_family_tag_branches(params)


@st.composite
def _members(draw):
    """Pairs (M, H) at (3,3) or (3,4), at step 1 or n - 1, with m = 0 drawn
    as often as a random middle-field m."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([1, ctx.n - 1]))
    m = st.one_of(st.just(0), st.sampled_from(ctx.subfield(ctx.t).tolist()))
    ms = draw(st.lists(m, min_size=1, max_size=6))
    hs = draw(st.lists(st.integers(1, ctx.size - 1), min_size=len(ms), max_size=len(ms)))
    return ctx, s, ms, hs


@settings(max_examples=60, deadline=None)
@given(_members(), st.booleans())
def test_family_terms_match_the_scalar_rule(members, swapped):
    """`family_terms` on arrays, and `quad_coeffs` and the builder of the
    form on each pair, against the coefficients computed term by term."""
    ctx, s, ms, hs = members
    slots, times_m, logs = family_terms(ctx, s, np.array(ms), np.array(hs), swapped)
    assert (np.diff(s * np.array(slots) % ctx.n) > 0).all()
    build = build_quadrinomial_swapped if swapped else build_quadrinomial
    for m, h, row in zip(ms, hs, np.stack(logs, -1).tolist()):
        params = QuadParams(ctx, s, m, h)
        want = reference.quad_coeffs_scalar(params, swapped)
        assert quad_coeffs(params, swapped) == want
        assert {slot: 0 if carries and m == 0 else int(ctx.EXP[log])
                for slot, carries, log in zip(slots, times_m, row)} == want
        assert build(params) == LinPoly.from_terms(ctx, s, want)


def test_condition_tags_refuse_pairs_outside_the_family(f53):
    """h = 0, indices out of range and m off the middle field are refused,
    on scalars and arrays, by the calculus and the grid builder."""
    m = int(trace_zero_power_set(f53, 1, +1)[3])
    off = next(x for x in range(f53.size) if not f53.in_subfield(x, 3))
    bad = [(m, 0), (m, -1), (m, f53.size), (off, 1), (-1, 1), (f53.size, 1),
           (np.array([m, off]), np.array([1, 2])), (np.array([m, m]), np.array([1, 0]))]
    for M, H in bad:
        with pytest.raises(ValueError, match="F_"):
            condition_tags(f53, 1, M, H)
    with pytest.raises(ValueError, match="F_"):
        condition_rows(f53, 1, np.array([m, off]), f53.nonzero_elements())
    with pytest.raises(ValueError, match="F_"):
        pair_grid(f53, 1, [m], [0], forms=())
    assert [int(x) for x in condition_tags(f53, 1, m, 1)] == [0, 0, 1]


def test_one_pair_tags_match_the_branch_rules_on_seeded_73_pairs():
    """Case IIb needs q = 3 mod 4, t odd and m outside both power sets, so
    q >= 7: seeded (7,3) pairs, h drawn from norm +1, norm -1, F_q and
    h^2 = -1 in turn, reach it and SZZ."""
    ctx = make_field(7, 1, 3)
    rng = np.random.default_rng(73)
    hs = ctx.nonzero_elements()
    pools = [h_with_norm(ctx, 1), h_with_norm(ctx, ctx.neg_one), ctx.subfield(1)[1:],
             hs[ctx.mul_vec(hs, hs) == ctx.neg_one]]
    seen = set()
    for i in range(1000):
        params = QuadParams(ctx, int(rng.choice([1, 5])), int(rng.choice(ctx.subfield(3))),
                            int(rng.choice(pools[i % 4])))
        tags = (scattered_conditions(params).case_tag, prior_family_tag(params))
        assert tags == (reference.scattered_conditions_branches(params),
                        reference.prior_family_tag_branches(params))
        seen.add(tags)
    assert {("IIa", "none"), ("IIb", "none"), ("IIb", "SZZ"), ("none", "none")} <= seen


def _tags_per_pair(ctx):
    params = [QuadParams(ctx, 1, int(m), int(h))
              for m in ctx.subfield(ctx.t) for h in ctx.nonzero_elements()]
    return (np.array([prior_family_tag(p) != "none" for p in params]),
            np.array([scattered_conditions(p).applies for p in params]))


def _tags_on_grid(ctx):
    hs = ctx.nonzero_elements()
    mids = ctx.subfield(ctx.t)
    grid = pair_grid(ctx, 1, np.repeat(mids, hs.size), np.tile(hs, mids.size), forms=())
    return grid.prior != 0, grid.case != 0


@pytest.mark.parametrize("fixture, tags", [("f33", _tags_per_pair), ("f53", _tags_on_grid)],
                         ids=["f33", "f53"])
def test_prior_conditions_inside_new_conditions(fixture, tags, request):
    """Every previously settled parameter pair also satisfies the new cases,
    and the containment is strict: pair by pair at (3,3), on the sweep's tag
    arrays for the 1.95M pairs at (5,3)."""
    prior, applies = tags(request.getfixturevalue(fixture))
    assert applies[prior].all()
    assert (applies & ~prior).sum() > 0


# -- structural maps ------------------------------------------------------------


def test_split_and_direct_sums(f33):
    m, h = first_case_pair(f33)
    params = QuadParams(f33, 1, m, h)
    sp = split_maps(params)
    assert build_quadrinomial(params) == sp.lead.add(sp.tail)
    kl, kt = sp.lead_unit.kernel_set(), sp.tail.kernel_set()
    il, it = sp.lead_unit.image_set(), sp.tail.image_set()
    assert kl.size == kt.size == 27
    assert np.intersect1d(kl, kt).tolist() == [0]
    assert np.intersect1d(il, it).tolist() == [0]
    # scaled lead pair shares kernel and image with the unit one
    assert np.array_equal(sp.lead.kernel_set(), kl)
    assert np.array_equal(sp.lead.image_set(), il)


def test_image_characterizations_both_norms(f33, f53):
    m, h = first_case_pair(f33)
    assert image_characterizations(split_maps(QuadParams(f33, 1, m, h)))
    m5, h5 = first_case_pair(f53)
    assert image_characterizations(split_maps(QuadParams(f53, 1, m5, h5)))


def test_decompose(f33):
    rng = np.random.default_rng(2)
    m, h = first_case_pair(f33)
    params = QuadParams(f33, 1, m, h)
    sp = split_maps(params)
    kl, kt = sp.lead.kernel_set(), sp.tail.kernel_set()
    for x in kl[:5]:
        assert decompose(sp, int(x)) == (int(x), 0)
    for x in kt[:5]:
        assert decompose(sp, int(x)) == (0, int(x))
    for x in rng.integers(0, 729, 30):
        x1, x2 = decompose(sp, int(x))
        assert f33.add(x1, x2) == int(x)
        assert sp.lead.eval(x1) == 0 and sp.tail.eval(x2) == 0


def test_decompose_reports_degenerate_split(f33):
    # h outside the middle field with square -1 collapses both kernels
    hs = f33.nonzero_elements()
    h = int(
        next(
            h
            for h in hs[f33.mul_vec(hs, hs) == f33.neg_one]
            if not f33.in_subfield(int(h), 3)
        )
    )
    with pytest.raises(DirectSumError):
        decompose(split_maps(QuadParams(f33, 1, 1, h)), 5)


@st.composite
def _split_points(draw):
    """An admissible member at (3,3) or (3,4) with any step and m anywhere
    in F_{q^t}, m = 0 drawn as often as a random m, and an element x."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    m = draw(st.one_of(st.just(0), st.sampled_from(ctx.subfield(ctx.t).tolist())))
    h = draw(st.sampled_from(admissible_h(ctx).tolist()))
    return QuadParams(ctx, s, m, h), draw(st.integers(0, ctx.size - 1))


@settings(max_examples=80, deadline=None)
@given(_split_points())
def test_decompose_matches_the_per_params_reference(point):
    params, x = point
    assert decompose(split_maps(params), x) == reference.decompose_per_params(params, x)


def test_decompose_refuses_indices_outside_the_field(f33):
    m, h = first_case_pair(f33)
    sp = split_maps(QuadParams(f33, 1, m, h))
    for bad in (-1, 729):
        with pytest.raises(ValueError, match="outside"):
            decompose(sp, bad)


def test_basis_components_refuse_gamma_outside_the_field(f33):
    m, h = first_case_pair(f33)
    sp = split_maps(QuadParams(f33, 1, m, h))
    rho = int(sp.lead_mult.kernel_set()[1])
    for bad in (-1, 729):
        with pytest.raises(ValueError, match="outside"):
            basis_components(sp, bad, rho)


def test_ratio_in_trace_kernel_refuses_x2_outside_the_field(f33):
    h = next(int(h) for h in admissible_h(f33) if not f33.in_subfield(int(h), 3))
    sp = split_maps(QuadParams(f33, 1, 1, h))
    for bad in (-3, 729):
        with pytest.raises(ValueError, match="outside"):
            ratio_in_trace_kernel(sp, 0, bad)


def test_multiplier_kernels(f33):
    m, h = first_case_pair(f33)
    sp = split_maps(QuadParams(f33, 1, m, h))
    ker_r = sp.lead_mult.kernel_set()
    ker_t = sp.tail_mult.kernel_set()
    assert ker_r.size == 27 and ker_t.size == 27  # middle-field dimension one
    twist = f33.inv(int(sp.tail_mult.coeffs[0]))
    twisted = np.sort(f33.mul_vec(np.full(ker_r.size, twist), ker_r))
    assert np.array_equal(twisted, ker_t)


def test_multiplier_equivalences_exhaustive(f33, f53):
    m, h = first_case_pair(f33)
    assert multiplier_equivalences(split_maps(QuadParams(f33, 1, m, h)))
    m5, h5 = first_case_pair(f53)
    assert multiplier_equivalences(split_maps(QuadParams(f53, 1, m5, h5)))


def test_basis_components(f33):
    rng = np.random.default_rng(3)
    m, h = first_case_pair(f33)
    params = QuadParams(f33, 1, m, h)
    sp = split_maps(params)
    rho = int(next(k for k in sp.lead_mult.kernel_set() if k != 0))
    tau = f33.mul(f33.inv(int(sp.tail_mult.coeffs[0])), rho)
    # middle-field elements have trivial second coordinate
    for g0 in f33.subfield(3)[:5]:
        (l1, m1), (l2, m2) = basis_components(sp, int(g0), rho)
        assert (l1, m1) == (int(g0), 0) and (l2, m2) == (int(g0), 0)
    # gamma = rho is (0, 1) in the first basis
    (l1, m1), (l2, m2) = basis_components(sp, rho, rho)
    assert (l1, m1) == (0, 1) and m2 == 1
    # random gammas reconstruct in both bases
    for g in rng.integers(0, 729, 25):
        (l1, m1), (l2, m2) = basis_components(sp, int(g), rho)
        assert f33.add(l1, f33.mul(m1, rho)) == int(g)
        assert f33.add(l2, f33.mul(m2, tau)) == int(g)
    with pytest.raises(ValueError, match="kernel"):
        basis_components(sp, 5, 1)


def test_ratio_in_trace_kernel_exhaustive(f33):
    # both admissible norm classes, h outside the middle field
    hs = admissible_h(f33)
    hs = [int(h) for h in hs if not f33.in_subfield(int(h), 3)]
    norms = {f33.norm_rel(h, 3) for h in hs}
    assert norms == {1, f33.neg_one}
    for h in hs[:2] + hs[-2:]:
        params = QuadParams(f33, 1, 1, h)
        sp = split_maps(params)
        kl = sp.lead_unit.kernel_set()
        kt = sp.tail.kernel_set()
        for x1 in kl:
            for x2 in kt[kt != 0]:
                assert ratio_in_trace_kernel(sp, int(x1), int(x2))
    with pytest.raises(ValueError, match="nonzero"):
        ratio_in_trace_kernel(split_maps(QuadParams(f33, 1, 1, hs[0])), 1, 0)


def test_h_power_report_exhaustive(f33):
    from math import gcd

    assert gcd(3 ** 2 + 1, 3 ** 6 - 1) == 2
    for h in admissible_h(f33):
        rep = h_power_report(QuadParams(f33, 1, 0, int(h)))
        if rep["norm_sign"] == -1:
            assert rep["h_pow_q2s_plus_1_not_one"]
        else:
            assert rep["h_pow_q2s_plus_1_not_minus_one"]
        assert rep["no_frobenius_flip"]
        assert rep["gcd_q2s_plus_1_order"] == 2


# -- witnesses -------------------------------------------------------------------


def test_witness_for_minus_power_set(f33):
    minus = trace_zero_power_set(f33, 1, -1)
    for m in minus:
        for h in (1, f33.neg_one):
            params = QuadParams(f33, 1, int(m), h)
            w = nonscattered_witness(params)
            assert w is not None
            f = build_quadrinomial(params)
            assert not is_scattered_fiber(f)
            if w["kind"] == "ratio":
                x, y = w["x"], w["y"]
                assert f33.mul(f.eval(x), y) == f33.mul(f.eval(y), x)
                assert not f33.in_subfield(f33.div(x, y), 1)


@pytest.mark.parametrize("fixture", ["f33", "f34", "f53"])
def test_minus_set_reader_matches_the_power_set(fixture, request):
    ctx = request.getfixturevalue(fixture)
    mid = ctx.subfield(ctx.t)
    for s in (s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1):
        want = np.isin(mid, trace_zero_power_set(ctx, s, -1))
        assert np.array_equal(in_minus_power_set(ctx, s, mid), want)
        assert [bool(in_minus_power_set(ctx, s, int(m))) for m in mid[:5]] == want[:5].tolist()


def test_witness_none_outside_minus_set(f33):
    minus = trace_zero_power_set(f33, 1, -1)
    outside = np.setdiff1d(f33.subfield(3), minus)
    assert nonscattered_witness(QuadParams(f33, 1, int(outside[0]), 1)) is None


def test_witness_square_root_branch(f34):
    # t even: mid-field h with h^2 = -1 exists and the witness still lands
    minus = trace_zero_power_set(f34, 1, -1)
    mid = f34.subfield(4)
    h = int(
        next(
            x
            for x in mid[f34.mul_vec(mid, mid) == f34.neg_one]
            if not f34.in_subfield(int(x), 1)
        )
    )
    hits = 0
    for m in minus[minus != 0][:6]:
        params = QuadParams(f34, 1, int(m), h)
        w = nonscattered_witness(params)
        assert w is not None and w["kind"] == "ratio"
        f = build_quadrinomial(params)
        assert f34.mul(f.eval(w["x"]), w["y"]) == f34.mul(f.eval(w["y"]), w["x"])
        assert not is_scattered_fiber(f)
        hits += 1
    assert hits == 6


def test_witness_requires_admissible_h(f33):
    with pytest.raises(ValueError, match="h"):
        nonscattered_witness(QuadParams(f33, 1, 1, 5))


# -- adjoint identity and swapped ordering --------------------------------------


def test_adjoint_identity_for_even_tower(f34):
    """For t even and mid-field h with h^2 = -1, the adjoint equals
    m^(q^(s(t-1))) times the member with parameters (-1/m^(q^(s(t-1))), 1)."""
    mid = f34.subfield(4)
    h = int(
        next(
            x
            for x in mid[f34.mul_vec(mid, mid) == f34.neg_one]
            if not f34.in_subfield(int(x), 1)
        )
    )
    plus = trace_zero_power_set(f34, 1, +1)
    minus = trace_zero_power_set(f34, 1, -1)
    union = np.union1d(plus, minus)
    for m in [int(x) for x in mid[1:6]]:
        adj = build_quadrinomial(QuadParams(f34, 1, m, h)).adjoint()
        big = f34.frob(m, f34.t - 1)
        mu = f34.inv(big)
        derived = build_quadrinomial(QuadParams(f34, 1, f34.neg(mu), 1)).scale(big)
        assert adj == derived


def test_even_tower_square_root_members_scattered_via_adjoint(f34):
    """Mid-field h with h^2 = -1 at an even tower: members with m outside
    both power sets are scattered, and the reduction chain through the
    adjoint stays inside the admissible parameter range."""
    mid = f34.subfield(4)
    h = int(
        next(
            x
            for x in mid[f34.mul_vec(mid, mid) == f34.neg_one]
            if not f34.in_subfield(int(x), 1)
        )
    )
    plus = trace_zero_power_set(f34, 1, +1)
    minus = trace_zero_power_set(f34, 1, -1)
    union = np.union1d(plus, minus)
    outside = np.setdiff1d(mid, union)
    assert outside.size > 0
    for m in [int(x) for x in outside[:4]]:
        f = build_quadrinomial(QuadParams(f34, 1, m, h))
        assert is_scattered_fiber(f)
        # adjoint route: a scalar multiple of the reduced member at -1/m^(q^(s(t-1)))
        big = f34.frob(m, f34.t - 1)
        neg_mu = f34.neg(f34.inv(big))
        assert not np.isin(neg_mu, union)
        reduced = build_quadrinomial(QuadParams(f34, 1, neg_mu, 1))
        assert is_scattered_fiber(reduced)
        assert f.adjoint() == reduced.scale(big)


def test_swapped_ordering_differs(f33):
    params = QuadParams(f33, 1, 1, 5)
    assert build_quadrinomial(params) != build_quadrinomial_swapped(params)


# -- bundled property suite -------------------------------------------------------


def test_property_suite_exhaustive(f33):
    results = run_property_suite(f33, 1, exhaustive=True)
    failed = [n for n, ok, _ in results if not ok]
    assert not failed, failed


@pytest.mark.parametrize("s, sign, match", [(1, 0, "sign"), (1, 2, "sign"), (5, -2, "sign"),
                                            (2, 1, "coprime"), (3, -1, "coprime")])
def test_power_set_refuses_a_bad_sign_or_step(f33, s, sign, match):
    with pytest.raises(ValueError, match=match):
        trace_zero_power_set(f33, s, sign)
