from math import gcd

import numpy as np
import pytest

import reference
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly
from scatlin.scattered import is_scattered_fiber, linear_set_size
from scatlin.quadrinomial import QuadParams, build_quadrinomial
from scatlin.equivalence import (
    gl_equivalent,
    gl_search,
    gammal_equivalent,
    verify_gl_witness,
    invert_witness,
    multiply_witnesses,
    necessary_conditions,
    step_case,
    pair_report,
    find_new_example,
)
from scatlin.sweep import condition_pairs


def condition_params(ctx, s=1, k=0):
    m, h = condition_pairs(ctx, s)[k]
    return QuadParams(ctx, s, m, h)


def test_self_equivalence_gives_identity(f33):
    f = build_quadrinomial(condition_params(f33))
    assert gl_equivalent(f, f) == (1, 0, 0, 1)


def test_constructed_equivalence_found_and_verified(f33):
    rng = np.random.default_rng(0)
    f = build_quadrinomial(condition_params(f33))
    for a in rng.integers(2, 729, 5):
        g = f.compose(LinPoly.from_terms(f33, 1, {0: int(a)}))
        w = gl_equivalent(f, g)
        assert w is not None and verify_gl_witness(f, g, w)


def test_witness_inverse_and_product(f33):
    f = build_quadrinomial(condition_params(f33))
    g = f.compose(LinPoly.from_terms(f33, 1, {0: 55}))
    h = f.compose(LinPoly.from_terms(f33, 1, {0: 123}))
    w_fg = gl_equivalent(f, g)
    w_gh = gl_equivalent(g, h)
    assert verify_gl_witness(g, f, invert_witness(f33, w_fg))
    w_fh = multiply_witnesses(f33, w_gh, w_fg)
    assert verify_gl_witness(f, h, w_fh)
    assert gl_equivalent(g, f) is not None  # symmetric search succeeds too


def test_nontrivial_witness_inverts_to_the_identity(f33):
    """(m, h) = (1, 11) and (43, 11) at (3,3) are distinct polynomials carried
    onto each other by a diagonal witness."""
    f = build_quadrinomial(QuadParams(f33, 1, 1, 11))
    g = build_quadrinomial(QuadParams(f33, 1, 43, 11))
    w = gl_equivalent(f, g)
    assert f != g and w == (361, 0, 0, 42)
    w_inv = invert_witness(f33, w)
    assert verify_gl_witness(g, f, w_inv)
    assert multiply_witnesses(f33, w, w_inv) == (1, 0, 0, 1)
    assert multiply_witnesses(f33, w_inv, w) == (1, 0, 0, 1)


def test_witness_algebra_refuses_bad_entries(f33):
    f = build_quadrinomial(QuadParams(f33, 1, 1, 11))
    for bad in ((-1, 0, 0, 1), (1, 0, 0, f33.size)):
        with pytest.raises(ValueError, match="outside"):
            invert_witness(f33, bad)
        with pytest.raises(ValueError, match="outside"):
            multiply_witnesses(f33, bad, (1, 0, 0, 1))
        with pytest.raises(ValueError, match="outside"):
            verify_gl_witness(f, f, bad)
    with pytest.raises(ZeroDivisionError):
        invert_witness(f33, (1, 2, 1, 2))
    assert not verify_gl_witness(f, f, (1, 2, 1, 2))


def test_family_member_not_equivalent_to_monomial(f33):
    member = build_quadrinomial(condition_params(f33))
    mono = LinPoly.monomial(f33, 1, 1)
    assert gl_equivalent(member, mono) is None
    assert gammal_equivalent(member, mono) is None


def test_semilinear_orbit_found_through_twist(f33):
    member = build_quadrinomial(condition_params(f33))
    tw = member.frobenius_twist(2)
    assert gl_equivalent(tw, member) is None or True  # may or may not be linear
    res = gammal_equivalent(tw, member)
    assert res is not None
    j, w = res
    assert verify_gl_witness(tw.frobenius_twist(j), member, w)


def test_semilinear_equivalence_preserves_linear_set_size(f33):
    member = build_quadrinomial(condition_params(f33))
    tw = member.frobenius_twist(1)
    assert gammal_equivalent(tw, member) is not None
    assert linear_set_size(tw) == linear_set_size(member)


def test_scatteredness_is_gl_invariant(f33):
    rng = np.random.default_rng(1)
    f = build_quadrinomial(condition_params(f33))
    assert is_scattered_fiber(f)
    for a in rng.integers(1, 729, 10):
        g = f.compose(LinPoly.from_terms(f33, 1, {0: int(a)}))
        assert gl_equivalent(f, g) is not None
        assert is_scattered_fiber(g)


def test_step_case_classification(f35):
    s = 1
    n, t = f35.n, f35.t
    assert step_case(f35, s, n - s) == "b"
    assert step_case(f35, s, s) == "c"
    assert step_case(f35, s, t - s) == "d"
    assert step_case(f35, s, t + s) == "e"
    assert step_case(f35, s, 3) == "a"
    # for odd towers no coprime step lands in the d/e classes
    for ell in range(1, n):
        if gcd(ell, n) == 1:
            assert step_case(f35, s, ell) in ("a", "b", "c")


def test_conditions_require_large_tower(f33):
    p = condition_params(f33)
    with pytest.raises(ValueError, match="t >= 5"):
        necessary_conditions(p, p)
    rep = necessary_conditions(p, p, require_large_t=False)
    assert rep["case"] == "c" and rep["conditions_hold"]


def test_self_pair_satisfies_case_c_with_unit_witness(f35):
    p = condition_params(f35)
    rep = necessary_conditions(p, p)
    assert rep["case"] == "c"
    assert rep["alternatives"][1]
    assert rep["witness_z"][1] == 1
    assert rep["subfield_membership"]


def test_case_a_verdict(f35):
    p1 = condition_params(f35)
    m2, h2 = condition_pairs(f35, 3)[0]
    p2 = QuadParams(f35, 3, m2, h2)
    rep = necessary_conditions(p1, p2)
    assert rep["case"] == "a"
    assert rep["verdict"] == "not GL-equivalent"


def test_pair_report_structure(f35):
    p1 = condition_params(f35)
    rep = pair_report(p1, p1)
    assert rep["agree"] and rep["gl_witness"] == [1, 0, 0, 1]
    assert rep["beta_candidates"] <= f35.size
    assert {"case", "gl_witness", "conditions", "agree"} <= set(rep)


@pytest.mark.parametrize("ell", [3, 7])
def test_pair_report_without_witness_agrees(f35, ell):
    """A class-a pair has no GL witness, so the report agrees with the
    printed verdict "not GL-equivalent"."""
    rep = pair_report(condition_params(f35), condition_params(f35, ell))
    assert rep["case"] == "a" and rep["conditions"]["verdict"] == "not GL-equivalent"
    assert rep["gl_witness"] is None and rep["agree"]


def test_rescaled_h_pair_is_case_c_equivalent(f35):
    ctx = f35
    m, h = condition_pairs(ctx, 1)[0]
    p1 = QuadParams(ctx, 1, m, h)
    p2 = QuadParams(ctx, 1, m, ctx.mul(2, h))  # same polynomial
    rep = pair_report(p1, p2)
    assert rep["gl_witness"] is not None
    assert rep["case"] == "c" and rep["agree"]


def test_beta_sweep_budget(f35):
    f = build_quadrinomial(condition_params(f35))
    res = gl_search(f, f)
    assert res.beta_candidates <= f35.size
    assert res.systems_solved <= 3 ** 10


def test_gl_witnesses_pinned_at_35(f35):
    """Canonical witnesses recorded from the earlier beta-sweep search."""
    f = build_quadrinomial(condition_params(f35))
    assert gl_search(f, f).witness == (1, 0, 0, 1)
    assert gl_search(f, f.compose(LinPoly.from_terms(f35, 1, {0: 55}))).witness == (
        20944, 0, 0, 2)
    for k in (0, 1):
        m, h = condition_pairs(f35, 1)[k]
        f = build_quadrinomial(QuadParams(f35, 1, m, h))
        g = build_quadrinomial(QuadParams(f35, 1, m, f35.neg(h)))
        assert gl_search(f, g).witness == (1, 0, 0, 1)


def test_new_example_search_refuses_small_q(f33, f53):
    with pytest.raises(ValueError, match="q >= 7"):
        find_new_example(f33, 1)
    with pytest.raises(ValueError, match="q >= 7"):
        find_new_example(f53, 1)


_PLUS_POOL = {"pool": "plus-power-set", "pool_size": 171, "obstruction_size": 114}
_OUTSIDE_POOL = {"pool": "outside-both-power-sets", "pool_size": 624, "obstruction_size": 572}


@pytest.mark.parametrize("tower, s, found_mh, case, margin", [
    ((7, 1, 3), 1, (55, 871, 1), "IIa", _PLUS_POOL),
    ((7, 1, 3), 5, (55, 871, 1), "IIa", _PLUS_POOL),
    ((5, 1, 4), 1, (1037, 787, 2), "I", _OUTSIDE_POOL),
], ids=["73-s1", "73-s5", "54-s1"])
def test_new_example_is_pinned(tower, s, found_mh, case, margin):
    """The first pair of the case IIa pool at (7,3), for both steps, and of
    the case I pool at (5,4), with the margins they report."""
    found = find_new_example(make_field(*tower), s)
    assert (found["m"], found["h"], found["subfield_degree_avoided"]) == found_mh
    assert found["margin"] == margin
    assert reference.scattered_conditions_branches(found["params"]) == case


def test_new_example_search_at_73():
    ctx = make_field(7, 1, 3)
    qt = 7 ** 3
    # counting margin quoted for this size: q^t - 1 > 2(q^t-1)/(q-1) + (q^t-1)/2
    assert qt - 1 > 2 * (qt - 1) // (7 - 1) + (qt - 1) // 2
    found = find_new_example(ctx, 1)
    params = found["params"]
    assert reference.scattered_conditions_branches(params) != "none"
    g_sub = found["subfield_degree_avoided"]
    assert not ctx.in_subfield(params.h, g_sub)
    # the found m avoids every (q-1)-th power class, so no printed condition
    # can hold against a member with m = 1 or h = 1, for either residue class
    minus_norm = ctx.neg_one
    hs = ctx.nonzero_elements()
    norms = ctx.pow_vec(hs, ctx.order // (qt - 1))
    ks = [int(k) for k in hs[norms == minus_norm]]
    mids = [int(m) for m in ctx.subfield(3) if m != 0]
    for ell in (1, ctx.n - 1):  # the two realizable non-a classes
        for k in ks[:: max(1, len(ks) // 40)]:
            rep = necessary_conditions(
                params, QuadParams(ctx, ell, 1, k), require_large_t=False
            )
            assert not rep["conditions_hold"]
        for mu in mids[:: max(1, len(mids) // 40)]:
            rep = necessary_conditions(
                params, QuadParams(ctx, ell, mu, 1), require_large_t=False
            )
            assert not rep["conditions_hold"]


def test_searches_refuse_members_of_two_towers(f33, f35):
    p33, p35 = condition_params(f33), condition_params(f35)
    with pytest.raises(ValueError, match="mismatched field contexts"):
        gl_search(build_quadrinomial(p33), build_quadrinomial(p35))
    with pytest.raises(ValueError, match="mismatched field contexts"):
        necessary_conditions(p33, p35, require_large_t=False)


def test_necessary_conditions_refuse_m_zero(f35):
    p = condition_params(f35)
    zero = QuadParams(f35, p.s, 0, p.h)
    for p1, p2 in ((zero, p), (p, zero)):
        with pytest.raises(ValueError, match="m parameters must be nonzero"):
            necessary_conditions(p1, p2)


def test_necessary_conditions_without_a_semilinear_solution(f35):
    """Case b where z^(q^(st)) = +-c z has no nonzero solution for either sign."""
    rep = necessary_conditions(QuadParams(f35, 1, 8183, 30182), QuadParams(f35, 9, 1548, 18177))
    assert rep["case"] == "b" and rep["conditions_hold"] is False
    assert rep["alternatives"] == [False, False] and rep["witness_z"] == [None, None]
