from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import fiber_profile_sorted, scaling_class
from scatlin.fieldcore import BudgetExceededError, make_field
from scatlin.linpoly import LinPoly
from scatlin.scattered import (
    fiber_profile, is_scattered_fiber, is_scattered_roots, linear_set_size, orbit_codes,
    profile_key,
)
from scatlin.quadrinomial import QuadParams, build_quadrinomial
from scatlin.sweep import condition_pairs, h_class_reps


def lp_binomial(ctx, s=1):
    for d in range(2, ctx.size):
        if ctx.norm_rel(d, 1) not in (0, 1):
            return LinPoly.from_terms(ctx, s, {1: 1, ctx.n - 1: d})
    raise AssertionError


def test_pseudoregulus_is_scattered(f33):
    mono = LinPoly.monomial(f33, 1, 1)
    assert is_scattered_fiber(mono)
    assert is_scattered_roots(mono)
    assert linear_set_size(mono) == 364


def test_lp_binomial_is_scattered(f33):
    lp = lp_binomial(f33)
    assert is_scattered_fiber(lp)
    assert is_scattered_roots(lp)


def test_identity_and_zero_are_not(f33):
    X = LinPoly.identity(f33, 1)
    assert not is_scattered_fiber(X)
    assert linear_set_size(X) == 1
    zero = LinPoly.zero(f33, 1)
    assert not is_scattered_roots(zero)
    assert not is_scattered_fiber(zero)


def test_middle_frobenius_profile(f33):
    # x -> x^(q^t): ratio x^(q^t - 1) has exactly q^t + 1 values
    f = LinPoly.monomial(f33, 1, 3)
    assert linear_set_size(f) == 28
    assert not is_scattered_fiber(f)


def test_size_is_maximal_iff_scattered(f33):
    rng = np.random.default_rng(0)
    top = 364
    for _ in range(40):
        slots = rng.choice(6, size=4, replace=False)
        f = LinPoly.from_terms(
            f33, 1, {int(i): int(rng.integers(1, 729)) for i in slots}
        )
        assert (linear_set_size(f) == top) == is_scattered_fiber(f)


def test_oracles_agree_on_random_quadrinomials(f33):
    rng = np.random.default_rng(1)
    mids = f33.subfield(3)
    for _ in range(40):
        m = int(mids[rng.integers(0, 27)])
        h = int(rng.integers(1, 729))
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        assert is_scattered_fiber(f) == is_scattered_roots(f)


@pytest.mark.slow
def test_oracles_agree_on_every_family_member(f33):
    # full dual-oracle sweep over all (m, h-orbit) pairs at (3,3,1)
    mids = f33.subfield(3)
    reps = h_class_reps(f33)
    for m in mids:
        for h in reps:
            f = build_quadrinomial(QuadParams(f33, 1, int(m), int(h)))
            assert is_scattered_fiber(f) == is_scattered_roots(f)


def test_adjoint_of_scattered_is_scattered(f33):
    for m, h in condition_pairs(f33, 1):
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        assert is_scattered_fiber(f.adjoint())


def test_gl_invariance_under_rescaling(f33):
    rng = np.random.default_rng(2)
    f = build_quadrinomial(QuadParams(f33, 1, *condition_pairs(f33, 1)[0]))
    verdict = is_scattered_fiber(f)
    for a in rng.integers(1, 729, 50):
        g = f.compose(LinPoly.from_terms(f33, 1, {0: int(a)}))
        assert is_scattered_fiber(g) == verdict


def test_roots_oracle_refuses_large_fields(f35):
    f = LinPoly.monomial(f35, 1, 1)
    with pytest.raises(BudgetExceededError, match="fiber"):
        is_scattered_roots(f, size_bound=3 ** 9)


F33, F34 = make_field(3, 1, 3), make_field(3, 1, 4)
_SPECIAL = [
    poly
    for ctx in (F33, F34)
    for poly in (
        LinPoly.zero(ctx, 1),
        LinPoly.identity(ctx, 1),
        LinPoly.monomial(ctx, 1, ctx.t),                       # middle-field Frobenius
        LinPoly.monomial(ctx, 1, 2),                           # X^(q^2), kernel-free
        LinPoly.from_terms(ctx, 1, {1: 1, 0: ctx.neg_one}),    # X^q - X, kernel F_q
        LinPoly.from_terms(ctx, 1, {2: 1, 0: ctx.neg_one}),    # X^(q^2) - X, kernel F_(q^2)
    )
]


@st.composite
def _polys(draw):
    """A family member at any coprime step, or a random polynomial."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    if draw(st.booleans()):
        m = draw(st.sampled_from(ctx.subfield(ctx.t).tolist()))
        h = draw(st.integers(1, ctx.size - 1))
        return build_quadrinomial(QuadParams(ctx, s, m, h))
    terms = draw(st.dictionaries(st.integers(0, ctx.n - 1), st.integers(0, ctx.size - 1),
                                 max_size=4))
    return LinPoly.from_terms(ctx, s, terms)


def _with_examples(test):
    for poly in _SPECIAL:
        test = example(poly)(test)
    return test


@_with_examples
@settings(max_examples=150, deadline=None)
@given(_polys())
def test_fast_kernel_matches_generic_oracle(f):
    n_points, scattered = fiber_profile(f)
    assert (n_points, scattered) == fiber_profile_sorted(f)
    if f.ctx is F33:
        assert scattered == is_scattered_roots(f)


# -- the scaling key ------------------------------------------------------------


def _scaled(f, lam, mu):
    """mu*f(lambda*X)."""
    return f.compose(LinPoly.from_terms(f.ctx, f.s, {0: lam})).scale(mu)


@st.composite
def _scalings(draw):
    """f with 0-4 terms at (3,3) or (3,4), lambda, mu, a twist j, and one
    slot to perturb."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    terms = draw(st.dictionaries(st.integers(0, ctx.n - 1), st.integers(1, ctx.size - 1),
                                 max_size=4))
    nonzero = st.integers(1, ctx.size - 1)
    return (LinPoly.from_terms(ctx, s, terms), draw(nonzero), draw(nonzero),
            draw(st.integers(0, ctx.deg - 1)), draw(st.integers(0, ctx.n - 1)), draw(nonzero))


@example((LinPoly.zero(F33, 1), 5, 7, 1, 0, 3))
@example((LinPoly.zero(F34, 3), 5, 7, 1, 2, 3))
@settings(max_examples=200, deadline=None)
@given(_scalings())
def test_profile_key_is_a_scaling_invariant(case):
    f, lam, mu, j, slot, c = case
    image = _scaled(f, lam, mu)
    assert profile_key(image) == profile_key(f)
    assert fiber_profile(image.frobenius_twist(j)) == fiber_profile(f)
    # multiplying one coefficient by c leaves the scaling class only sometimes;
    # the key must follow the class either way
    other = LinPoly.from_terms(f.ctx, f.s, {**dict(enumerate(image.coeffs.tolist())),
                                            slot: f.ctx.mul(int(image.coeffs[slot]), c)})
    assert (profile_key(other) == profile_key(f)) == (scaling_class(other) == scaling_class(f))


def test_profile_key_separates_the_scaling_classes_of_the_grid(f33):
    """On the h-deduped (3,3) grid, keys and brute-force classes induce the
    same partition: 741 classes for 9,828 members."""
    mids, reps = f33.subfield(3), h_class_reps(f33)
    fs = [build_quadrinomial(QuadParams(f33, 1, int(m), int(h))) for m in mids for h in reps]
    keys = [profile_key(f) for f in fs]
    classes = [scaling_class(f) for f in fs]
    assert len(set(keys)) == len(set(zip(keys, classes))) == len(set(classes)) == 741


def test_orbit_codes_refuse_to_overflow():
    """Codes are int64; a support whose key space exceeds it is refused.
    With q = 3 and N = 3^40 - 1, the keys of X + X^q + X^(q^2) + X^(q^3)
    span 2 * N^2 values."""
    big = SimpleNamespace(p=3, q=3, order=3 ** 40 - 1, deg=40)
    with pytest.raises(BudgetExceededError, match="overflow"):
        orbit_codes(big, (0, 1, 2, 3), [[0, 0, 0, 0]])
