from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (adjoint_terms_loop, compose_loop, compose_terms_loop, eval_terms_loop,
                       eval_vec_digits, eval_vec_zech, fiber_counts_mod, fiber_profile_sorted)
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly
from scatlin.quadrinomial import QuadParams, build_quadrinomial, build_quadrinomial_swapped
from scatlin.scattered import fiber_counts, fiber_profile, is_scattered_roots


def rand_poly(ctx, rng, s=1, terms=4):
    slots = rng.choice(ctx.n, size=terms, replace=False)
    c = {int(i): int(rng.integers(1, ctx.size)) for i in slots}
    return LinPoly.from_terms(ctx, s, c)


def kernel_sizes_agree(f):
    """The eliminated kernel basis against the kernel count of the fiber kernel."""
    return f.ctx.p ** len(f.kernel_basis()) == fiber_counts(f)[f.ctx.order] + 1


def test_eval_identity_and_zero(f33):
    X = LinPoly.identity(f33)
    assert X.eval(55) == 55
    f = rand_poly(f33, np.random.default_rng(0))
    assert f.eval(0) == 0


def test_eval_is_base_field_linear(f33):
    rng = np.random.default_rng(1)
    base = f33.subfield(1)
    for _ in range(40):
        f = rand_poly(f33, rng)
        x, y = int(rng.integers(0, 729)), int(rng.integers(0, 729))
        lam = int(base[rng.integers(0, 3)])
        lhs = f.eval(f33.add(x, f33.mul(lam, y)))
        rhs = f33.add(f.eval(x), f33.mul(lam, f.eval(y)))
        assert lhs == rhs


def test_eval_field_matches_pointwise(f33):
    rng = np.random.default_rng(2)
    f = rand_poly(f33, rng)
    vals = f.eval_field()
    for x in rng.integers(0, 729, 25):
        assert vals[x] == f.eval(int(x))


def test_compose_identity_and_monomials(f33):
    X = LinPoly.identity(f33)
    g = rand_poly(f33, np.random.default_rng(3))
    assert X.compose(g) == g
    assert g.compose(X) == g
    m = LinPoly.monomial(f33, 1, 1)
    assert m.compose(m) == LinPoly.monomial(f33, 1, 2)


def test_compose_agrees_with_pointwise_on_all_points(f33):
    rng = np.random.default_rng(4)
    f, g = rand_poly(f33, rng), rand_poly(f33, rng)
    fg = f.compose(g)
    lhs = fg.eval_field()
    rhs = f.eval_vec(g.eval_field())
    assert np.array_equal(lhs, rhs)


@st.composite
def _composable(draw):
    """Two polynomials at (3,3) or (3,4), at step 1 or n - 1: members in
    either form (m = 0 included) or random terms (the zero polynomial
    included)."""
    ctx = make_field(*draw(st.sampled_from([(3, 1, 3), (3, 1, 4)])))
    s = draw(st.sampled_from([1, ctx.n - 1]))

    def poly():
        if draw(st.booleans()):
            m = draw(st.one_of(st.just(0), st.sampled_from(ctx.subfield(ctx.t).tolist())))
            params = QuadParams(ctx, s, m, draw(st.integers(1, ctx.size - 1)))
            swapped = draw(st.booleans())
            return (build_quadrinomial_swapped if swapped else build_quadrinomial)(params)
        return LinPoly.from_terms(ctx, s, draw(st.dictionaries(
            st.integers(0, ctx.n - 1), st.integers(1, ctx.size - 1), max_size=ctx.n)))

    return poly(), poly()


@settings(max_examples=60, deadline=None)
@given(_composable())
def test_compose_matches_the_term_loop(pair):
    g, f = pair
    got = g.compose(f)
    assert np.array_equal(got.coeffs, compose_loop(g, f).coeffs)


def test_ring_axioms_on_random_triples(f33):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f, g, h = (rand_poly(f33, rng) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(g.add(h)) == f.compose(g).add(f.compose(h))
        assert f.add(g) == g.add(f)


def test_adjoint_examples(f33):
    X = LinPoly.identity(f33)
    assert X.adjoint() == X
    a = 217
    single = LinPoly.monomial(f33, 1, 1, a)
    adj = single.adjoint()
    expected = LinPoly.monomial(f33, 1, f33.n - 1, f33.frob(a, f33.n - 1))
    assert adj == expected


def test_adjoint_involution_and_rank(f33):
    rng = np.random.default_rng(6)
    for _ in range(200):
        f = rand_poly(f33, rng)
        fh = f.adjoint()
        assert fh.adjoint() == f
        assert kernel_sizes_agree(f) and kernel_sizes_agree(fh)
        assert fiber_counts(fh)[f33.order] == fiber_counts(f)[f33.order]


def test_kernels(f33):
    X = LinPoly.identity(f33)
    assert X.kernel_basis() == []
    fix = LinPoly.from_terms(f33, 1, {3: 1, 0: f33.neg_one})  # x^(q^t) - x
    assert len(fix.kernel_basis()) == 3
    assert np.array_equal(fix.kernel_set(), f33.subfield(3))
    tr = LinPoly.from_terms(f33, 1, {0: 1, 3: 1})  # trace onto the middle field
    assert len(tr.kernel_basis()) == 3
    assert np.array_equal(tr.kernel_set(), f33.ker_trace())
    zero = LinPoly.zero(f33)
    assert kernel_sizes_agree(zero) and len(zero.kernel_basis()) == 6


def test_rank_nullity(f33):
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = rand_poly(f33, rng, terms=int(rng.integers(1, 5)))
        assert kernel_sizes_agree(f)


def test_image_membership(f33):
    rng = np.random.default_rng(8)
    f = rand_poly(f33, rng)
    assert f.image_membership(0)
    im = set(f.image_set().tolist())
    for y in rng.integers(0, 729, 40):
        assert f.image_membership(int(y)) == (int(y) in im)


@st.composite
def _step_presentations(draw):
    """A tower (3,3) or (3,4), a step s coprime to 2t and two step-s
    presentations {i: a_i}, zero coefficients and the empty one included."""
    ctx = make_field(*draw(st.sampled_from([(3, 1, 3), (3, 1, 4)])))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    terms = st.dictionaries(st.integers(0, ctx.n - 1), st.integers(0, ctx.size - 1),
                            max_size=ctx.n)
    return ctx, s, draw(terms), draw(terms)


@settings(max_examples=80, deadline=None)
@given(_step_presentations(), st.integers(0, 2 ** 32 - 1))
def test_from_terms_matches_step_loops(case, seed):
    """`from_terms` reads sum_i a_i X^(q^(s*i)) at every coprime step: the
    q-polynomial it builds evaluates, composes and adjoins as the step-s
    term loops, which raise x to q^(s*i) one term at a time."""
    ctx, s, g_terms, f_terms = case
    g, f = LinPoly.from_terms(ctx, s, g_terms), LinPoly.from_terms(ctx, s, f_terms)
    xs = np.random.default_rng(seed).integers(0, ctx.size, 40)
    assert g.eval_vec(xs).tolist() == [eval_terms_loop(ctx, s, g_terms, int(x)) for x in xs]
    assert g.compose(f) == LinPoly.from_terms(ctx, s, compose_terms_loop(ctx, s, g_terms, f_terms))
    assert g.adjoint() == LinPoly.from_terms(ctx, s, adjoint_terms_loop(ctx, s, g_terms))


def test_validation_errors(f33, f53):
    with pytest.raises(ValueError, match="coprime"):
        LinPoly.from_terms(f33, 2, {1: 1})
    for size in (5, 8):
        with pytest.raises(ValueError, match="exactly 6 coefficients"):
            LinPoly(f33, np.zeros(size, dtype=np.int64))
    f = LinPoly.monomial(f33, 1, 1)
    other = LinPoly.monomial(f53, 1, 1)
    with pytest.raises(ValueError, match="contexts"):
        f.compose(other)
    for bad in (-1, 729):
        with pytest.raises(ValueError, match="element indices"):
            LinPoly(f33, [bad, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="element indices"):
            LinPoly.from_terms(f33, 1, {1: 1, 5: bad})
    assert LinPoly(f33, [728, 0, 0, 0, 0, 0]).coeffs[0] == 728
    # element indices are refused, not wrapped: -1 would read f(728)
    f = LinPoly.from_terms(f33, 1, {0: 5, 1: 7})
    for bad in (-1, 729):
        with pytest.raises(ValueError, match="element ind"):
            f.eval(bad)
        with pytest.raises(ValueError, match="element ind"):
            f.eval_vec([3, bad])
        with pytest.raises(ValueError, match="element ind"):
            LinPoly.zero(f33).eval_vec(np.array([[bad]]))
    assert f.eval(728) == f.eval_vec([728])[0] == 708


def test_from_terms_refuses_slots_outside_the_range(f33):
    """A slot outside [0, 2t) is refused: reduced mod 2t, {1: 5, 7: 9} would
    drop the 5 and {-1: 5} would read as 5*X^q^5."""
    for terms in ({1: 5, 7: 9}, {-1: 5}):
        with pytest.raises(ValueError, match=r"slots must lie in \[0, 6\)"):
            LinPoly.from_terms(f33, 1, terms)
    assert LinPoly.from_terms(f33, 5, {0: 5, 5: 9}) == LinPoly(f33, [5, 9, 0, 0, 0, 0])


def test_str(f33):
    f = LinPoly.from_terms(f33, 1, {1: 5, 3: 1})
    assert str(f) == "5*X^q + X^q^3"
    assert str(LinPoly.from_terms(f33, 5, {1: 5, 3: 1})) == "X^q^3 + 5*X^q^5"
    assert str(LinPoly.identity(f33)) == "X"
    assert str(LinPoly.zero(f33)) == "0"


def test_scale_and_negate(f33, f34):
    rng = np.random.default_rng(10)
    f = rand_poly(f33, rng)
    c = 123
    sc = f.scale(c)
    for x in rng.integers(0, 729, 10):
        assert sc.eval(int(x)) == f33.mul(c, f.eval(int(x)))
    assert f.add(f.neg()).is_zero()
    # the p-power twist of every coefficient, against j repeated p-th powers
    for ctx in (f33, f34):
        g = rand_poly(ctx, rng, terms=ctx.n - 1)
        for j in range(ctx.e * ctx.n):
            twisted = [int(c) for c in g.coeffs]
            for _ in range(j):
                twisted = [ctx.pow(c, ctx.p) for c in twisted]
            assert g.frobenius_twist(j).coeffs.tolist() == twisted
        assert g.frobenius_twist(ctx.e * ctx.n + 1) == g.frobenius_twist(1)


def _xs_shapes(ctx, rng):
    """Inputs of every shape eval_vec takes: the whole field, a sample with
    zeros, a sample of repeated indices, nothing, a scalar and a 2-D block."""
    sample = rng.integers(0, ctx.size, 60)
    sample[::7] = 0
    return [ctx.elements(), sample, np.repeat(sample[:8], 5), np.zeros(0, dtype=np.int64),
            int(sample[1]), sample.reshape(6, 10)]


def _assert_eval_matches_digits(f, rng):
    """eval_vec against the digit sums and the per-term Zech sums reduced with %."""
    for xs in _xs_shapes(f.ctx, rng):
        got = f.eval_vec(xs)
        assert got.dtype == np.int64 and got.shape == (np.asarray(xs).size,)
        assert np.array_equal(got, eval_vec_digits(f, xs))
        assert np.array_equal(got, eval_vec_zech(f, xs))


@example((3, 1, 3), 0, "zero", 0)
@example((3, 1, 3), 1, "field", 1)
@example((3, 1, 4), 2, "base", 1)
@example((3, 1, 3), 3, "frobenius", 0)
@example((3, 1, 4), 4, "frobenius", 0)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["field", "base", "zero", "frobenius"]), st.integers(0, 8))
def test_eval_vec_matches_digit_reference(tower, seed, kind, terms):
    """Random coefficients, coefficients in F_p (their partial sums cancel
    often), the zero polynomial, one-term polynomials and X^q - X (which
    vanishes on F_q), at every coprime step and on every shape of input."""
    ctx = make_field(*tower)
    rng = np.random.default_rng(seed)
    steps = [s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]
    s = int(rng.choice(steps))
    if kind == "frobenius":
        f = LinPoly(ctx, [ctx.neg_one, 1] + [0] * (ctx.n - 2))
    else:
        terms = 0 if kind == "zero" else min(terms, ctx.n)
        slots = rng.choice(ctx.n, size=terms, replace=False)
        high = ctx.size if kind == "field" else ctx.p
        f = LinPoly.from_terms(ctx, s, {int(i): int(rng.integers(1, high)) for i in slots})
    _assert_eval_matches_digits(f, rng)


@pytest.mark.parametrize("p,e,t", [(5, 1, 3), (7, 1, 3), (3, 2, 3)])
def test_eval_vec_matches_digit_reference_on_larger_towers(p, e, t):
    ctx = make_field(p, e, t)
    rng = np.random.default_rng(11)
    polys = [rand_poly(ctx, rng, s=ctx.n - 1, terms=ctx.n),
             LinPoly.from_terms(ctx, 1, {i: int(rng.integers(1, p)) for i in range(ctx.n)})]
    mid = ctx.subfield(ctx.t)
    h = int(rng.integers(1, ctx.size))
    polys.append(build_quadrinomial(QuadParams(ctx, 1, int(mid[5]), h)))
    for f in polys:
        _assert_eval_matches_digits(f, rng)
        assert np.array_equal(fiber_counts(f), fiber_counts_mod(f))


@pytest.mark.parametrize("tower,members", [
    ((3, 1, 3), [(0, 1), (4, 2), (1, 11), (11, 326)]),
    ((3, 1, 4), [(7, 2), (37, 1)]),
])
def test_fiber_verdict_has_three_agreeing_opinions(tower, members):
    """The fiber kernel on the Zech path, the sorted fiber profile on the
    digit-sum values and the roots oracle, on scattered and non-scattered
    members (m given by its rank in the middle field)."""
    ctx = make_field(*tower)
    mid = ctx.subfield(ctx.t)
    verdicts = set()
    for mi, h in members:
        f = build_quadrinomial(QuadParams(ctx, 1, int(mid[mi]), h))
        assert np.array_equal(f.eval_field(), eval_vec_digits(f, ctx.elements()))
        size, scattered = fiber_profile(f)
        assert fiber_profile_sorted(f) == (size, scattered)
        assert is_scattered_roots(f) == scattered
        verdicts.add(scattered)
    assert verdicts == {False, True}


def test_scale_refuses_scalars_outside_the_field(f33):
    """scale(-1) used to wrap through LOG to 728*X^q, and scale(729) ended in IndexError."""
    f = LinPoly.monomial(f33, 1, 1)
    for c in (-1, 729):
        with pytest.raises(ValueError, match="outside"):
            f.scale(c)
    assert f.scale(0).is_zero() and f.scale(728) == LinPoly.monomial(f33, 1, 1, 728)
