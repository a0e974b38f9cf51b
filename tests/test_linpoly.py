import json

import numpy as np
import pytest

from scatlin.linpoly import LinPoly
from scatlin.scattered import fiber_counts


def rand_poly(ctx, rng, s=1, terms=4):
    slots = rng.choice(ctx.n, size=terms, replace=False)
    c = {int(i): int(rng.integers(1, ctx.size)) for i in slots}
    return LinPoly.from_terms(ctx, s, c)


def kernel_sizes_agree(f):
    """The eliminated kernel basis against the kernel count of the fiber kernel."""
    return f.ctx.p ** len(f.kernel_basis()) == fiber_counts(f)[f.ctx.order] + 1


def test_eval_identity_and_zero(f33):
    X = LinPoly.identity(f33, 1)
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
    X = LinPoly.identity(f33, 1)
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


def test_ring_axioms_on_random_triples(f33):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f, g, h = (rand_poly(f33, rng) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(g.add(h)) == f.compose(g).add(f.compose(h))
        assert f.add(g) == g.add(f)


def test_adjoint_examples(f33):
    X = LinPoly.identity(f33, 1)
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
    X = LinPoly.identity(f33, 1)
    assert X.kernel_basis() == []
    fix = LinPoly.from_terms(f33, 1, {3: 1, 0: f33.neg_one})  # x^(q^t) - x
    assert len(fix.kernel_basis()) == 3
    assert np.array_equal(fix.kernel_set(), f33.subfield(3))
    tr = LinPoly.from_terms(f33, 1, {0: 1, 3: 1})  # trace onto the middle field
    assert len(tr.kernel_basis()) == 3
    assert np.array_equal(tr.kernel_set(), f33.ker_trace())
    zero = LinPoly.zero(f33, 1)
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


def test_step_views(f33):
    rng = np.random.default_rng(9)
    for s in (1, 5, 7, 11):
        f = rand_poly(f33, rng, s=s)
        g = LinPoly.from_q_view(f33, 1, f.q_view())
        assert np.array_equal(f.eval_field(), g.eval_field())
        back = LinPoly.from_q_view(f33, s, g.q_view())
        assert np.array_equal(back.coeffs, f.coeffs)


def test_validation_errors(f33, f53):
    with pytest.raises(ValueError, match="coprime"):
        LinPoly.from_terms(f33, 2, {1: 1})
    with pytest.raises(ValueError, match="slots"):
        LinPoly(f33, 1, np.zeros(5, dtype=np.int64))
    f = LinPoly.monomial(f33, 1, 1)
    g5 = LinPoly.monomial(f33, 5, 1)
    with pytest.raises(ValueError, match="steps"):
        f.compose(g5)
    other = LinPoly.monomial(f53, 1, 1)
    with pytest.raises(ValueError, match="contexts"):
        f.compose(other)
    for bad in (-1, 729):
        with pytest.raises(ValueError, match="element indices"):
            LinPoly(f33, 1, [bad, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="element indices"):
            LinPoly.from_terms(f33, 1, {1: 1, 5: bad})
    assert LinPoly(f33, 1, [728, 0, 0, 0, 0, 0]).coeffs[0] == 728


def test_serialization_and_str(f33):
    f = LinPoly.from_terms(f33, 1, {1: 5, 3: 1})
    blob = json.loads(f.to_json())
    assert blob == {"s": 1, "coeffs": [int(c) for c in f.coeffs]}
    assert LinPoly.from_dict(f33, blob) == f
    assert str(f) == "5*X^q + X^q^3"
    assert str(LinPoly.identity(f33, 1)) == "X"
    assert str(LinPoly.zero(f33, 1)) == "0"


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
