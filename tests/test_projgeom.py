from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (intersection_number_from_scratch, meets_subgeometry_all_points,
                       sigma_image_loop)
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly
from scatlin.quadrinomial import QuadParams, build_quadrinomial
from scatlin.projgeom import (
    ProjSubspace,
    polynomial_vertex,
    axis_line,
    intersect_dim,
    intersection_number,
    sigma_fixes_subgeometry,
    subgeometry_point,
    meets_subgeometry,
    FieldEchelon,
)
from scatlin.sweep import condition_pairs


def quad_vertex(ctx, s=1, k=0):
    m, h = condition_pairs(ctx, s)[k]
    return polynomial_vertex(ctx, s, build_quadrinomial(QuadParams(ctx, s, m, h)))


def lp_vertex(ctx, s=1):
    for d in range(2, ctx.size):
        if ctx.norm_rel(d, 1) not in (0, 1):
            return polynomial_vertex(
                ctx, s, LinPoly.from_terms(ctx, s, {1: 1, ctx.n - 1: d})
            )
    raise AssertionError


def test_vertex_dimension(f33, f35):
    for ctx in (f33, f35):
        assert quad_vertex(ctx).dim == ctx.n - 3
        assert lp_vertex(ctx).dim == ctx.n - 3
        mono = polynomial_vertex(ctx, 1, LinPoly.monomial(ctx, 1, 1))
        assert mono.dim == ctx.n - 3


def test_sigma_identity_and_order(f33):
    g = quad_vertex(f33)
    assert g.sigma_image(0).same_subspace(g)
    assert g.sigma_image(f33.n).same_subspace(g)
    assert not g.sigma_image(1).same_subspace(g)


@pytest.mark.parametrize("tower", [(3, 1, 3), (3, 1, 4)])
def test_sigma_powers_match_single_steps(tower):
    """Closed-form k-th images against k single steps, for k in [0, 2t] and
    every coprime step, on random equations and on a family vertex."""
    ctx = make_field(*tower)
    rng = np.random.default_rng(ctx.t)
    for s in (s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1):
        spaces = [ProjSubspace(ctx, s, rng.integers(0, ctx.size, (r, ctx.n))) for r in (0, 1, 3)]
        spaces.append(quad_vertex(ctx, s))
        for space in spaces:
            for k in range(ctx.n + 1):
                want = sigma_image_loop(space, k).equations
                assert np.array_equal(space.sigma_image(k).equations, want)


def test_equations_are_one_read_only_array(f33):
    for rows in ([], [[0, 1, 0, 0, 0, 0]], np.eye(f33.n, dtype=np.int64)[2:]):
        eqs = ProjSubspace(f33, 1, rows).equations
        assert eqs.dtype == np.int64 and eqs.shape == (len(rows), f33.n)
        with pytest.raises(ValueError, match="read-only"):
            eqs[0:1, 0] = 1
    assert axis_line(f33, 1).equations.shape == (f33.n - 2, f33.n)


def test_sigma_fixes_subgeometry_pointwise(f33, f35):
    assert sigma_fixes_subgeometry(f33, 1)
    assert sigma_fixes_subgeometry(f35, 1)


def test_sigma_action_on_points(f33):
    """Tiny-scale correctness of the equation transform: a point lies on the
    image exactly when its preimage lies on the original subspace."""
    rng = np.random.default_rng(0)
    g = quad_vertex(f33)
    gs = g.sigma_image()
    for x in rng.integers(1, f33.size, 20):
        pt = subgeometry_point(f33, 1, int(x))
        img = np.roll(f33.frob_vec(pt, 1), 1)
        assert g.contains_point(pt) == gs.contains_point(img)


def test_contains_point_on_a_subspace_through_it(f33):
    """Two equations that vanish at a subgeometry point: the point and its
    multiples lie on the subspace, and a point off it does not."""
    pt = subgeometry_point(f33, 1, 55)
    eqs = np.zeros((2, f33.n), dtype=np.int64)
    eqs[:, 0] = pt[1], pt[2]
    eqs[0, 1] = eqs[1, 2] = f33.neg(int(pt[0]))
    space = ProjSubspace(f33, 1, eqs)
    assert space.dim == f33.n - 3
    assert space.contains_point(pt)
    assert space.contains_point(f33.scale_vec(7, pt))
    assert not space.contains_point(subgeometry_point(f33, 1, 2))
    assert ProjSubspace(f33, 1, []).contains_point(pt)


def test_contains_point_refuses_malformed_points(f33):
    """A point has 2t element indices: extra or missing coordinates and
    indices outside [0, size) are refused, not ignored or wrapped."""
    space = ProjSubspace(f33, 1, [[1, f33.neg_one, 0, 0, 0, 0]])
    for coords in ([0, 1, 2, 3, 4, 5, 9, 9], [1, 1, 0, 0, 0]):
        with pytest.raises(ValueError, match="6 coordinates"):
            space.contains_point(coords)
    for bad in (-729, -1, f33.size):
        with pytest.raises(ValueError, match="element indices"):
            space.contains_point([1, 1, bad, 0, 0, 0])
    assert space.contains_point([1, 1, 5, 0, 0, 0])


def test_intersect_dim_single(f33):
    g = quad_vertex(f33)
    assert intersect_dim([g]) == g.dim
    with pytest.raises(ValueError, match="at least one subspace"):
        intersect_dim([])


@pytest.mark.parametrize("eq", [[1, 2, 3], [1, 0, 0, 0, 0, 0, 0], [[1, 0, 0, 0, 0, 0]]])
def test_equations_of_the_wrong_length_are_refused(f33, eq):
    with pytest.raises(ValueError, match="6 coordinates"):
        ProjSubspace(f33, 1, [[0, 1, 0, 0, 0, 0], eq])


def test_separation_chain_large_tower(f35):
    gamma = quad_vertex(f35)
    g1 = gamma.sigma_image()
    g2 = g1.sigma_image()
    assert intersect_dim([gamma, g1]) == 2 * f35.t - 5
    assert intersect_dim([gamma, g1, g2]) == 2 * f35.t - 7
    assert intersection_number(gamma) >= 3
    mono = polynomial_vertex(f35, 1, LinPoly.monomial(f35, 1, 1))
    assert intersection_number(mono) == 1
    assert intersection_number(lp_vertex(f35)) == 2


def test_separation_chain_small_tower_exploratory(f33):
    # the dimensions already separate the three families at the smallest tower
    vals = {
        "quad": intersection_number(quad_vertex(f33)),
        "mono": intersection_number(polynomial_vertex(f33, 1, LinPoly.monomial(f33, 1, 1))),
        "lp": intersection_number(lp_vertex(f33)),
    }
    assert vals["mono"] == 1 and vals["lp"] == 2 and vals["quad"] >= 3


def test_position_checks(f33):
    g = quad_vertex(f33)
    assert intersect_dim([g, axis_line(f33, 1)]) == -1
    assert not meets_subgeometry(g)
    # the degenerate m = 0 vertex meets the axis line and is refused
    zero_m = polynomial_vertex(
        f33, 1, build_quadrinomial(QuadParams(f33, 1, 0, 1))
    )
    with pytest.raises(ValueError, match="axis"):
        intersection_number(zero_m)


def test_intn_invariant_under_commuting_maps(f35):
    rng = np.random.default_rng(1)
    ctx = f35
    gamma = quad_vertex(ctx)
    base = intersection_number(gamma)

    # powers of the collineation itself (the image need not avoid the axis)
    assert intersection_number(gamma.sigma_image(3), check_position=False) == base

    # coordinate scalings X_i -> c^(q^(s i)) X_i commute with the collineation
    # (they move the axis, so only the intersection chain itself is checked)
    for c in rng.integers(2, ctx.size, 3):
        eqs = []
        for e in gamma.equations:
            scale = [ctx.inv(ctx.frob(int(c), i)) for i in range(ctx.n)]
            eqs.append(np.array([ctx.mul(int(e[i]), scale[i]) for i in range(ctx.n)]))
        moved = ProjSubspace(ctx, 1, eqs)
        assert intersection_number(moved, check_position=False) == base

    # the global p-power collineation commutes as well
    eqs = [ctx.pow_vec(e, ctx.p) for e in gamma.equations]
    assert intersection_number(ProjSubspace(ctx, 1, eqs), check_position=False) == base


def test_row_echelon_rank(f33):
    rows = [np.zeros(f33.n, dtype=np.int64) for _ in range(3)]
    rows[0][0] = 1
    rows[1][1] = 5
    rows[2][0] = 2  # dependent on the first row
    assert FieldEchelon(f33, rows).rank == 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.integers(1, 3), st.booleans(), st.data())
def test_meets_subgeometry_matches_all_points_reference(tower, k, through_point, data):
    ctx = make_field(*tower)
    s = data.draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    elements = st.integers(0, ctx.size - 1)
    rows = np.array(data.draw(st.lists(st.lists(elements, min_size=ctx.n, max_size=ctx.n),
                                       min_size=k, max_size=k)), dtype=np.int64)
    if through_point:
        # move the first coefficient of every row so that the row vanishes at
        # the subgeometry point of x
        pt = subgeometry_point(ctx, s, data.draw(st.integers(1, ctx.size - 1)))
        for e in rows:
            dot = 0
            for term in ctx.mul_vec(e, pt):
                dot = ctx.add(dot, int(term))
            e[0] = ctx.sub(int(e[0]), ctx.div(dot, int(pt[0])))
    one_term = data.draw(st.booleans())
    if one_term:
        # c * x^(q^(s*i)) alone has no nonzero root
        e = np.zeros(ctx.n, dtype=np.int64)
        e[data.draw(st.integers(0, ctx.n - 1))] = data.draw(st.integers(1, ctx.size - 1))
        rows = np.insert(rows, data.draw(st.integers(0, k)), e, axis=0)
    space = ProjSubspace(ctx, s, rows)
    want = meets_subgeometry_all_points(space)
    assert meets_subgeometry(space) == want
    assert not want if one_term else want or not through_point


def _vertices(ctx, s, pairs):
    return [polynomial_vertex(ctx, s, build_quadrinomial(QuadParams(ctx, s, m, h)))
            for m, h in pairs]


@pytest.mark.parametrize("s", [1, 5])
def test_intersection_chain_matches_reference_on_every_33_member(f33, s):
    for gamma in _vertices(f33, s, condition_pairs(f33, s)):
        assert intersection_number(gamma) == intersection_number_from_scratch(gamma)


@pytest.mark.parametrize("s", [1, 3])
def test_intersection_chain_matches_reference_at_35(f35, s):
    pairs = condition_pairs(f35, s)
    rng = np.random.default_rng(s)
    picks = rng.choice(len(pairs), 6, replace=False)
    for gamma in _vertices(f35, s, [pairs[i] for i in picks]):
        assert intersection_number(gamma) == intersection_number_from_scratch(gamma)


def test_intersection_chain_matches_reference_on_lp_and_pseudoregulus(f33, f35):
    for ctx in (f33, f35):
        for gamma in (lp_vertex(ctx), polynomial_vertex(ctx, 1, LinPoly.monomial(ctx, 1, 1))):
            assert intersection_number(gamma) == intersection_number_from_scratch(gamma)


def test_intersection_chain_matches_reference_on_sigma_images(f33, f35):
    for ctx in (f33, f35):
        for gamma in (quad_vertex(ctx), lp_vertex(ctx)):
            for j in range(1, ctx.n):
                image = gamma.sigma_image(j)
                assert (intersection_number(image, check_position=False)
                        == intersection_number_from_scratch(image, check_position=False))


def test_out_of_range_coefficients_are_refused(f33):
    for bad in (-1, -5, f33.size):
        row = np.zeros(f33.n, dtype=np.int64)
        row[1] = bad
        with pytest.raises(ValueError, match="element indices"):
            ProjSubspace(f33, 1, [row])
    row = np.zeros(f33.n, dtype=np.int64)
    row[:2] = (-1, -5)
    with pytest.raises(ValueError, match="element indices"):
        ProjSubspace(f33, 1, [row])
