"""Differential tests of the F_p elimination against the masked and eager
references, and of the three-block graph-map system against the
per-element assembly."""

import numpy as np
from hypothesis import given, settings, strategies as st

from reference import (
    graph_system_per_element, graph_system_three_blocks, nullspace_loop, row_reduce_eager,
    row_reduce_masked, solve_affine_twice,
)
from scatlin import gflinalg
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly


@st.composite
def _matrices(draw):
    """(matrix, p): full random, or a product of rank at most r, with some
    rows and columns zeroed."""
    p = draw(st.sampled_from([3, 5, 7]))
    rows, cols = draw(st.integers(1, 120)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        mat = rng.integers(0, p, (rows, cols))
    else:
        r = draw(st.integers(0, min(rows, cols)))
        mat = rng.integers(0, p, (rows, r)) @ rng.integers(0, p, (r, cols)) % p
    mat[rng.random(rows) < draw(st.sampled_from([0.0, 0.2, 0.6])), :] = 0
    mat[:, rng.random(cols) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0
    return mat, p


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_row_reduce_matches_masked_reference(case):
    mat, p = case
    a, pivots = gflinalg.row_reduce(mat, p)
    want, want_pivots = row_reduce_masked(mat, p)
    assert _same(a, want)
    assert pivots == want_pivots
    assert gflinalg.rank(mat, p) == len(want_pivots)
    assert _same(gflinalg.nullspace(mat, p), nullspace_loop(mat, p))


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.booleans(), st.data())
def test_solve_affine_matches_reference(case, consistent, data):
    mat, p = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if consistent:
        rhs = mat @ rng.integers(0, p, mat.shape[1]) % p
    else:
        rhs = rng.integers(0, p, mat.shape[0])
    got, want = gflinalg.solve_affine(mat, rhs, p), solve_affine_twice(mat, rhs, p)
    assert (got is None) == (want is None)
    assert got is not None or not consistent
    if want is not None:
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        assert not ((mat @ got[0] - rhs) % p).any()


def test_row_reduce_degenerate_shapes():
    for shape in [(0, 4), (4, 0), (0, 0)]:
        mat = np.zeros(shape, dtype=np.int64)
        a, pivots = gflinalg.row_reduce(mat, 3)
        assert a.shape == shape and pivots == []
        assert _same(gflinalg.nullspace(mat, 3), nullspace_loop(mat, 3))


@st.composite
def _small_matrices(draw):
    """(matrix, p) up to 40x40 over p in {2, 3, 5, 7}, with some columns
    zeroed and some rows copies of others."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = rng.integers(0, p, (rows, cols))
    mat[:, rng.random(cols) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    copies = rng.random(rows) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    mat[copies] = mat[rng.integers(0, rows, copies.sum())]
    return mat, p


@settings(max_examples=150, deadline=None)
@given(_small_matrices(), st.booleans(), st.data())
def test_lazy_row_reduce_matches_eager_reference(case, consistent, data):
    mat, p = case
    a, pivots = gflinalg.row_reduce(mat, p)
    want, want_pivots = row_reduce_eager(mat, p)
    assert _same(a, want) and pivots == want_pivots
    # the augmented matrix that solve_affine reduces
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rhs = (mat @ rng.integers(0, p, mat.shape[1]) if consistent
           else rng.integers(0, p, mat.shape[0])) % p
    aug = np.hstack([mat, rhs[:, None]])
    want, want_pivots = row_reduce_eager(aug, p)
    a, pivots = gflinalg.row_reduce(aug, p)
    assert _same(a, want) and pivots == want_pivots
    cols = mat.shape[1]
    got = gflinalg.solve_affine(mat, rhs, p)
    assert (got is None) == (cols in want_pivots)
    if got is not None:
        assert _same(got[0][want_pivots], want[: len(want_pivots), cols])
        assert _same(got[1], nullspace_loop(mat, p))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4), (5, 1, 3), (3, 1, 5)]), st.data())
def test_graph_system_matches_per_element_assembly(tower, data):
    ctx = make_field(*tower)
    terms = st.dictionaries(st.integers(0, ctx.n - 1), st.integers(1, ctx.size - 1),
                            min_size=1, max_size=4)
    s = data.draw(st.sampled_from([1, ctx.n - 1]))
    f = LinPoly.from_terms(ctx, s, data.draw(terms))
    g = f if data.draw(st.booleans()) else LinPoly.from_terms(ctx, s, data.draw(terms))
    mat = graph_system_three_blocks(f, g)
    assert mat.shape == (ctx.n * ctx.deg, 3 * ctx.deg)
    # the reference keeps the gamma block, which the system leaves to slot 0
    d = ctx.deg
    assert _same(mat, np.delete(graph_system_per_element(f, g), np.s_[2 * d:3 * d], axis=1))
