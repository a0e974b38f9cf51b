"""Projective subspaces of PG(2t-1, q^(2t)) cut out by linear equations.

Subspaces are stored by their defining equations (co-rank form), because the
cyclic semilinear collineation acts cleanly there: an equation with
coefficient c at position i maps to one with c^(q^s) at position i+1 mod 2t.
The canonical subgeometry {<(x, x^(q^s), ..., x^(q^(s(2t-1))))>} is fixed
pointwise by that collineation.
"""

from __future__ import annotations

import numpy as np

from .fieldcore import FieldCtx
from .linpoly import LinPoly


def field_row_echelon(ctx: FieldCtx, rows):
    """Row echelon form over the top field; returns (reduced rows, rank)."""
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
    return m, r


class ProjSubspace:
    """A subspace given by equation rows over the coordinate positions 0..2t-1."""

    def __init__(self, ctx: FieldCtx, s: int, equations):
        self.ctx = ctx
        self.s = s
        eqs = [np.array(r, dtype=np.int64) for r in equations]
        if any(e.shape != (ctx.n,) for e in eqs):
            raise ValueError(f"equations must have {ctx.n} coordinates")
        self.equations = eqs

    @property
    def dim(self) -> int:
        """Projective dimension: 2t - rank(equations) - 1."""
        _, r = field_row_echelon(self.ctx, self.equations)
        return self.ctx.n - r - 1

    def sigma_image(self, power: int = 1) -> "ProjSubspace":
        """Image under the subgeometry-fixing collineation, `power` times.

        One step sends coefficient c at position i to c^(q^s) at position
        i+1 mod 2t.
        """
        ctx = self.ctx
        eqs = [e.copy() for e in self.equations]
        for _ in range(power % ctx.n):
            eqs = [np.roll(ctx.frob_vec(e, self.s), 1) for e in eqs]
        return ProjSubspace(ctx, self.s, eqs)

    def same_subspace(self, other: "ProjSubspace") -> bool:
        _, r1 = field_row_echelon(self.ctx, self.equations)
        _, r2 = field_row_echelon(self.ctx, other.equations)
        _, r12 = field_row_echelon(self.ctx, self.equations + other.equations)
        return r1 == r2 == r12

    def contains_point(self, coords) -> bool:
        ctx = self.ctx
        coords = np.asarray(coords, dtype=np.int64)
        for e in self.equations:
            acc = 0
            for i in range(ctx.n):
                acc = ctx.add(acc, ctx.mul(int(e[i]), int(coords[i])))
            if acc != 0:
                return False
        return True


def intersect_dim(subspaces) -> int:
    """Projective dimension of the common solution space."""
    if not subspaces:
        raise ValueError("need at least one subspace")
    ctx = subspaces[0].ctx
    rows = [e for s in subspaces for e in s.equations]
    _, r = field_row_echelon(ctx, rows)
    return ctx.n - r - 1


def subgeometry_point(ctx: FieldCtx, s: int, x: int) -> np.ndarray:
    """Coordinates (x, x^(q^s), ..., x^(q^(s(2t-1)))) of a subgeometry point."""
    return np.array([ctx.frob(x, s * i) for i in range(ctx.n)], dtype=np.int64)


def sigma_fixes_subgeometry(ctx: FieldCtx, s: int, sample: int = 25, seed: int = 0) -> bool:
    """The collineation fixes sampled subgeometry points projectively."""
    rng = np.random.default_rng(seed)
    for x in rng.integers(1, ctx.size, sample):
        pt = subgeometry_point(ctx, s, int(x))
        image = np.roll(ctx.frob_vec(pt, s), 1)
        # projective equality: image = lambda * pt
        i0 = next(i for i in range(ctx.n) if pt[i] != 0)
        lam = ctx.div(int(image[i0]), int(pt[i0]))
        if not all(int(image[i]) == ctx.mul(lam, int(pt[i])) for i in range(ctx.n)):
            return False
    return True


def polynomial_vertex(ctx: FieldCtx, s: int, f: LinPoly) -> ProjSubspace:
    """The projection vertex attached to a graph subspace {(x, f(x))}:
    equations X_0 = 0 and sum_i f_i X_i = 0 over the coordinate positions."""
    e0 = np.zeros(ctx.n, dtype=np.int64)
    e0[0] = 1
    return ProjSubspace(ctx, s, [e0, f.coeffs.copy()])


def axis_line(ctx: FieldCtx, s: int) -> ProjSubspace:
    """The line where every coordinate beyond the first two vanishes."""
    eqs = []
    for i in range(2, ctx.n):
        e = np.zeros(ctx.n, dtype=np.int64)
        e[i] = 1
        eqs.append(e)
    return ProjSubspace(ctx, s, eqs)


def meets_subgeometry(space: ProjSubspace) -> bool:
    """Does the subspace contain a point of the canonical subgeometry?

    Each equation is evaluated only on the x that satisfy the ones before it.
    """
    ctx, s = space.ctx, space.s
    xs = ctx.nonzero_elements()
    for e in space.equations:
        # equation sum_i e_i X_i at the point (x^(q^(s*i)))_i is a q^s-polynomial in x
        xs = xs[LinPoly(ctx, s, e).eval_vec(xs) == 0]
        if xs.size == 0:
            return False
    return True


def intersection_number(gamma: ProjSubspace, check_position: bool = True) -> int:
    """Least positive g with dim(gamma ^ gamma^sigma ^ ... ^ gamma^sigma^g)
    exceeding dim(gamma) - 2g.

    With check_position, first verifies the projection setup: the vertex
    misses both the axis line and the canonical subgeometry.
    """
    ctx = gamma.ctx
    if check_position:
        if intersect_dim([gamma, axis_line(ctx, gamma.s)]) >= 0:
            raise ValueError("vertex meets the axis line")
        if meets_subgeometry(gamma):
            raise ValueError("vertex meets the canonical subgeometry")
    k = gamma.dim
    chain = [gamma]
    current = gamma
    for g in range(1, ctx.n + 2):
        current = current.sigma_image()
        chain.append(current)
        if intersect_dim(chain) > k - 2 * g:
            return g
    raise RuntimeError("intersection number failed to stabilize")
