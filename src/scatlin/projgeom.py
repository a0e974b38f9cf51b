"""Projective subspaces of PG(2t-1, q^(2t)) cut out by linear equations.

Subspaces are stored by their defining equations (co-rank form), one (r, 2t)
array, because the cyclic semilinear collineation acts cleanly there: k steps
map coefficient c at position i to c^(q^(s*k)) at position i+k mod 2t.
The canonical subgeometry {<(x, x^(q^s), ..., x^(q^(s(2t-1))))>} is fixed
pointwise by that collineation.

Every rank over the top field comes from one elimination, `FieldEchelon`,
which keeps its rows reduced and takes new rows one at a time.  The
intersection number grows one such echelon along the chain gamma,
gamma^sigma, ..., adding the equations of each image, so no chain is
eliminated twice.
"""

from __future__ import annotations

import numpy as np

from .fieldcore import FieldCtx
from .linpoly import LinPoly


class FieldEchelon:
    """Rows over the top field in reduced echelon form, grown one row at a time.

    Each kept row is 1 at its pivot and 0 at every other pivot, so a new row
    is reduced against all of them at once: its entries at the pivots are
    the multiples to subtract, and the sum is taken on base-p digits.  A row
    that reduces to zero adds nothing; any other is scaled to 1 at its
    first nonzero column, which is then cleared from the kept rows.
    """

    def __init__(self, ctx: FieldCtx, rows=()):
        self.ctx = ctx
        self.rows = np.zeros((0, ctx.n), dtype=np.int64)
        self.pivots = []
        self.add(rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, rows) -> None:
        ctx = self.ctx
        for v in rows:
            v = np.asarray(v, dtype=np.int64)
            coef = v[self.pivots]
            if coef.any():
                # one fused signed pass on digits: sum_vec plus a NEG gather is slower here
                terms = ctx.DIGITS[ctx.mul_vec(coef[:, None], self.rows)].sum(axis=0)
                v = (ctx.DIGITS[v] - terms) % ctx.p @ ctx.PP
            nz = np.flatnonzero(v)
            if nz.size == 0:
                continue
            c = int(nz[0])
            v = ctx.scale_vec(ctx.inv(int(v[c])), v)
            col = self.rows[:, c]
            if col.any():
                cleared = ctx.DIGITS[self.rows] - ctx.DIGITS[ctx.mul_vec(col[:, None], v)]
                self.rows = cleared % ctx.p @ ctx.PP
            self.rows = np.vstack([self.rows, v])
            self.pivots.append(c)


class ProjSubspace:
    """A subspace: one read-only (r, 2t) int64 array of equation rows over positions 0..2t-1."""

    def __init__(self, ctx: FieldCtx, s: int, equations):
        self.ctx = ctx
        self.s = s
        rows = [np.asarray(r, dtype=np.int64) for r in equations]
        if any(r.shape != (ctx.n,) for r in rows):
            raise ValueError(f"equations must have {ctx.n} coordinates")
        eqs = np.array(rows, dtype=np.int64).reshape(len(rows), ctx.n)
        if ((eqs < 0) | (eqs >= ctx.size)).any():
            raise ValueError(f"equation coefficients must be element indices in [0, {ctx.size})")
        eqs.setflags(write=False)
        self.equations = eqs

    @property
    def dim(self) -> int:
        """Projective dimension: 2t - rank(equations) - 1."""
        return self.ctx.n - FieldEchelon(self.ctx, self.equations).rank - 1

    def sigma_image(self, power: int = 1) -> "ProjSubspace":
        """Image under the subgeometry-fixing collineation, `power` times.

        One step sends coefficient c at position i to c^(q^s) at position
        i+1 mod 2t, so k = power mod 2t steps send it to c^(q^(s*k)) at
        position i+k: one Frobenius gather and one roll.
        """
        k = power % self.ctx.n
        eqs = np.roll(self.ctx.frob_vec(self.equations, self.s * k), k, axis=1)
        return ProjSubspace(self.ctx, self.s, eqs)

    def same_subspace(self, other: "ProjSubspace") -> bool:
        both = FieldEchelon(self.ctx, self.equations)
        r1 = both.rank
        both.add(other.equations)
        return r1 == FieldEchelon(self.ctx, other.equations).rank == both.rank

    def contains_point(self, coords) -> bool:
        """Every equation vanishes at the coordinates, 2t element indices;
        anything else is refused with ValueError."""
        ctx = self.ctx
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape != (ctx.n,):
            raise ValueError(f"a point has {ctx.n} coordinates")
        if ((coords < 0) | (coords >= ctx.size)).any():
            raise ValueError(f"coordinates must be element indices in [0, {ctx.size})")
        terms = ctx.mul_vec(self.equations, coords)
        return not ctx.sum_vec(terms, axis=1).any()


def intersect_dim(subspaces) -> int:
    """Projective dimension of the common solution space."""
    if not subspaces:
        raise ValueError("need at least one subspace")
    ctx = subspaces[0].ctx
    rows = np.concatenate([sp.equations for sp in subspaces])
    return ctx.n - FieldEchelon(ctx, rows).rank - 1


def subgeometry_point(ctx: FieldCtx, s: int, x: int) -> np.ndarray:
    """Coordinates (x, x^(q^s), ..., x^(q^(s(2t-1)))) of a subgeometry point."""
    return np.array([ctx.frob(x, s * i) for i in range(ctx.n)], dtype=np.int64)


def sigma_fixes_subgeometry(ctx: FieldCtx, s: int) -> bool:
    """The collineation fixes 25 seeded subgeometry points projectively."""
    rng = np.random.default_rng(0)
    for x in rng.integers(1, ctx.size, 25):
        pt = subgeometry_point(ctx, s, int(x))
        image = np.roll(ctx.frob_vec(pt, s), 1)
        # projective equality image = lambda * pt, read at pt[0] = x != 0
        if not np.array_equal(image, ctx.scale_vec(ctx.div(int(image[0]), int(x)), pt)):
            return False
    return True


def polynomial_vertex(ctx: FieldCtx, s: int, f: LinPoly) -> ProjSubspace:
    """The projection vertex attached to a graph subspace {(x, f(x))}:
    equations X_0 = 0 and sum_i a_i X_i = 0 over the coordinate positions,
    with a_i the coefficient of X^(q^(s*i)) in f."""
    e0 = np.zeros(ctx.n, dtype=np.int64)
    e0[0] = 1
    return ProjSubspace(ctx, s, [e0, f.coeffs[s * np.arange(ctx.n) % ctx.n]])


def axis_line(ctx: FieldCtx, s: int) -> ProjSubspace:
    """The line where every coordinate beyond the first two vanishes."""
    return ProjSubspace(ctx, s, np.eye(ctx.n, dtype=np.int64)[2:])


def meets_subgeometry(space: ProjSubspace) -> bool:
    """Does the subspace contain a point of the canonical subgeometry?

    An equation with one nonzero coefficient, c*x^(q^(s*i)) = 0, has no
    nonzero root, so the answer is False at once.  Otherwise each equation
    is evaluated only on the x that satisfy the ones before it.
    """
    ctx, s = space.ctx, space.s
    if (np.count_nonzero(space.equations, axis=1) == 1).any():
        return False
    xs = ctx.nonzero_elements()
    for e in space.equations:
        # equation sum_i e_i X_i at the point (x^(q^(s*i)))_i is a q^s-polynomial in x
        xs = xs[LinPoly.from_terms(ctx, s, dict(enumerate(e.tolist()))).eval_vec(xs) == 0]
        if xs.size == 0:
            return False
    return True


def intersection_number(gamma: ProjSubspace, check_position: bool = True) -> int:
    """Least positive g with dim(gamma ^ gamma^sigma ^ ... ^ gamma^sigma^g)
    exceeding dim(gamma) - 2g.

    With check_position, first verifies the projection setup: the vertex
    misses both the axis line and the canonical subgeometry.  The chain is
    one echelon that takes the equations of each new image.
    """
    ctx = gamma.ctx
    if check_position:
        if intersect_dim([gamma, axis_line(ctx, gamma.s)]) >= 0:
            raise ValueError("vertex meets the axis line")
        if meets_subgeometry(gamma):
            raise ValueError("vertex meets the canonical subgeometry")
    chain = FieldEchelon(ctx, gamma.equations)
    k = ctx.n - chain.rank - 1
    image = gamma
    for g in range(1, ctx.n + 2):
        image = image.sigma_image()
        chain.add(image.equations)
        if ctx.n - chain.rank - 1 > k - 2 * g:
            return g
    raise RuntimeError("intersection number failed to stabilize")
