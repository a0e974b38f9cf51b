"""Rank-metric codes spanned by X and one linearized polynomial.

For f in the reduced algebra, the code is the top-field span {a*X + b*f}.
Minimum distance, the maximum-rank-distance test, the two idealizers, the
stabilizer of the graph subspace {(x, f(x))} and the standard-form detector
all live here.  Codeword ranks and the minimum distance are read off
`scattered.fiber_counts`, which counts f(x)/x at one point per
F_q*-class on the `linpoly.log_sums` kernel of the sweeps (f is scattered
iff the code is MRD).

The stabilizer, the right idealizer and the GL search in `equivalence` never
enumerate the 2x2 matrix group (size ~ q^(4n)).  They share one linear
solve: g o (alpha*X + beta*f) = gamma*X + delta*f is F_p-linear in
(alpha, beta, gamma, delta) jointly, gamma enters only the X slot, and
delta is slot k0 over f_k0 for the first k0 >= 1 with f_k0 != 0.  So
`_graph_maps` gathers the slots of the image as field elements from the
tables, its beta part from `linpoly.composition_terms`, clears delta from
every slot, takes the nullspace of the (n-2)*deg x 2*deg system over F_p in
(alpha, beta) that the slots other than 0 and k0 form, and reads gamma and
delta off slots 0 and k0; each computation filters or projects that
solution space.  The left idealizer is F x {0}, or F x F when f o f lies in
the span; it is returned as a `PairRange`, which stores the two sizes and
never lists the q^n or q^(2n) pairs.

`mat_mul` and `mat_det` state the 2x2 matrix algebra on (alpha, beta, gamma,
delta) rows once, for every invertibility filter, closure test and witness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product
from math import gcd
import operator
import numpy as np

from . import gflinalg
from .fieldcore import FieldCtx, BudgetExceededError
from .linpoly import LinPoly, composition_terms
from .scattered import fiber_counts

# largest solution space enumerated here (memory grows linearly with it)
SOLUTION_SPACE_BOUND = 2 ** 20


class RankCode:
    """The 2-dimensional top-field span <X, f>, with cached statistics."""

    def __init__(self, f: LinPoly):
        if not f.coeffs[1:].any():
            raise ValueError("f must be independent of X: the span would be 1-dimensional")
        self.f = f
        self.ctx = f.ctx
        self._min_distance = None

    def codeword_ranks(self) -> np.ndarray:
        """Ranks (as F_q-maps) of one representative per projective class.

        Classes are (1, b) for every b, plus (0, 1); scaling by a nonzero
        field element never changes the rank.  X has rank n; the kernel of
        X + b*f (b != 0) is 0 plus the fiber of f(x)/x = -1/b, and that of f
        is 0 plus the kernel fiber, so the rank is n - log_q(1 + fiber count).
        """
        ctx = self.ctx
        counts = fiber_counts(self.f)
        logs = ctx.LOG[ctx.nonzero_elements()]
        slots = np.append((ctx.LOG[ctx.neg_one] - logs) % ctx.order, ctx.order)
        return np.concatenate([[ctx.n], ctx.n - _log_q(ctx, counts[slots] + 1)])

    def min_distance(self) -> int:
        """Minimum rank over the nonzero codewords (one per projective class).

        Every fiber of f(x)/x, the kernel fiber included, is the kernel of
        one class other than X (see `codeword_ranks`), and X has rank n, so
        this is n - log_q(1 + the largest fiber count).
        """
        if self._min_distance is None:
            self._min_distance = self.ctx.n - int(_log_q(self.ctx, fiber_counts(self.f).max() + 1))
        return self._min_distance

    def is_mrd(self) -> bool:
        """Meets the Singleton-like bound: |C| = q^(n(n-d+1)) with d = min dist.

        The span has q^(2n) elements, so this reduces to d = n - 1.
        """
        return self.min_distance() == self.ctx.n - 1


def _log_q(ctx: FieldCtx, sizes):
    """k with q^k = size, for each size; refused unless every size is such a power."""
    powers = ctx.q ** np.arange(ctx.n + 1, dtype=np.int64)
    dims = np.searchsorted(powers, sizes)
    if not np.array_equal(powers[np.minimum(dims, ctx.n)], sizes):
        raise RuntimeError("a fiber count is not q^k - 1")
    return dims


# ---------------------------------------------------------------------------
# the graph-map system g o (alpha*X + beta*f) = gamma*X + delta*f


def _graph_maps(f: LinPoly, g: LinPoly) -> np.ndarray:
    """All (alpha, beta, gamma, delta) with g o (alpha*X + beta*f) = gamma*X + delta*f.

    The X^(q^k) slot of g o (alpha*X + beta*f) reads
    g_k alpha^(q^k) + sum_i g_i f_(k-i)^(q^i) beta^(q^i), F_p-linear in
    (alpha, beta), with the beta coefficients of `linpoly.composition_terms`.
    Its values at alpha or beta = PP[j] (the other 0) are gathered from the
    field tables as field elements.  With k0 the first slot >= 1 where
    f_k0 != 0, delta = slot_k0 / f_k0, and slot k - f_k * delta is gamma
    for k = 0, 0 for k = k0, and must vanish for every other k.
    So (alpha, beta) is the nullspace of that (n-2)*deg x 2*deg system over
    F_p, and gamma and delta are its images under two deg x 2*deg maps.
    Returns an (N, 4) array of element indices in no particular order;
    every solution is rechecked by evaluating both sides on an F_p-basis of
    the top field.  f with no term beyond X is refused: delta is then not
    determined by any slot.
    """
    if f.ctx != g.ctx:
        raise ValueError("mismatched field contexts")
    ctx = f.ctx
    n, d, p = ctx.n, ctx.deg, ctx.p
    fq, gq = f.coeffs, g.coeffs
    beyond = np.flatnonzero(fq[1:])
    if not beyond.size:
        raise ValueError("f must be independent of X: delta is read off a slot k >= 1")
    k0 = 1 + int(beyond[0])
    frob_pp = ctx.FROB[:, ctx.PP]  # frob_pp[i, j] = PP[j]^(q^i)
    coef = composition_terms(ctx, gq, fq)
    beta = ctx.sum_vec(ctx.mul_vec(coef[:, :, None], frob_pp[:, None, :]))
    # slots[k, u*d + j]: slot k at unknown u in (alpha, beta) set to PP[j]
    slots = np.concatenate([ctx.mul_vec(gq[:, None], frob_pp), beta], axis=1)
    delta_part = ctx.scale_vec(ctx.inv(int(fq[k0])), slots[k0])
    cleared = ctx.add_vec(slots, ctx.mul_vec(ctx.NEG[fq][:, None], delta_part))
    # digits[k, r, :]: digit r of cleared slot k, and of delta for k = n
    digits = ctx.DIGITS[np.vstack([cleared, delta_part])].transpose(0, 2, 1)
    system = np.delete(digits[:n], [0, k0], axis=0).reshape((n - 2) * d, 2 * d)
    basis = gflinalg.nullspace(system, p)
    _refuse_above_bound(p, basis.shape[1])
    basis = np.concatenate([basis, digits[[0, n]].reshape(2 * d, 2 * d) @ basis % p])
    maps = ctx.from_digits_vec(gflinalg.span_vectors(basis, p).reshape(-1, 4, d))

    # both sides are F_p-linear in x, so agreeing on a basis is exact
    xs = ctx.PP
    fx = f.eval_vec(xs)
    alpha, beta, gamma, delta = (maps[:, u, None] for u in range(4))
    inner = ctx.add_vec(ctx.mul_vec(alpha, xs), ctx.mul_vec(beta, fx))
    lhs = g.eval_vec(inner.ravel()).reshape(inner.shape)
    rhs = ctx.add_vec(ctx.mul_vec(gamma, xs), ctx.mul_vec(delta, fx))
    if not np.array_equal(lhs, rhs):
        raise RuntimeError("graph-map solution failed exact recheck")
    return maps


def _refuse_above_bound(p: int, dim: int) -> None:
    if p ** dim > SOLUTION_SPACE_BOUND:
        raise BudgetExceededError(f"{p}^{dim} solutions, above the bound {SOLUTION_SPACE_BOUND}")


# ---------------------------------------------------------------------------
# 2x2 matrices (alpha, beta; gamma, delta) stored as index rows on the last axis


def mat_mul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Products a @ b of 2x2 matrices whose (alpha, beta, gamma, delta) run
    along the last axis; the leading axes broadcast, so one 4-tuple works too."""
    a, b = np.asarray(a), np.asarray(b)
    return ctx.add_vec(ctx.mul_vec(a[..., [0, 0, 2, 2]], b[..., [0, 1, 0, 1]]),
                       ctx.mul_vec(a[..., [1, 1, 3, 3]], b[..., [2, 3, 2, 3]]))


def mat_det(ctx: FieldCtx, m) -> np.ndarray:
    """Determinants alpha*delta - beta*gamma along the last axis, as `mat_mul` stores them."""
    m = np.asarray(m)
    return ctx.add_vec(ctx.mul_vec(m[..., 0], m[..., 3]),
                       ctx.NEG[ctx.mul_vec(m[..., 1], m[..., 2])])


# ---------------------------------------------------------------------------
# idealizers


def right_idealizer(code: RankCode):
    """All h = a*X + b*f with f o h back in the span, as sorted (a, b) pairs.

    Since X is a codeword, any right-idealizer element h = X o h must itself
    lie in the span, so these are the (alpha, beta) projections of the
    graph-map solutions of f onto itself, without the determinant filter.
    """
    maps = _graph_maps(code.f, code.f)
    return sorted(set(zip(maps[:, 0].tolist(), maps[:, 1].tolist())))


@dataclass(frozen=True, eq=False, slots=True)
class PairRange(Sequence):
    """The pairs (a, b) with 0 <= a < na and 0 <= b < nb, in row-major order.

    An immutable sequence that stores only its two sizes: pairs[i] is
    divmod(i, nb), a slice is a list of pairs, and membership is a range
    test on a 2-tuple of integers.  It compares equal to any sequence of
    the same pairs in the same order.
    """

    na: int
    nb: int

    def __len__(self) -> int:
        return self.na * self.nb

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [divmod(j, self.nb) for j in range(len(self))[i]]
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("pair index out of range")
        return divmod(i % n, self.nb)

    def __iter__(self):
        return product(range(self.na), range(self.nb))

    def __contains__(self, pair) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        try:
            a, b = map(operator.index, pair)
        except TypeError:
            return False
        return 0 <= a < self.na and 0 <= b < self.nb

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def left_idealizer(code: RankCode) -> PairRange:
    """All g = a*X + b*f with g o f back in the span, as a `PairRange` of (a, b).

    g o f = a*f + b*(f o f) and a*f is a codeword, so the answer is F x {0},
    or F x F when (f o f)_k = b'*f_k for one b' in every slot k >= 1.
    Each pair fixes the a', b' of g o f = a'*X + b'*f, so the pair count is
    a solution-space size, refused above SOLUTION_SPACE_BOUND.  The pairs
    come in the sorted order of element indices, as `right_idealizer`'s do.
    """
    ctx = code.ctx
    fq, ffq = code.f.coeffs, code.f.compose(code.f).coeffs
    k = 1 + int(np.flatnonzero(fq[1:])[0])
    ratio = ctx.mul(int(ffq[k]), ctx.inv(int(fq[k])))
    closed = np.array_equal(ffq[1:], ctx.scale_vec(ratio, fq[1:]))
    _refuse_above_bound(ctx.p, 2 * ctx.deg if closed else ctx.deg)
    return PairRange(ctx.size, ctx.size if closed else 1)


# ---------------------------------------------------------------------------
# stabilizer of the graph subspace


@dataclass
class StabilizerSet:
    """Invertible 2x2 matrices (a, b; c, d) with f(a*X + b*f) = c*X + d*f."""

    f: LinPoly
    elements: list  # tuples (alpha, beta, gamma, delta), all invertible

    @property
    def order_with_zero(self) -> int:
        return len(self.elements) + 1

    def is_diagonal_only(self) -> bool:
        return all(b == 0 and c == 0 for _, b, c, _ in self.elements)

    def closure_flags(self) -> dict:
        """Additive and multiplicative closure of the set with the zero matrix.

        Exact, without testing all pairs.  The set lies in its F_p-span,
        which has p^r elements for r the F_p-rank of the digit vectors of
        its entries; so the set is additively closed iff it has p^r
        elements, and it is then that span.  The product is bilinear, so a
        span is closed under products iff the products of pairs of basis
        elements lie in it: r^2 products of one broadcast `mat_mul`, each
        compared with the set's rows entry by entry.  For a set that is not
        additively closed that test does not apply, and "multiplicative" is
        None; such a set is no field either way.
        """
        ctx = self.f.ctx
        p = ctx.p
        r = 0
        while p ** r < self.order_with_zero:
            r += 1
        if p ** r != self.order_with_zero:
            return {"additive": False, "multiplicative": None}
        mats = np.array(self.elements + [(0, 0, 0, 0)], dtype=np.int64)
        # pivot columns of the transposed digit matrix: a basis among the elements
        digits = ctx.DIGITS[mats].reshape(len(mats), -1)
        _, pivots = gflinalg.row_reduce(digits.T, p)
        if len(pivots) != r:
            return {"additive": False, "multiplicative": None}
        basis = mats[pivots]
        prods = mat_mul(ctx, basis[:, None], basis[None, :]).reshape(-1, 4)
        mul_ok = set(map(tuple, prods.tolist())) <= set(map(tuple, mats.tolist()))
        return {"additive": True, "multiplicative": mul_ok}

    def to_report(self) -> dict:
        flags = self.closure_flags()
        return {
            "order": self.order_with_zero,
            "is_field": bool(flags["additive"] and flags["multiplicative"]),
            "diagonal_only": self.is_diagonal_only(),
            "sample_elements": [list(map(int, m)) for m in self.elements[:8]],
        }


def stabilizer(f: LinPoly) -> StabilizerSet:
    """All invertible (a, b; c, d) with f o (a*X + b*f) = c*X + d*f, sorted.

    These are the graph-map solutions of f onto itself with nonzero
    determinant.
    """
    if f.is_zero():
        raise ValueError("stabilizer of the zero polynomial is not defined")
    maps = _graph_maps(f, f)
    elements = sorted(map(tuple, maps[mat_det(f.ctx, maps) != 0].tolist()))
    if (1, 0, 0, 1) not in elements:
        raise RuntimeError("identity matrix missing from stabilizer")
    return StabilizerSet(f, elements)


# ---------------------------------------------------------------------------
# standard form


def standard_form(f: LinPoly) -> dict:
    """Exponent-difference profile of the q-exponents of f.

    delta_set is {(i - j) mod n : both coefficients nonzero, i != j} plus n;
    r is its gcd; f is standard when r > 1, and then all exponents share one
    residue s0 mod r with gcd(s0, r) = 1.
    """
    if f.is_zero():
        raise ValueError("standard form of the zero polynomial is not defined")
    ctx = f.ctx
    supp_q = f.support()
    deltas = {(i - j) % ctx.n for i in supp_q for j in supp_q if i != j}
    deltas.add(ctx.n)
    r = 0
    for dlt in deltas:
        r = gcd(r, dlt)
    report = {
        "delta_set": sorted(deltas),
        "r": int(r),
        "is_standard": r > 1,
        "residue": None,
        "shape_ok": None,
    }
    if r > 1:
        residues = {i % r for i in supp_q}
        report["shape_ok"] = len(residues) == 1
        if len(residues) == 1:
            s0 = residues.pop()
            report["residue"] = int(s0)
            report["shape_ok"] = gcd(s0, r) == 1
    return report
