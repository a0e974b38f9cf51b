"""Algebra of q-linearized polynomials, reduced modulo X^(q^(2t)) - X.

A polynomial sum_e a_e X^(q^e) is stored as a length-2t vector of element
indices, entry e holding the coefficient of X^(q^e).  A q^s-polynomial
sum_i a_i X^(q^(s*i)) with s coprime to 2t is the q-polynomial with a_i at
exponent s*i mod 2t; `from_terms` reads such a step-s presentation, and it
is the one place where a step enters.

`log_sums` is the one log-domain evaluator: it sums the terms of one
q-exponent support through Zech logarithms, for one row of coefficients
(`LinPoly.eval_vec`) or for a block of rows that share the term logs
(`scattered.fiber_profiles`).
"""

from __future__ import annotations

from math import gcd
import numpy as np

from . import gflinalg
from .fieldcore import FieldCtx


def log_sums(ctx: FieldCtx, terms, offsets) -> tuple:
    """Logs of sum_i d_i x^(q^e_i) with d_0 = 1, for one row of d or a block of rows.

    `terms` yields LOG[x^(q^e_i)] on the points x, one array per term, and
    offsets[i - 1] is the log of d_i, in [0, order): an int for one row, or
    a column (rows, 1) for a block of rows.  A block leaves its term arrays
    untouched, so that blocks can share them; one row sums into its term
    arrays in place, so its caller hands over arrays it does not read
    again, and may make them lazily.  The partial sum acc takes each term
    lt through one Zech logarithm, acc + ZECH[lt - acc].
    Returns (acc, cancel): acc is the first term alone for a one-term
    support, and otherwise has the shape of the sums; cancel marks where a
    sum is 0 (acc reads 0 there), or is None where none cancels.  The logs
    at x = 0 are meaningless; callers mask them.

    No log is reduced by a division: each lies in a known range below
    2*order, and `reduce_logs` brings it into [0, order) by one conditional
    subtraction.  lt lies in [0, 2*order) before it is reduced, so lt - acc
    lies in (-order, order), which ZECH (period order) takes with a negative
    index wrapping; acc + ZECH[lt - acc] lies in [-1, 2*order - 1).  Where a
    partial sum cancels (the mark -1), acc is reset to 0 so that the next
    index stays in range, and the next term replaces it.
    """
    terms = iter(terms)
    acc, cancel = next(terms), None
    for term, off in zip(terms, offsets):
        if isinstance(off, int):
            term += off
            lt = term
        else:
            lt = term + off
        ctx.reduce_logs(lt)
        z = ctx.ZECH[lt - acc]
        if acc.shape == z.shape:
            acc += z
        else:               # the first sum of a block: the first term is shared
            acc = acc + z
        ctx.reduce_logs(acc)
        if cancel is not None:
            acc[cancel] = lt[cancel]
            z[cancel] = 0
        cancel = z < 0
        if cancel.any():
            acc[cancel] = 0
        else:
            cancel = None
    return acc, cancel


def composition_terms(ctx: FieldCtx, g, f) -> np.ndarray:
    """terms[i, k] = g_i * f_(k-i)^(q^i), element indices, from the coefficient vectors g, f.

    g o f = sum_i g_i (sum_j f_j X^(q^j))^(q^i), so the coefficient of
    X^(q^k) in g o f is the sum of column k.
    """
    g, f = np.asarray(g), np.asarray(f)
    i = np.arange(ctx.n)
    return ctx.mul_vec(g[:, None], ctx.FROB[i[:, None], f[(i[None, :] - i[:, None]) % ctx.n]])


class LinPoly:
    """Immutable q-linearized polynomial over the top field of a tower."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = np.array(coeffs, dtype=np.int64)
        if coeffs.shape != (ctx.n,):
            raise ValueError(f"need exactly {ctx.n} coefficients")
        if ((coeffs < 0) | (coeffs >= ctx.size)).any():
            raise ValueError(f"coefficients must be element indices in [0, {ctx.size})")
        coeffs.setflags(write=False)
        self.ctx = ctx
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms(cls, ctx: FieldCtx, s: int, terms: dict) -> "LinPoly":
        """sum_i a_i X^(q^(s*i)) from the step-s presentation {i: a_i}, 0 <= i < 2t."""
        if gcd(s, ctx.n) != 1:
            raise ValueError(f"step s={s} must be coprime to 2t={ctx.n}")
        if terms and not (0 <= min(terms) and max(terms) < ctx.n):
            raise ValueError(f"slots must lie in [0, {ctx.n})")
        c = np.zeros(ctx.n, dtype=np.int64)
        for i, a in terms.items():
            c[s * i % ctx.n] = a
        return cls(ctx, c)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinPoly":
        return cls.from_terms(ctx, 1, {0: 1})

    @classmethod
    def monomial(cls, ctx: FieldCtx, s: int, slot: int, coeff: int = 1) -> "LinPoly":
        """coeff * X^(q^(s*slot))."""
        return cls.from_terms(ctx, s, {slot: coeff})

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, np.zeros(ctx.n, dtype=np.int64))

    def support(self):
        """The q-exponents with a nonzero coefficient, in increasing order."""
        return np.flatnonzero(self.coeffs).tolist()

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: int) -> int:
        ctx = self.ctx
        ctx.refuse_index(x)
        acc = 0
        for e in self.support():
            acc = ctx.add(acc, ctx.mul(int(self.coeffs[e]), ctx.frob(x, e)))
        return acc

    def eval_vec(self, xs) -> np.ndarray:
        """Values at the flattened xs, summed in the log domain by `log_sums`.

        With c0 the first coefficient of the support, f(x) = c0 * sum d_e
        x^(q^e) with d_e = c_e/c0.  `EXP` converts the log sum back once,
        and one `scale_vec` by c0 restores the factor.  Every term vanishes
        exactly at x = 0.  Indices outside [0, size) are refused with
        ValueError.
        """
        ctx = self.ctx
        xs = np.asarray(xs).ravel()
        if xs.size and not (0 <= xs.min() and xs.max() < ctx.size):
            raise ValueError(f"element indices must lie in [0, {ctx.size})")
        coeffs = self.coeffs.tolist()
        support = [e for e, c in enumerate(coeffs) if c]
        if not support:
            return np.zeros(xs.size, dtype=np.int64)
        c0 = coeffs[support[0]]
        logs = ctx.LOG[self.coeffs].tolist()
        acc, cancel = log_sums(ctx, (ctx.LOG[ctx.FROB[e][xs]] for e in support),
                               [(logs[e] - logs[support[0]]) % ctx.order for e in support[1:]])
        out = ctx.EXP[acc]
        if cancel is not None:
            out[cancel] = 0
        out[xs == 0] = 0
        return ctx.scale_vec(c0, out)

    def eval_field(self) -> np.ndarray:
        """Values on every element, indexed by element index."""
        return self.eval_vec(self.ctx.elements())

    # -- ring operations --------------------------------------------------------

    def _check_mate(self, other: "LinPoly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mismatched field contexts")

    def add(self, other: "LinPoly") -> "LinPoly":
        self._check_mate(other)
        return LinPoly(self.ctx, self.ctx.add_vec(self.coeffs, other.coeffs))

    def scale(self, c: int) -> "LinPoly":
        """c * self; c outside [0, size) is refused with ValueError."""
        self.ctx.refuse_index(c)
        return LinPoly(self.ctx, self.ctx.scale_vec(c, self.coeffs))

    def neg(self) -> "LinPoly":
        return LinPoly(self.ctx, self.ctx.NEG[self.coeffs])

    def compose(self, other: "LinPoly") -> "LinPoly":
        """self o other, reduced modulo X^(q^(2t)) - X: coefficient k is the
        `sum_vec` of column k of `composition_terms`."""
        self._check_mate(other)
        ctx = self.ctx
        return LinPoly(ctx, ctx.sum_vec(composition_terms(ctx, self.coeffs, other.coeffs)))

    def adjoint(self) -> "LinPoly":
        """Exponent k gets a_(n-k)**(q^k); an involution preserving rank."""
        ctx = self.ctx
        k = np.arange(ctx.n)
        return LinPoly(ctx, ctx.FROB[k, self.coeffs[-k % ctx.n]])

    def frobenius_twist(self, j: int) -> "LinPoly":
        """Apply the p-power automorphism x -> x**(p**j) to every coefficient."""
        ctx = self.ctx
        return LinPoly(ctx, ctx.pow_vec(self.coeffs, ctx.p ** (j % ctx.deg)))

    # -- linear-map structure -----------------------------------------------------

    def matrix(self) -> np.ndarray:
        """The induced F_p-linear map as a deg x deg matrix on the power basis."""
        return self.ctx.DIGITS[self.eval_vec(self.ctx.PP)].T.copy()

    def kernel_basis(self):
        """An F_p-basis of the kernel, as a list of element indices."""
        ns = gflinalg.nullspace(self.matrix(), self.ctx.p)
        return [self.ctx.from_digits(ns[:, j]) for j in range(ns.shape[1])]

    def kernel_set(self) -> np.ndarray:
        """All kernel elements (sorted indices); fine at desk scale."""
        vals = self.eval_field()
        return np.nonzero(vals == 0)[0]

    def image_membership(self, y: int) -> bool:
        sol = gflinalg.solve_affine(self.matrix(), self.ctx.DIGITS[y], self.ctx.p)
        return sol is not None

    def image_set(self) -> np.ndarray:
        """All image elements (sorted indices); fine at desk scale."""
        return np.unique(self.eval_field())

    # -- misc -----------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        return self.ctx == other.ctx and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.ctx, tuple(self.coeffs.tolist())))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in self.support():
            c = int(self.coeffs[e])
            base = "X" if e == 0 else f"X^q^{e}" if e > 1 else "X^q"
            parts.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LinPoly({self})"
