"""Algebra of q^s-linearized polynomials, reduced modulo X^(q^(s*2t)) - X.

A polynomial sum a_i X^(q^(s*i)) is stored as a length-2t vector of element
indices, slot i holding the coefficient of X^(q^(s*i)).  The step s must be
coprime to 2t, so the slot view and the plain q-exponent view are related by
the bijection i -> s*i mod 2t.

`log_sums` is the one log-domain evaluator: it sums the terms of one
q-exponent support through Zech logarithms, for one row of coefficients
(`LinPoly.eval_vec`) or for a block of rows that share the term logs
(`scattered.fiber_profiles`).
"""

from __future__ import annotations

import json
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


class LinPoly:
    """Immutable q^s-linearized polynomial over the top field of a tower."""

    __slots__ = ("ctx", "s", "coeffs")

    def __init__(self, ctx: FieldCtx, s: int, coeffs):
        if gcd(s, ctx.n) != 1:
            raise ValueError(f"step s={s} must be coprime to 2t={ctx.n}")
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != (ctx.n,):
            raise ValueError(f"need exactly {ctx.n} coefficient slots")
        if not all(0 <= c < ctx.size for c in coeffs.tolist()):
            raise ValueError(f"coefficients must be element indices in [0, {ctx.size})")
        self.ctx = ctx
        self.s = s % ctx.n
        self.coeffs = coeffs.copy()
        self.coeffs.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms(cls, ctx: FieldCtx, s: int, terms: dict) -> "LinPoly":
        """Build from {slot: coefficient-index}."""
        c = np.zeros(ctx.n, dtype=np.int64)
        for i, a in terms.items():
            c[i % ctx.n] = a
        return cls(ctx, s, c)

    @classmethod
    def identity(cls, ctx: FieldCtx, s: int) -> "LinPoly":
        return cls.from_terms(ctx, s, {0: 1})

    @classmethod
    def monomial(cls, ctx: FieldCtx, s: int, slot: int, coeff: int = 1) -> "LinPoly":
        return cls.from_terms(ctx, s, {slot: coeff})

    @classmethod
    def zero(cls, ctx: FieldCtx, s: int) -> "LinPoly":
        return cls(ctx, s, np.zeros(ctx.n, dtype=np.int64))

    @classmethod
    def from_q_view(cls, ctx: FieldCtx, s: int, qcoeffs) -> "LinPoly":
        """Reindex a plain q-exponent coefficient vector into step-s slots."""
        qcoeffs = np.asarray(qcoeffs, dtype=np.int64)
        c = np.zeros(ctx.n, dtype=np.int64)
        for i in range(ctx.n):
            c[i] = qcoeffs[(s * i) % ctx.n]
        return cls(ctx, s, c)

    # -- views ----------------------------------------------------------------

    def q_view(self) -> np.ndarray:
        """Coefficient vector indexed by the plain q-exponent."""
        out = np.zeros(self.ctx.n, dtype=np.int64)
        for i in range(self.ctx.n):
            out[(self.s * i) % self.ctx.n] = self.coeffs[i]
        return out

    def support(self):
        return [i for i in range(self.ctx.n) if self.coeffs[i]]

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: int) -> int:
        ctx = self.ctx
        if not 0 <= x < ctx.size:
            raise ValueError(f"element index {x} outside [0, {ctx.size})")
        acc = 0
        for i in self.support():
            acc = ctx.add(acc, ctx.mul(int(self.coeffs[i]), ctx.frob(x, self.s * i)))
        return acc

    def eval_vec(self, xs) -> np.ndarray:
        """Values at the flattened xs, summed in the log domain by `log_sums`.

        With c0 the first coefficient of the support, f(x) = c0 * sum d_i
        x^(q^(s*i)) with d_i = c_i/c0.  `EXP` converts the log sum back once,
        and one `scale_vec` by c0 restores the factor.  Every term vanishes
        exactly at x = 0.  Indices outside [0, size) are refused with
        ValueError.
        """
        ctx = self.ctx
        xs = np.asarray(xs).ravel()
        if xs.size and not (0 <= xs.min() and xs.max() < ctx.size):
            raise ValueError(f"element indices must lie in [0, {ctx.size})")
        coeffs = self.coeffs.tolist()
        support = [i for i, c in enumerate(coeffs) if c]
        if not support:
            return np.zeros(xs.size, dtype=np.int64)
        c0 = coeffs[support[0]]
        logs = ctx.LOG[self.coeffs].tolist()
        acc, cancel = log_sums(ctx, (ctx.LOG[ctx.FROB[self.s * i % ctx.n][xs]] for i in support),
                               [(logs[i] - logs[support[0]]) % ctx.order for i in support[1:]])
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
        if self.s != other.s:
            raise ValueError("mismatched Frobenius steps")

    def add(self, other: "LinPoly") -> "LinPoly":
        self._check_mate(other)
        return LinPoly(self.ctx, self.s, self.ctx.add_vec(self.coeffs, other.coeffs))

    def sub(self, other: "LinPoly") -> "LinPoly":
        self._check_mate(other)
        return LinPoly(
            self.ctx, self.s, self.ctx.add_vec(self.coeffs, self.ctx.NEG[other.coeffs])
        )

    def scale(self, c: int) -> "LinPoly":
        return LinPoly(self.ctx, self.s, self.ctx.scale_vec(c, self.coeffs))

    def neg(self) -> "LinPoly":
        return LinPoly(self.ctx, self.s, self.ctx.NEG[self.coeffs])

    def compose(self, other: "LinPoly") -> "LinPoly":
        """self o other, reduced modulo X^(q^(s*2t)) - X."""
        self._check_mate(other)
        ctx = self.ctx
        acc = np.zeros((ctx.n, ctx.deg), dtype=np.int64)
        for i in self.support():
            fi = int(self.coeffs[i])
            for j in other.support():
                k = (i + j) % ctx.n
                term = ctx.mul(fi, ctx.frob(int(other.coeffs[j]), self.s * i))
                acc[k] += ctx.DIGITS[term]
        return LinPoly(ctx, self.s, (acc % ctx.p) @ ctx.PP)

    def adjoint(self) -> "LinPoly":
        """Slot n-i gets a_i**(q^(s*(n-i))); an involution preserving rank."""
        ctx = self.ctx
        c = np.zeros(ctx.n, dtype=np.int64)
        for i in self.support():
            k = (ctx.n - i) % ctx.n
            c[k] = ctx.frob(int(self.coeffs[i]), self.s * k)
        return LinPoly(ctx, self.s, c)

    def frobenius_twist(self, j: int) -> "LinPoly":
        """Apply the p-power automorphism x -> x**(p**j) to every coefficient."""
        ctx = self.ctx
        return LinPoly(ctx, self.s, ctx.pow_vec(self.coeffs, ctx.p ** (j % ctx.deg)))

    # -- linear-map structure -----------------------------------------------------

    def matrix(self) -> np.ndarray:
        """The induced F_p-linear map as a deg x deg matrix on the power basis."""
        ctx = self.ctx
        cols = [self.eval(int(ctx.PP[j])) for j in range(ctx.deg)]
        return ctx.DIGITS[cols].T.copy()

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

    def to_dict(self) -> dict:
        return {"s": self.s, "coeffs": [int(c) for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, ctx: FieldCtx, d: dict) -> "LinPoly":
        return cls(ctx, d["s"], np.array(d["coeffs"], dtype=np.int64))

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        return self.ctx == other.ctx and np.array_equal(self.q_view(), other.q_view())

    def __hash__(self):
        return hash((self.ctx, tuple(self.q_view())))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in self.support():
            c = int(self.coeffs[i])
            e = (self.s * i) % self.ctx.n
            if e == 0:
                base = "X"
            else:
                base = f"X^q^{e}" if e > 1 else "X^q"
            parts.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LinPoly(s={self.s}, {self})"
