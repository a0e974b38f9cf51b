"""Exact arithmetic in the tower F_p <= F_q <= F_{q^t} <= F_{q^(2t)}, q = p^e.

Elements of the top field are plain ints: the canonical index whose base-p
digits (little-endian) are the coefficients of the residue polynomial modulo
a fixed irreducible.  Index 0 is the additive and index 1 the multiplicative
identity, and all I/O, sorting and tie-breaking use this index, so every
derived quantity in the package is reproducible bit for bit.

Two conventions make results comparable across runs and machines:

* the modulus is the lexicographically smallest monic irreducible of degree
  e*2t over F_p, ordered by coefficient tuple with the constant term first
  (not a Conway polynomial -- no bundled tables);
* the generator is the smallest index that has full multiplicative order.

The construction is d x d linear algebra over F_p with the companion matrix
C of the modulus (multiplication by x on the power basis, d = e*2t):

* the modulus search skips every candidate of degree >= 2 with a root in
  F_p, and the p-power matrix Q decides the rest (irreducible iff Q^d = I
  and rank(Q - I) = d - 1);
* the generator search tests a = 2, 3, ... in batches of 4, 8, 16, ...:
  a has full order iff a(C)^(order/r) != I for every prime r | order, and
  each batch computes these cofactor powers on one stack of matrices;
* the exp table is filled in blocks G^(iB) [g^0 ... g^(B-1)] with G = g(C).

The matrices are float64, so that their products run through BLAS, and each
product is reduced mod p as x - p*floor((x + 0.5)/p).  This is exact because
every value is an integer far below 2^53: a product-sum is at most d(p-1)^2,
which is below 2^10 on every tower FieldCtx admits, and a digit vector times
the place values is below the field size, at most TABLE_SIZE_BOUND = 2^24.
The Frobenius index maps are gathers from the finished tables,
x^q = exp[q*log x].

Arithmetic stays in the log domain: multiplication runs through the exp/log
tables, addition through the Zech logarithms ZECH[k] = log(1 + g^k) as
a + b = a*(1 + b/a), and Frobenius through precomputed index maps.  Arrays
of logs are reduced mod order by `reduce_logs`, a conditional subtraction
where their range is known to lie below 2*order.  The base-p digit table
DIGITS is kept for F_p coordinates: matrices, linear solves and `sum_vec`,
the field sum of many terms.  All bulk operations accept numpy arrays of
indices, `in_subfield` (the one subfield test) among them.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd
import numpy as np

from . import gflinalg

TABLE_SIZE_BOUND = 2 ** 24


class FieldConstructionError(ValueError):
    """Raised when (p, e, t) cannot yield a valid tower context."""


class BudgetExceededError(RuntimeError):
    """An operation refused to run because the field exceeds its size budget."""


class DirectSumError(ArithmeticError):
    """A decomposition was requested along subspaces that do not split the field."""


# ---------------------------------------------------------------------------
# F_p-matrices of the residue algebra F_p[x]/(m) on the power basis 1, x, ...,
# x^(d-1); a column holds the base-p digits of an element index.  They are
# float64 with entries in [0, p-1] (see the module docstring for why that is
# exact); the searches refuse any (p, d) where d(p-1)^2 reaches 2^50.


def _digits(idx, p: int, d: int) -> np.ndarray:
    """Base-p digits of one index or of an array of indices, on the last axis."""
    return (np.asarray(idx, dtype=np.int64)[..., None] // p ** np.arange(d) % p).astype(float)


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, stacked like np.matmul.

    x - p*floor((x + 0.5)/p) is exact for an integer 0 <= x < 2^50: x + 0.5
    is exact, and (x + 0.5)/p lies at least 0.5/p away from an integer, while
    its rounding error stays below 0.13/p.
    """
    x = a @ b
    q = x + 0.5
    q /= p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _powmod(mat: np.ndarray, exps, p: int) -> np.ndarray:
    """mat**k mod p for every k in exps, stacked along a new first axis.

    Square and multiply, with the squarings mat^(2^i) shared by all
    exponents; mat may itself be a stack of square matrices.
    """
    squares = [mat]
    while 1 << len(squares) <= max(exps):
        squares.append(_mulmod(squares[-1], squares[-1], p))
    out = []
    for k in exps:
        acc = None
        for i, sq in enumerate(squares):
            if k >> i & 1:
                acc = sq if acc is None else _mulmod(acc, sq, p)
        out.append(np.broadcast_to(np.eye(mat.shape[-1]), mat.shape) if acc is None else acc)
    return np.stack(out)


def _krylov(mat: np.ndarray, v, p: int) -> np.ndarray:
    """The d columns v, mat v, ..., mat^(d-1) v; a(C) when mat = C and v = a.

    A stack of vectors (..., d) gives a stack of matrices (..., d, d).
    """
    cols = [v]
    right = mat.T.copy()  # v @ mat.T is mat v for each vector of the stack
    for _ in range(len(mat) - 1):
        cols.append(_mulmod(cols[-1], right, p))
    return np.stack(cols, axis=-1)


def _companion(m, p: int) -> np.ndarray:
    """Companion matrix C of the monic m: multiplication by x."""
    d = len(m) - 1
    comp = np.eye(d, k=-1)
    comp[:, -1] = -np.asarray(m[:d]) % p
    return comp


def _frobenius_matrix(comp: np.ndarray, p: int) -> np.ndarray:
    """The p-power map: column j is x^(jp) = (C^p)^j e_0."""
    return _krylov(_powmod(comp, [p], p)[0], _digits(1, p, len(comp)), p)


def _check_exact(p: int, d: int):
    if d * (p - 1) ** 2 >= 2 ** 50:
        raise FieldConstructionError(f"F_{p}-matrices of size {d} exceed exact float64 range")


def _is_irreducible(m, p):
    """Degree-d monic m is irreducible over F_p.

    With Q the p-power matrix modulo m: Q^d = I says x^(p^d) = x, so m is
    squarefree (Rabin), and then rank(Q - I) = d - 1 says the fixed space
    has dimension one, i.e. m has a single irreducible factor (Berlekamp).
    """
    d = len(m) - 1
    frob = _frobenius_matrix(_companion(m, p), p)
    eye = np.eye(d)
    return np.array_equal(_powmod(frob, [d], p)[0], eye) and gflinalg.rank(frob - eye, p) == d - 1


def _has_root(m, p: int) -> bool:
    """Some r in F_p has m(r) = 0 (Horner's rule)."""
    for r in range(p):
        v = 0
        for c in reversed(m):
            v = (v * r + c) % p
        if v == 0:
            return True
    return False


def smallest_irreducible(p: int, d: int) -> list:
    """Lexicographically smallest monic irreducible of degree d over F_p.

    Candidates are ordered by the tuple (c_0, c_1, ..., c_{d-1}), constant
    term first; the returned list is little-endian with the leading 1.  A
    candidate of degree d >= 2 with a root r in F_p has the factor x - r, so
    only the root-free ones reach the matrix test.
    """
    _check_exact(p, d)
    # k encodes (c_0,...,c_{d-1}) with c_0 the most significant digit; below
    # p^(d-1) every candidate has c_0 = 0 and is divisible by x
    for k in range(p ** (d - 1), p ** d):
        m = [(k // p ** (d - 1 - i)) % p for i in range(d)] + [1]
        if (d == 1 or not _has_root(m, p)) and _is_irreducible(m, p):
            return m
    raise FieldConstructionError(f"no irreducible of degree {d} over F_{p}")


def smallest_generator(modulus, p: int) -> int:
    """Smallest index of full multiplicative order modulo the irreducible modulus.

    The index a generates iff its multiplication matrix A = a(C) has
    A^(order/r) != I for every prime r dividing the order.  Candidates are
    tested in batches of 4, 8, 16, ... up to 1024 stacked matrices, and the
    smallest full-order index of the first batch that holds one wins.
    """
    d = len(modulus) - 1
    _check_exact(p, d)
    order = p ** d - 1
    comp = _companion(modulus, p)
    cofactors = [order // r for r in _factorize(order)]
    start, batch = 2, 4
    while start <= order:
        cands = np.arange(start, min(start + batch, order + 1))
        powers = _powmod(_krylov(comp, _digits(cands, p, d), p), cofactors, p)
        full = (powers != np.eye(d)).any(axis=(2, 3)).all(axis=0)
        if full.any():
            return int(cands[full.argmax()])
        start += batch
        batch = min(2 * batch, 1024)
    raise FieldConstructionError("no generator found")


def _fill_powers(comp: np.ndarray, a: int, p: int, out: np.ndarray):
    """out[r] = the index of a^r for r < len(out), modulo the modulus of comp.

    Blocks of B columns: a^r for r < B by doubling, then A^B times the last
    block, with A = a(C) the multiplication by a.  B is the power of two
    2^(floor(bits/2) + 2), about four times the square root of len(out):
    few enough rounds that their fixed costs stay small, while no temporary
    holds more than d x B entries.
    """
    d = len(comp)
    place = float(p) ** np.arange(d)
    step = _krylov(comp, _digits(a, p, d), p)
    block = 1 << (len(out).bit_length() // 2 + 2)
    cols = _digits(1, p, d)[:, None]
    while cols.shape[1] < block:
        cols = np.hstack([cols, _mulmod(step, cols, p)])
        step = _mulmod(step, step, p)
    for start in range(0, len(out), block):
        out[start:start + block] = place @ cols[:, :len(out) - start]
        cols = _mulmod(step, cols, p)


def _factorize(n: int):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


# ---------------------------------------------------------------------------


class FieldCtx:
    """Immutable tower context with precomputed tables.

    Pure value object: make_field's cache builds one per (p, e, t), and
    every caller in the process shares it.
    """

    def __init__(self, p: int, e: int, t: int):
        if _factorize(p) != {p: 1}:
            raise FieldConstructionError(f"p must be prime, got {p}")
        if p == 2:
            raise FieldConstructionError("p must be odd")
        if e < 1:
            raise FieldConstructionError("e must be >= 1")
        if t < 3:
            raise FieldConstructionError(f"t must be >= 3, got {t}")
        self.p = p
        self.e = e
        self.t = t
        self.n = 2 * t
        self.q = p ** e
        self.deg = e * 2 * t
        self.size = p ** self.deg
        self.order = self.size - 1
        if self.size > TABLE_SIZE_BOUND:
            raise BudgetExceededError(
                f"field size {self.size} exceeds the table bound {TABLE_SIZE_BOUND}"
            )
        self.modulus = smallest_irreducible(p, self.deg)
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        p, d, size = self.p, self.deg, self.size
        idx = np.arange(size, dtype=np.int64)
        # int8 F_p coordinates; `sum_vec` and the elimination of
        # `projgeom.FieldEchelon` sum them in int64.  In the C-order view with
        # one axis per digit, digit j runs along axis d-1-j.
        digits = np.empty((size, d), dtype=np.int8)
        grid = digits.reshape((p,) * d + (d,))
        for j in range(d):
            grid[..., j] = np.arange(p, dtype=np.int8).reshape((p,) + (1,) * j)
        self.DIGITS = digits
        self.PP = p ** np.arange(d, dtype=np.int64)

        self.generator = smallest_generator(self.modulus, p)
        # EXP, LOG, NEG, ZECH and FROB share one buffer: freed as one mapping, it lifts
        # glibc's trim threshold above one build, so the next build reuses the pages
        exp, log, neg, zech, frob = np.split(
            np.empty(3 * self.order + (self.n + 2) * size, dtype=np.int64),
            np.cumsum([2 * self.order, size, size, self.order]))
        _fill_powers(_companion(self.modulus, p), self.generator, p, exp[: self.order])
        if (np.bincount(exp[: self.order], minlength=size)[1:] != 1).any():
            raise FieldConstructionError("generator powers miss a nonzero element")
        exp[self.order:] = exp[: self.order]
        self.EXP = exp
        log[:] = 0
        log[exp[: self.order]] = np.arange(self.order, dtype=np.int64)
        self.LOG = log  # LOG[0] is a filler; every user masks zeros

        # -1 = g^(order/2), so -x = g^(log x + order/2)
        half = self.order // 2
        np.take(exp[half:], log, out=neg)
        neg[0] = 0
        self.NEG = neg
        self.neg_one = int(neg[1])

        # Zech logarithms ZECH[k] = log(1 + g^k), with the mark -1 at k = order/2
        # where 1 + g^k = 0.  Adding 1 changes only the lowest base-p digit, a
        # cyclic shift inside each block of p consecutive indices.  Before the
        # mark, slot order/2 holds the filler LOG[0] = 0, and k -> log(1 + g^k)
        # must be a bijection from the other k onto the nonzero logs.
        zech[:] = np.roll(log.reshape(-1, p), -1, axis=1).ravel()[exp[: self.order]]
        if zech[half] != 0 or (np.bincount(zech, minlength=self.order) != 1).any():
            raise FieldConstructionError("Zech logarithms do not cover the nonzero logs once")
        zech[half] = -1
        self.ZECH = zech

        # q-Frobenius index maps, one per tower step 0..n-1; x^q = g^(q log x)
        qf = exp[log * self.q % self.order]
        qf[0] = 0
        frob = frob.reshape(self.n, size)
        frob[0] = idx
        for i in range(1, self.n):
            frob[i] = qf[frob[i - 1]]
        if not np.array_equal(qf[frob[self.n - 1]], idx):
            raise FieldConstructionError("Frobenius order check failed")
        self.FROB = frob

    # -- scalar arithmetic ---------------------------------------------------

    def refuse_index(self, *xs) -> None:
        """Refuse any element index outside [0, size) with ValueError."""
        for x in xs:
            if not 0 <= x < self.size:
                raise ValueError(f"element index {x} outside [0, {self.size})")

    def add(self, a: int, b: int) -> int:
        """a + b = a*(1 + b/a) through one Zech logarithm."""
        self.refuse_index(a, b)
        if a == 0 or b == 0:
            return int(a) + int(b)
        la = int(self.LOG[a])
        z = int(self.ZECH[self.LOG[b] - la])
        return 0 if z < 0 else int(self.EXP[la + z])

    def sub(self, a: int, b: int) -> int:
        self.refuse_index(b)
        return self.add(a, int(self.NEG[b]))

    def neg(self, a: int) -> int:
        self.refuse_index(a)
        return int(self.NEG[a])

    def mul(self, a: int, b: int) -> int:
        self.refuse_index(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[self.LOG[a] + self.LOG[b]])

    def inv(self, a: int) -> int:
        self.refuse_index(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.EXP[(self.order - self.LOG[a]) % self.order])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        """a**k with k any python int (negative allowed for a != 0)."""
        self.refuse_index(a)
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if k else 1
        return int(self.EXP[(self.LOG[a] * (k % self.order)) % self.order])

    def frob(self, x: int, i: int) -> int:
        """x**(q**i), the tower Frobenius, i taken mod 2t."""
        self.refuse_index(x)
        return int(self.FROB[i % self.n][x])

    # -- vector arithmetic (numpy arrays of indices) --------------------------

    def add_vec(self, a, b):
        """a + b = a*(1 + b/a) elementwise; a cancelled sum hits the mark -1."""
        a = np.asarray(a)
        b = np.asarray(b)
        la = self.LOG[a]
        z = self.ZECH[self.LOG[b] - la]
        out = np.where(z < 0, 0, self.EXP[la + z])
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def mul_vec(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = self.EXP[self.LOG[a] + self.LOG[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def scale_vec(self, c: int, a):
        """c*a for an array a of indices: one log array, shifted in place, and
        one gather, with zeros written back where a is 0."""
        if c == 0:
            return np.zeros_like(np.asarray(a))
        a = np.asarray(a)
        r = self.LOG[a]
        r += self.LOG[c]
        out = self.EXP[r]
        out[a == 0] = 0
        return out

    def frob_vec(self, a, i: int):
        return self.FROB[i % self.n][a]

    def pow_vec(self, a, k: int):
        a = np.asarray(a)
        return np.where(a == 0, 0, self.EXP[(self.LOG[a] * (k % self.order)) % self.order])

    def reduce_logs(self, x: np.ndarray) -> None:
        """x mod order in place, for an int64 array x with entries in [0, 2*order).

        Read as unsigned, x - order wraps above x exactly where x < order, so
        the smaller of the two is the residue; no division is made.  A
        negative entry stays negative.
        """
        np.minimum(x.view(np.uint64), (x - self.order).view(np.uint64), out=x.view(np.uint64))

    # -- tower structure -----------------------------------------------------

    def _refuse_degree(self, d: int):
        if d <= 0 or self.n % d:
            raise ValueError(f"d must divide 2t = {self.n}, got {d}")

    def sum_vec(self, a, axis: int = 0):
        """Field sum of the element indices a along `axis`: base-p digits summed mod p."""
        return self.DIGITS[a].sum(axis=axis % np.ndim(a)) % self.p @ self.PP

    def trace_rel(self, x: int, d: int) -> int:
        """Relative trace onto F_{q^d}: sum of x**(q^(d*i)), i = 0..2t/d - 1."""
        self.refuse_index(x)
        self._refuse_degree(d)
        return int(self.sum_vec(self.FROB[d * np.arange(self.n // d), x]))

    def norm_rel(self, x: int, d: int) -> int:
        """Relative norm onto F_{q^d}: x**((q^2t - 1)/(q^d - 1))."""
        self.refuse_index(x)
        self._refuse_degree(d)
        if x == 0:
            return 0
        return self.pow(x, self.order // (self.q ** d - 1))

    def in_subfield(self, x, d: int):
        """x**(q^d) == x: a bool (x refused outside [0, size)), or a mask for an index array."""
        if isinstance(x, (int, np.integer)):
            self.refuse_index(x)
        self._refuse_degree(d)
        return self.FROB[d % self.n][x] == x

    def subfield(self, d: int) -> np.ndarray:
        """Sorted indices of F_{q^d} inside the top field."""
        cache = getattr(self, "_subfield_cache", None)
        if cache is None:
            cache = self._subfield_cache = {}
        hit = cache.get(d)
        if hit is None:
            hit = np.flatnonzero(self.in_subfield(self.elements(), d))
            hit.setflags(write=False)
            cache[d] = hit
        return hit

    def ker_trace(self) -> np.ndarray:
        """Sorted indices of ker Tr onto F_{q^t}: the w with w**(q^t) = -w."""
        cached = getattr(self, "_ker_trace_cache", None)
        if cached is None:
            idx = np.arange(self.size, dtype=np.int64)
            cached = idx[self.FROB[self.t] == self.NEG[idx]]
            cached.setflags(write=False)
            self._ker_trace_cache = cached
        return cached

    def tower_split(self, x: int):
        """Unique x = x0 + x1 with x0 in F_{q^t} and x1 in ker Tr."""
        two_inv = self.inv(self.add(1, 1))
        x0 = self.mul(self.add(x, self.frob(x, self.t)), two_inv)
        x1 = self.sub(x, x0)
        return x0, x1

    def solve_semilinear(self, c: int, k: int):
        """Some z != 0 with z**(q^k) = c*z, or None when no solution exists.

        Solvability is a norm condition: c must lie in the subgroup of
        (q^k - 1)-th powers.  The witness comes from the discrete-log table.
        """
        if c == 0:
            raise ValueError("c must be nonzero")
        step = (self.q ** (k % self.n) - 1) % self.order
        if step == 0:
            return 1 if c == 1 else None
        g0 = gcd(step, self.order)
        lc = int(self.LOG[c])
        if lc % g0:
            return None
        # solve step * j = lc (mod order)
        m = self.order // g0
        j = (lc // g0 * pow(step // g0, -1, m)) % m
        return int(self.EXP[j])

    # -- F_p digit coordinates -----------------------------------------------

    def from_digits(self, dig) -> int:
        return int((np.asarray(dig, dtype=np.int64) % self.p) @ self.PP)

    def from_digits_vec(self, dig) -> np.ndarray:
        return (np.asarray(dig, dtype=np.int64) % self.p) @ self.PP

    # -- misc ------------------------------------------------------------------

    def elements(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)

    def nonzero_elements(self) -> np.ndarray:
        return np.arange(1, self.size, dtype=np.int64)

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "t": self.t, "modulus": list(self.modulus)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "FieldCtx":
        ctx = make_field(d["p"], d["e"], d["t"])
        if list(ctx.modulus) != list(d["modulus"]):
            raise FieldConstructionError("modulus mismatch: foreign convention")
        return ctx

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, t={self.t}, size={self.size})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.t) == (other.p, other.e, other.t)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.t))


@lru_cache(maxsize=None)
def make_field(p: int, e: int, t: int) -> FieldCtx:
    """Tower context for F_p <= F_{p^e} <= ... <= F_{p^(e*2t)}, cached per process."""
    return FieldCtx(p, e, t)
