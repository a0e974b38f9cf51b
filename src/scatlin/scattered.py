"""Scatteredness oracles and linear-set statistics on the projective line.

The primary oracle is `fiber_profile`: one count of the values of f(x)/x
over the punctured field (`fiber_counts`, which also gives the codeword
ranks in `mrdcodes`) gives both the size of the linear set and the
scatteredness verdict (no value taken on more than one F_q-line).
`profile_key` names the class of f under the scalings f -> mu*f(lambda*X),
which all share one profile; `profile_keys` is the same reduction on rows
of coefficient logs, and `orbit_codes` folds in the p-power twists, so a
sweep runs the count once per orbit.  The cross-check oracle counts roots
of f + m*X for every shift m, naively, independent of the fiber count.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
import numpy as np

from .fieldcore import BudgetExceededError
from .linpoly import LinPoly

ROOTS_ORACLE_BOUND_DEFAULT = 3 ** 10


def fiber_counts(f: LinPoly) -> np.ndarray:
    """How many x != 0 give each value c of f(x)/x, indexed by log(c).

    Kernel elements get the slot ctx.order.  The fiber of c, with 0 added,
    is the kernel of f - c*X (of f for ctx.order), an F_q-subspace, so every
    count is q^k - 1.  The log of the ratio, LOG[f(x)] - LOG[x] + order, lies
    in (0, 2*order) and is reduced by one conditional subtraction.
    """
    ctx = f.ctx
    vals = f.eval_field()[1:]          # f(x) for x = 1 .. size-1 (by index)
    ratio = ctx.LOG[vals] - ctx.LOG[1:]
    ratio += ctx.order
    ctx.reduce_logs(ratio)
    ratio[vals == 0] = ctx.order
    return np.bincount(ratio, minlength=ctx.order + 1)


def fiber_profile(f: LinPoly) -> tuple:
    """(linear set size, scattered): each value of f(x)/x is one point of the
    linear set, and f is scattered iff every fiber is one F_q-line, i.e.
    the largest count is q - 1."""
    counts = fiber_counts(f)
    return int(np.count_nonzero(counts)), bool(counts.max() == f.ctx.q - 1)


def profile_key(f: LinPoly) -> tuple:
    """Canonical form of f under the scalings f -> mu*f(lambda*X), lambda, mu != 0.

    Polynomials with one key have one `fiber_profile`, and so do the p-power
    twists f^sigma of their coefficients:
    * mu*f(lambda*x)/x = lambda*mu * f(lambda*x)/(lambda*x), so the scaling
      multiplies every ratio by the same scalar (x and lambda*x run over the
      nonzero elements together);
    * f^sigma(x^p)/x^p = (f(x)/x)^p for the p-power twist.
    So both maps permute the values of f(x)/x and keep the kernel, and the
    bincount histogram of `fiber_profile` is only permuted.

    The scaling adds log(mu) + log(lambda)*q^e to the log of the coefficient
    a_e of X^(q^e).  With E the q-exponent support, e0 = min E and N the
    multiplicative order, the log differences u_e = log a_e - log a_e0
    (e != e0) are therefore defined up to the cyclic group generated by
    w = (q^e - q^e0 mod N).  The coset is reduced one coordinate at a time:
    with g = gcd(w_i, N), the multiple of w that sends u_i to u_i mod g is
    added, and w is replaced by (N/g)*w, which vanishes on coordinates 0..i.
    The key is (E, u); two polynomials share it iff one is a scaling of the
    other.  The zero polynomial has the key ().  Keys compare only within
    one tower.
    """
    ctx = f.ctx
    terms = sorted(((f.s * i) % ctx.n, c) for i, c in enumerate(f.coeffs.tolist()) if c)
    if not terms:
        return ()
    support = tuple(e for e, _ in terms)
    u = profile_keys(ctx, support, [[int(ctx.LOG[c]) for _, c in terms]])
    return support, tuple(u[0].tolist())


def profile_keys(ctx, support: tuple, logs) -> np.ndarray:
    """The reduced u of `profile_key`, one row per polynomial.

    `support` is the sorted q-exponent support E, shared by every row, and
    logs[r, i] is the log of the coefficient of X^(q^E[i]) in row r.
    """
    order = ctx.order
    logs = np.asarray(logs, dtype=np.int64)
    u = (logs[:, 1:] - logs[:, :1]) % order
    for i, (g, mod, inv, w) in enumerate(_scaling_steps(ctx.q, order, tuple(support))):
        k = (u[:, i] % g - u[:, i]) // g * inv % mod
        u = (u + k[:, None] * np.array(w, dtype=np.int64)) % order
    return u


def orbit_codes(ctx, support: tuple, logs) -> np.ndarray:
    """One integer per row, shared exactly by the scalings and p-power twists.

    The p-power twist multiplies every coefficient log by p, so the code is
    the smallest `profile_keys` row of logs*p^j, j < deg, read in mixed radix:
    coordinate i of a reduced key lies below g_i.
    """
    order = ctx.order
    radices = [g for g, *_ in _scaling_steps(ctx.q, order, tuple(support))]
    if prod(radices) >= 2 ** 63:
        raise BudgetExceededError(f"orbit codes of {len(radices) + 1} terms overflow int64")
    weights = np.array([prod(radices[i + 1:]) for i in range(len(radices))], dtype=np.int64)
    logs = np.asarray(logs, dtype=np.int64)
    return np.min([profile_keys(ctx, support, logs * pow(ctx.p, j, order) % order) @ weights
                   for j in range(ctx.deg)], axis=0)


@lru_cache(maxsize=None)
def _scaling_steps(q: int, order: int, support: tuple) -> tuple:
    """(g, N/g, inverse of w_i/g mod N/g, w) per coordinate of `profile_key`."""
    w = [(pow(q, e, order) - pow(q, support[0], order)) % order for e in support[1:]]
    steps = []
    for i in range(len(w)):
        g = gcd(w[i], order)
        mod = order // g
        steps.append((g, mod, pow(w[i] // g, -1, mod), tuple(w)))
        w = [x * mod % order for x in w]
    return tuple(steps)


def linear_set_size(f: LinPoly) -> int:
    """Number of distinct projective points <(x, f(x))>, x != 0."""
    return fiber_profile(f)[0]


def is_scattered_fiber(f: LinPoly) -> bool:
    """True iff every fiber of x -> f(x)/x lies on a single F_q-line."""
    return fiber_profile(f)[1]


def is_scattered_roots(
    f: LinPoly,
    size_bound: int = ROOTS_ORACLE_BOUND_DEFAULT,
    chunk: int = 1 << 21,
) -> bool:
    """True iff f + m*X has at most q roots for every shift m.

    Quadratic in the field size; refuses beyond size_bound and points to the
    fiber oracle instead.  Used for cross-validation only.
    """
    ctx = f.ctx
    if ctx.size > size_bound:
        raise BudgetExceededError(
            f"roots oracle is O(size^2); {ctx.size} exceeds bound {size_bound}. "
            "Use is_scattered_fiber for production checks."
        )
    vals = f.eval_field()
    target = ctx.NEG[vals]             # root at x  <=>  m*x == -f(x)
    xs = ctx.elements()
    log_x = ctx.LOG[xs]
    rows = max(1, chunk // ctx.size)
    for start in range(0, ctx.size, rows):
        ms = np.arange(start, min(start + rows, ctx.size), dtype=np.int64)
        prod = ctx.EXP[ctx.LOG[ms][:, None] + log_x[None, :]]
        prod[ms == 0, :] = 0
        prod[:, xs == 0] = 0
        counts = (prod == target[None, :]).sum(axis=1)
        if (counts > ctx.q).any():
            return False
    return True
