"""Scatteredness oracles and linear-set statistics on the projective line.

The primary oracle is `fiber_profile`: one count of the values of f(x)/x
over the punctured field gives both the size of the linear set and the
scatteredness verdict (no value taken on more than one F_q-line).  The
cross-check oracle counts roots of f + m*X for every shift m, naively, and
is kept deliberately independent of the fiber count.
"""

from __future__ import annotations

import numpy as np

from .fieldcore import BudgetExceededError
from .linpoly import LinPoly

ROOTS_ORACLE_BOUND_DEFAULT = 3 ** 10


def fiber_profile(f: LinPoly) -> tuple:
    """(linear set size, scattered) from one count of the values of f(x)/x.

    Each value c is one point of the linear set; kernel elements get the
    value ctx.order.  The fiber of c, with 0 added, is the kernel of f - c*X
    (of f for ctx.order), an F_q-subspace, so every count is q^k - 1; f is
    scattered iff the largest is q - 1, i.e. every fiber is one F_q-line.
    """
    ctx = f.ctx
    vals = f.eval_field()[1:]          # f(x) for x = 1 .. size-1 (by index)
    ratio = np.where(vals == 0, ctx.order, (ctx.LOG[vals] - ctx.LOG[1:]) % ctx.order)
    counts = np.bincount(ratio, minlength=ctx.order + 1)
    return int(np.count_nonzero(counts)), bool(counts.max() == ctx.q - 1)


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
