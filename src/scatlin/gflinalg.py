"""Dense linear algebra over the prime field F_p, on int numpy arrays.

Matrices hold entries in 0..p-1.  Everything is exact; p is assumed prime
and small (3, 5, ...), so inverses come from a lookup table.

`row_reduce` is the one elimination: a single Gauss-Jordan pass that works
only from the pivot column on (every row still to be used as a pivot is
0 mod p to its left).  It reduces lazily: at each pivot only the pivot column
and the pivot row are reduced mod p, every other row takes off the pivot
row times its pivot-column entry without a reduction (a zero entry leaves
the row as it is), and the matrix is reduced once at the end.  An update
moves an entry by at most (p-1)^2, so after k pivots every entry lies
within (p-1) + k*(p-1)^2 of 0, far inside int64.  The reduced row echelon
form is unique, so this is the same output as reducing every entry at every
pivot; `rank`, `nullspace` and `solve_affine` read everything off it, and
`solve_affine` takes its kernel from the same reduction as its particular
solution.
"""

from __future__ import annotations

import numpy as np


def inv_table(p: int) -> np.ndarray:
    """Multiplicative inverses mod p; slot 0 is unused (set to 0)."""
    t = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        t[x] = pow(x, p - 2, p)
    return t


def row_reduce(mat: np.ndarray, p: int):
    """Reduced row echelon form mod p.  Returns (rref, pivot_columns)."""
    a = np.array(mat, dtype=np.int64) % p
    inv = inv_table(p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            i = r + nz[0]
            prow = a[i, c:] % p
            a[i, c:] = a[r, c:]
            col[i] = col[r]
        else:
            prow = a[r, c:] % p
        if prow[0] != 1:
            prow *= inv[prow[0]]
            prow %= p
        a[r, c:] = prow
        col[r] = 0
        a[:, c:] -= col[:, None] * prow
        pivots.append(c)
        r += 1
    a %= p
    return a, pivots


def rank(mat: np.ndarray, p: int) -> int:
    _, pivots = row_reduce(mat, p)
    return len(pivots)


def _kernel(rref: np.ndarray, pivots: list, cols: int, p: int) -> np.ndarray:
    """Kernel basis of the first `cols` columns of a reduced row echelon form."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -rref[: len(pivots), free] % p
    return basis


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, as columns of the returned (cols, k) array."""
    a, pivots = row_reduce(mat, p)
    return _kernel(a, pivots, a.shape[1], p)


def solve_affine(mat: np.ndarray, rhs: np.ndarray, p: int):
    """All solutions of mat @ x = rhs mod p.

    Returns (particular, kernel_basis) or None when inconsistent.  The left
    block of the reduced [mat | rhs] is the reduced mat when rhs is not a
    pivot column, so one reduction gives both.
    """
    a = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64).ravel() % p
    aug, pivots = row_reduce(np.hstack([a, b[:, None]]), p)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = aug[: len(pivots), cols]
    return x, _kernel(aug, pivots, cols, p)


def rank_batched(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (B, r, c) stack of matrices mod p, vectorized over B.

    No library code calls it: it is the elimination inside the test
    reference for the codeword ranks of `mrdcodes.RankCode`, and the
    benchmark's span tracer binds it by name.
    The stack is reduced in int16, a quarter of the memory of int64; every
    intermediate stays within (p-1)^2 in magnitude, which int16 holds for
    p < 182.
    """
    if (p - 1) ** 2 >= 2 ** 15:
        raise ValueError(f"p={p} is too large for int16 elimination")
    a = (np.asarray(mats) % p).astype(np.int16, copy=False)
    inv = inv_table(p)
    bsz, rows, cols = a.shape
    ranks = np.zeros(bsz, dtype=np.int64)
    lead = np.zeros(bsz, dtype=np.int64)  # next pivot row per matrix
    bidx = np.arange(bsz)
    for c in range(cols):
        live = lead < rows
        if not live.any():
            break
        col = a[:, :, c]
        rowpos = np.arange(rows)[None, :]
        candidates = (col != 0) & (rowpos >= lead[:, None]) & live[:, None]
        has = candidates.any(axis=1)
        piv = np.argmax(candidates, axis=1)
        sel = has
        if not sel.any():
            continue
        bs = bidx[sel]
        pr = piv[sel]
        lr = lead[sel]
        # swap pivot row up
        tmp = a[bs, pr].copy()
        a[bs, pr] = a[bs, lr]
        a[bs, lr] = tmp
        # scale pivot row to 1
        a[bs, lr] = (a[bs, lr] * inv[a[bs, lr, c]][:, None]) % p
        # eliminate the column everywhere else
        factors = a[bs, :, c]
        factors[np.arange(len(bs)), lr] = 0
        a[bs] = (a[bs] - factors[:, :, None] * a[bs, lr][:, None, :]) % p
        lead[sel] += 1
        ranks[sel] += 1
    return ranks


def span_vectors(basis: np.ndarray, p: int) -> np.ndarray:
    """All p**k combinations of the k columns of basis, as rows of (p**k, dim)."""
    dim, k = basis.shape
    if k == 0:
        return np.zeros((1, dim), dtype=np.int64)
    coeffs = np.indices((p,) * k).reshape(k, -1).T  # (p**k, k)
    return (coeffs @ basis.T) % p
