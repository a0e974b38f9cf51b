"""Scatteredness oracles and linear-set statistics on the projective line.

The primary oracle is `fiber_profile`: one count of the values of f(x)/x
over the punctured field (`fiber_counts`, which also gives the codeword
ranks in `mrdcodes`) gives both the size of the linear set and the
scatteredness verdict (no value taken on more than one F_q-line).
`profile_key` names the class of f under the scalings f -> mu*f(lambda*X),
which all share one profile; `profile_keys` is the same reduction on rows
of coefficient logs, and `orbit_codes` folds in the p-power twists, once
per distinct key, so a sweep runs the count once per orbit.  For rows
whose logs are affine in two integers, `scaling_lattice` gives the lattice
whose cosets are the keys, so a sweep numbers its rows' keys with no key
computed and runs `orbit_codes` on one row per coset.  One kernel
counts: `linpoly.log_sums` sums the terms at one point per F_q*-class
(f(x)/x is constant on each), on term logs made once per support by
`_class_terms`, and the ratio logs are counted with no value converted
back.  `fiber_profiles` runs it on blocks of rows for the sweeps, and
`fiber_counts` on one polynomial, scaled back to the full counts.  Only
`is_scattered_fiber` still counts every nonzero x from `LinPoly.eval_field`,
which the benchmark's test pins (see its docstring).  The cross-check
oracle counts roots of f + m*X for every shift m, naively, independent of
the fiber count.
"""

from __future__ import annotations

from math import gcd, prod
import numpy as np

from .fieldcore import BudgetExceededError
from .linpoly import LinPoly, log_sums

ROOTS_ORACLE_BOUND = 3 ** 10
ROOTS_ORACLE_CHUNK = 1 << 21  # products the roots oracle forms per block of shifts


def fiber_counts(f: LinPoly) -> np.ndarray:
    """How many x != 0 give each value c of f(x)/x, indexed by log(c).

    Kernel elements get the slot ctx.order.  The fiber of c, with 0 added,
    is the kernel of f - c*X (of f for ctx.order), an F_q-subspace, so every
    count is q^k - 1.  The count runs on the kernel of `fiber_profiles`:
    `linpoly.log_sums` at the d points g^k of `_class_terms`, with c0, the
    first coefficient of the support, factored out and its log added back
    to the log sums.  f(lambda*x) = lambda*f(x) for lambda in F_q*, so the
    q - 1 points of a class share a slot (the kernel slot too), and each
    full count is q - 1 times the count at the class representatives.  The
    zero polynomial sends all `order` points to the kernel slot.
    """
    ctx = f.ctx
    order = ctx.order
    support = f.support()
    if not support:
        counts = np.zeros(order + 1, dtype=np.int64)
        counts[order] = order
        return counts
    logs = ctx.LOG[f.coeffs[support]].tolist()
    k, terms = _class_terms(ctx, support)
    acc, cancel = log_sums(ctx, terms, [(lc - logs[0]) % order for lc in logs[1:]])
    acc += logs[0]                     # log c0 back: acc lies in [0, 2*order)
    ctx.reduce_logs(acc)
    acc -= k
    return _ratio_counts(ctx, acc, cancel) * (ctx.q - 1)


def _class_terms(ctx, support) -> tuple:
    """(k, terms) at the d = order/(q - 1) points x = g^k, k < d, one per
    F_q*-class: k is the int64 array of the points' logs, and terms[i] the
    logs of x^(q^e), e = support[i], that is k*q^e mod order, a fresh array
    per term (one multiply and one remainder on d entries, no table; the
    product stays below order^2, within int64 for every tower whose tables
    fit in memory)."""
    order = ctx.order
    k = np.arange(order // (ctx.q - 1), dtype=np.int64)
    return k, [k * pow(ctx.q, e, order) % order for e in support]


def _ratio_counts(ctx, ratio, cancel) -> np.ndarray:
    """Counts of log(f(x)/x) over a list of points x, one row per row of `ratio`.

    ratio[..., j] is log f(x) - log x at the j-th point, in (-order, order),
    and `cancel` marks the x with f(x) = 0 (or is None), which go to slot
    ctx.order.
    ratio + order lies in (0, 2*order) and is reduced in place by one
    conditional subtraction.  A block of rows takes one bincount, row r
    offset by r*(order + 1).
    """
    order = ctx.order
    ratio += order
    ctx.reduce_logs(ratio)
    if cancel is not None:
        ratio[cancel] = order
    if ratio.ndim == 1:
        return np.bincount(ratio, minlength=order + 1)
    rows = len(ratio)
    ratio += np.arange(0, rows * (order + 1), order + 1)[:, None]
    return np.bincount(ratio.ravel(), minlength=rows * (order + 1)).reshape(rows, order + 1)


# Rows per block of `fiber_profiles`: with 2**14 // d rows of d points, every
# int64 temporary of `log_sums` stays at or below 128 KB, glibc's default
# mmap threshold, so the allocator reuses its memory instead of mapping and
# faulting in fresh pages for each block; the block's counts take order + 1
# slots a row, q - 1 times as many.
_BLOCK_ELEMENTS = 2 ** 14


def fiber_profiles(ctx, support: tuple, logs) -> tuple:
    """(linear set size, scattered) of `fiber_profile`, one per row of `logs`.

    The layout is that of `profile_keys`: `support` is the sorted q-exponent
    support, and logs[r, i] is the log of the coefficient of X^(q^E[i]) in
    row r.  The first coefficient is factored out, which multiplies every
    value of f(x)/x by one scalar and leaves the profile alone, so the rows
    go to `linpoly.log_sums` as offsets over term logs computed once, and
    the ratio logs acc - k are counted without leaving the log domain.
    Since f(lambda*x)/(lambda*x) = f(x)/x for lambda in F_q*, the points are
    the d = order/(q - 1) representatives x = g^k, k < d, of the F_q*-classes,
    whose term logs are k*q^e mod order.  Every count is then the full count
    divided by q - 1, so f is scattered iff the largest count is 1, that is
    iff the d points fall into d distinct slots.  The zero polynomial (empty
    support) is refused.
    """
    if not support:
        raise ValueError("fiber_profiles needs a nonempty support")
    logs = np.asarray(logs, dtype=np.int64)
    # one (rows, 1) column of offsets per term after the first
    columns = ((logs[:, 1:] - logs[:, :1]) % ctx.order).T[..., None]
    k, terms = _class_terms(ctx, support)
    d = k.size
    size = np.empty(len(logs), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // d)
    for r in range(0, len(logs), step):
        acc, cancel = log_sums(ctx, terms, columns[:, r:r + step])
        counts = _ratio_counts(ctx, acc - k, cancel)
        size[r:r + step] = np.count_nonzero(counts, axis=-1)
    return size, size == d


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
    support = f.support()
    if not support:
        return ()
    u = profile_keys(ctx, tuple(support), ctx.LOG[f.coeffs[support]][None])
    return tuple(support), tuple(u[0].tolist())


def profile_keys(ctx, support: tuple, logs) -> np.ndarray:
    """The reduced u of `profile_key`, one row per polynomial.

    `support` is the sorted q-exponent support E, shared by every row, and
    logs[r, i] is the log of the coefficient of X^(q^E[i]) in row r.
    """
    order = ctx.order
    logs = np.asarray(logs, dtype=np.int64)
    u = (logs[:, 1:] - logs[:, :1]) % order
    for i, (g, mod, inv, w) in enumerate(_scaling_steps(ctx.q, order, support)):
        k = (u[:, i] % g - u[:, i]) // g * inv % mod
        u = (u + k[:, None] * np.array(w, dtype=np.int64)) % order
    return u


def orbit_codes(ctx, support: tuple, logs) -> tuple:
    """One integer per distinct scaling key, shared exactly by the scalings
    and p-power twists, as (codes, first, inverse): codes[inverse] codes
    every row, first[i] is the first row with key i, and codes.size counts
    the distinct `profile_keys` rows.

    The p-power twist multiplies every coefficient log by p, so the code is
    the smallest `profile_keys` row of logs*p^j, j < deg, read in mixed radix:
    coordinate i of a reduced key lies below g_i.  The twist maps a scaling
    class onto a scaling class (lambda, mu -> lambda^(p^j), mu^(p^j)), so
    the minimum is taken once per distinct key, on its first row.
    """
    order = ctx.order
    radices = [g for g, *_ in _scaling_steps(ctx.q, order, support)]
    if prod(radices) >= 2 ** 63:
        raise BudgetExceededError(f"orbit codes of {len(radices) + 1} terms overflow int64")
    weights = np.array([prod(radices[i + 1:]) for i in range(len(radices))], dtype=np.int64)
    logs = np.asarray(logs, dtype=np.int64)
    keys, first, inverse = np.unique(profile_keys(ctx, support, logs) @ weights,
                                     return_index=True, return_inverse=True)
    logs = logs[first]
    codes = np.min([keys, *(profile_keys(ctx, support, logs * pow(ctx.p, j, order) % order)
                            @ weights for j in range(1, ctx.deg))], axis=0)
    return codes, first, inverse


def scaling_lattice(ctx, support: tuple, alpha, beta) -> tuple:
    """(A, B, D): the lattice K = Z*(A, B) + Z*(0, D), 0 <= B < D, of the
    (a, l) in Z^2 for which a*alpha + l*beta is the log row of a scaling.

    alpha and beta give one log coefficient per term of the sorted support,
    for a family of rows whose logs are c + a*alpha + l*beta mod N (N the
    multiplicative order).  Two rows of the family share their
    `profile_keys` row iff their (a, l) differ by a point of K, so the
    index (a mod A)*D + (l - (a div A)*B) mod D of a row numbers its scaling
    key.  K is the projection of the integer solutions (a, l, j) of
    a*u(alpha) + l*u(beta) = j*w mod N, with u the log differences and w the
    generator of `profile_key`; each coordinate cuts the solution lattice,
    kept as a basis of three rows, by one congruence, and a Hermite step on
    the rows' (a, l) reads off A, B and D.  The cost is a few Euclid steps
    per term, whatever the size of the tower.
    """
    order = ctx.order
    alpha, beta = (np.asarray(v, dtype=np.int64).tolist() for v in (alpha, beta))
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for ua, ub, w in zip(alpha[1:], beta[1:], _scaling_generator(ctx.q, order, support)):
        form = (ua - alpha[0], ub - beta[0], -w)
        c = [(a * form[0] + l * form[1] + j * form[2]) % order for a, l, j in basis]
        _gcd_rows(basis, c)            # rows 1 and 2 now satisfy the congruence
        basis[0] = [order // gcd(c[0], order) * x for x in basis[0]]
    c = [row[0] for row in basis]
    _gcd_rows(basis, c)                # rows 1 and 2 now have a = 0
    D = abs(gcd(basis[1][1], basis[2][1]))
    return abs(c[0]), basis[0][1] * (1 if c[0] > 0 else -1) % D, D


def _gcd_rows(rows: list, c: list) -> None:
    """Row operations that take c to (gcd, 0, ...), applied to `rows` too."""
    for k in range(1, len(c)):
        while c[k]:
            f = c[0] // c[k]
            c[0], c[k] = c[k], c[0] - f * c[k]
            rows[0], rows[k] = rows[k], [x - f * y for x, y in zip(rows[0], rows[k])]


def _scaling_generator(q: int, order: int, support: tuple) -> list:
    """w = (q^e - q^e0 mod N) of `profile_key`, one entry per term after the first."""
    return [(pow(q, e, order) - pow(q, support[0], order)) % order for e in support[1:]]


def _scaling_steps(q: int, order: int, support: tuple) -> tuple:
    """(g, N/g, inverse of w_i/g mod N/g, w) per coordinate of `profile_key`."""
    w = _scaling_generator(q, order, support)
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
    """True iff every fiber of x -> f(x)/x lies on a single F_q-line.

    This verdict alone still counts every nonzero x, from the values of
    `LinPoly.eval_field`: the benchmark's own test
    (`perfbench/test_perfbench.py`) pins `eval_vec` on the whole field, with
    `scale_vec` under it, directly beneath this function.  It agrees with
    `fiber_profile(f)[1]`, which counts at one point per F_q*-class, and
    moves onto that kernel once the benchmark pins a layer of its own
    (ROADMAP item 1).
    """
    ctx = f.ctx
    vals = f.eval_field()[1:]          # f(x) for x = 1 .. size-1 (by index)
    return bool(_ratio_counts(ctx, ctx.LOG[vals] - ctx.LOG[1:], vals == 0).max() == ctx.q - 1)


def is_scattered_roots(f: LinPoly) -> bool:
    """True iff f + m*X has at most q roots for every shift m.

    Quadratic in the field size; refuses beyond ROOTS_ORACLE_BOUND and points
    to the fiber oracle instead.  Used for cross-validation only.
    """
    ctx = f.ctx
    if ctx.size > ROOTS_ORACLE_BOUND:
        raise BudgetExceededError(
            f"roots oracle is O(size^2); {ctx.size} exceeds bound {ROOTS_ORACLE_BOUND}. "
            "Use is_scattered_fiber for production checks."
        )
    vals = f.eval_field()
    target = ctx.NEG[vals]             # root at x  <=>  m*x == -f(x)
    xs = ctx.elements()
    log_x = ctx.LOG[xs]
    rows = max(1, ROOTS_ORACLE_CHUNK // ctx.size)
    for start in range(0, ctx.size, rows):
        ms = np.arange(start, min(start + rows, ctx.size), dtype=np.int64)
        prod = ctx.EXP[ctx.LOG[ms][:, None] + log_x[None, :]]
        prod[ms == 0, :] = 0
        prod[:, xs == 0] = 0
        counts = (prod == target[None, :]).sum(axis=1)
        if (counts > ctx.q).any():
            return False
    return True
