"""Literal sweeps, kept as references for the fast paths of scatlin.

`fiber_profile_sorted` keys every f(x)/x with the F_q-line of x and compares
distinct keys with distinct values by sorting; it is the reference for
`scattered.fiber_profile`, which counts the values instead.

`scaling_class` normalizes f under every nonzero lambda and picks the
smallest result; it is the reference for `scattered.profile_key`.
`PerPairProfiles` has the interface of `sweep.ProfileMemo` but runs
`scattered.fiber_profile` on every polynomial; put in place of the memo, it
turns each sweep back into its per-pair form.

`graph_maps_grid` tests every (alpha, beta) pair of the top field against
g o (alpha*X + beta*f) = gamma*X + delta*f and reads gamma and delta off the
coefficient slots; it is the reference for `stabilizer`, `right_idealizer`
and `gl_search`.  `left_idealizer_grid` tests every pair for the left
idealizer.  Both cost q^(2n) and are meant for the (3,3) tower.

`closure_all_pairs` adds and multiplies every pair of a set of 2x2
matrices; it is the reference for `StabilizerSet.closure_flags`.

`is_irreducible_trial` divides by every monic polynomial of degree at most
d/2; it is the reference for the companion-matrix test
`fieldcore._is_irreducible`.
"""

from itertools import product

import numpy as np

from scatlin.linpoly import LinPoly
from scatlin.scattered import fiber_profile

GRID_BOUND = 3 ** 12


def fiber_profile_sorted(f):
    """(linear set size, scattered): every value of f(x)/x on one F_q-line."""
    ctx = f.ctx
    vals = f.eval_field()[1:]          # f(x) for x = 1 .. size-1 (by index)
    xs = np.arange(1, ctx.size, dtype=np.int64)
    logs_x = ctx.LOG[xs]
    # ratio f(x)/x in log form; kernel elements get the sentinel ctx.order
    ratio = np.where(vals == 0, ctx.order, (ctx.LOG[vals] - logs_x) % ctx.order)
    line_mod = ctx.order // (ctx.q - 1)
    keys = ratio * (line_mod + 1) + logs_x % line_mod
    n_points = int(np.unique(ratio).size)
    return n_points, np.unique(keys).size == n_points


def scaling_class(f):
    """Smallest coefficient vector of mu*f(lambda*X) over all lambda != 0,
    with mu chosen to make the lowest-exponent coefficient 1; () for f = 0.

    Two polynomials get the same class iff one is a scaling of the other.
    """
    ctx = f.ctx
    qv = f.q_view()
    support = np.flatnonzero(qv).tolist()
    if not support:
        return ()
    lam = ctx.nonzero_elements()
    # coefficient of X^(q^e) in f(lambda*X) is a_e * lambda^(q^e)
    cols = [ctx.scale_vec(int(qv[e]), ctx.frob_vec(lam, e)) for e in support]
    inv_lead = ctx.pow_vec(cols[0], -1)
    normed = np.stack([ctx.mul_vec(c, inv_lead) for c in cols], axis=1)
    return tuple(support), min(map(tuple, normed.tolist()))


class PerPairProfiles:
    """`fiber_profile` on every call, counted like `sweep.ProfileMemo`."""

    def __init__(self):
        self.calls = 0
        self.asked = 0

    def __call__(self, f):
        self.calls += 1
        self.asked += 1
        return fiber_profile(f)


def _has_remainder(a, b, p):
    """a mod the monic b over F_p is nonzero (coefficient lists, little-endian)."""
    r = list(a)
    k = len(b) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i] % p
        if c:
            for j in range(k + 1):
                r[i - k + j] = (r[i - k + j] - c * b[j]) % p
    return any(x % p for x in r[:k])


def is_irreducible_trial(m, p):
    """The monic m has no monic factor of degree 1 .. deg(m)/2 over F_p."""
    d = len(m) - 1
    return all(
        _has_remainder(m, list(low) + [1], p)
        for k in range(1, d // 2 + 1)
        for low in product(range(p), repeat=k)
    )


def _compose_with_span_of_f(outer, inner, bs):
    """Slot values of outer o (b*inner) for every b, as {slot: array}."""
    ctx = outer.ctx
    s = outer.s
    acc = {k: np.zeros((bs.size, ctx.deg), dtype=np.int64) for k in range(ctx.n)}
    for i in outer.support():
        fb = ctx.frob_vec(bs, (s * i) % ctx.n)
        for j in inner.support():
            k = (i + j) % ctx.n
            cst = ctx.mul(int(outer.coeffs[i]), ctx.frob(int(inner.coeffs[j]), (s * i) % ctx.n))
            acc[k] += ctx.DIGITS[ctx.scale_vec(cst, fb)]
    return {k: (v % ctx.p) @ ctx.PP for k, v in acc.items()}


def _add_outer(ctx, av, bv):
    """Outer sum grid of two index vectors (either may be None == zeros)."""
    na = ctx.size
    if av is None:
        av = np.zeros(na, dtype=np.int64)
    if bv is None:
        bv = np.zeros(na, dtype=np.int64)
    dig = ctx.DIGITS[av][:, None, :] + ctx.DIGITS[bv][None, :, :]
    return (dig % ctx.p) @ ctx.PP


def _div_by_const(ctx, arr, c):
    return ctx.scale_vec(ctx.inv(c), arr)


def _check_size(ctx):
    if ctx.size ** 2 > GRID_BOUND:
        raise ValueError(f"grid of {ctx.size ** 2} pairs is above {GRID_BOUND}")


def graph_maps_grid(f, g):
    """All (alpha, beta, gamma, delta) with g o (alpha*X + beta*f) = gamma*X + delta*f.

    Sorted tuples, invertible or not.  f must be independent of X, so that
    delta is read off a slot other than 0.
    """
    ctx = f.ctx
    _check_size(ctx)
    fq = LinPoly.from_q_view(ctx, 1, f.q_view())
    gq = LinPoly.from_q_view(ctx, 1, g.q_view())
    fsupp = [k for k in fq.support() if k != 0]
    if not fsupp:
        raise ValueError("f must be independent of X")
    els = ctx.elements()
    b_part = _compose_with_span_of_f(gq, fq, els)
    a_part = {k: ctx.scale_vec(int(gq.coeffs[k]), ctx.frob_vec(els, k)) for k in gq.support()}
    slot = {k: _add_outer(ctx, a_part.get(k), b_part[k]) for k in range(ctx.n)}
    # slot k reads delta*f_k for k != 0 and gamma + delta*f_0 for k = 0
    delta = _div_by_const(ctx, slot[fsupp[0]], int(fq.coeffs[fsupp[0]]))
    ok = np.ones((ctx.size, ctx.size), dtype=bool)
    for k in range(1, ctx.n):
        ok &= slot[k] == ctx.scale_vec(int(fq.coeffs[k]), delta)
    gamma = ctx.add_vec(slot[0], ctx.NEG[ctx.scale_vec(int(fq.coeffs[0]), delta)])
    aa, bb = np.nonzero(ok)
    return sorted(
        zip(aa.tolist(), bb.tolist(), gamma[aa, bb].tolist(), delta[aa, bb].tolist())
    )


def closure_all_pairs(ctx, elements):
    """(additive, multiplicative) closure of the 2x2 matrices in elements
    plus the zero matrix, by testing every ordered pair."""
    mats = np.array(list(elements) + [(0, 0, 0, 0)], dtype=np.int64)
    members = {tuple(m) for m in mats.tolist()}
    ii, jj = np.meshgrid(np.arange(len(mats)), np.arange(len(mats)), indexing="ij")
    a, b = mats[ii.ravel()], mats[jj.ravel()]

    def entry(x, y, u, v):
        return ctx.add_vec(ctx.mul_vec(a[:, x], b[:, y]), ctx.mul_vec(a[:, u], b[:, v]))

    sums = np.stack([ctx.add_vec(a[:, k], b[:, k]) for k in range(4)], axis=1)
    prods = np.stack([entry(0, 0, 1, 2), entry(0, 1, 1, 3),
                      entry(2, 0, 3, 2), entry(2, 1, 3, 3)], axis=1)
    return (all(tuple(m) in members for m in sums.tolist()),
            all(tuple(m) in members for m in prods.tolist()))


def invertible(ctx, maps):
    """The maps (alpha, beta, gamma, delta) with alpha*delta != beta*gamma."""
    return [m for m in maps if ctx.mul(m[0], m[3]) != ctx.mul(m[1], m[2])]


def canonical_witness(ctx, maps):
    """The invertible map smallest by (beta, alpha, gamma, delta), or None."""
    return min(invertible(ctx, maps), key=lambda m: (m[1], m[0], m[2], m[3]), default=None)


def left_idealizer_grid(code):
    """All (a, b) with (a*X + b*f) o f back in the span <X, f>, pair by pair."""
    ctx = code.ctx
    _check_size(ctx)
    f = code.f
    supp = f.support()
    els = ctx.elements()
    ff = f.compose(f)
    a_part = {k: ctx.scale_vec(int(f.coeffs[k]), els) for k in supp}
    b_part = {k: ctx.scale_vec(int(ff.coeffs[k]), els) for k in range(ctx.n)}

    ok = np.ones((ctx.size, ctx.size), dtype=bool)
    ratio = None
    for k in range(1, ctx.n):  # slot 0 is absorbed by a'
        grid = _add_outer(ctx, a_part.get(k), b_part[k])
        if k not in supp:
            ok &= grid == 0
            continue
        # b' = slot_k / f_k must agree across the support
        rk = _div_by_const(ctx, grid, int(f.coeffs[k]))
        if ratio is None:
            ratio = rk
        else:
            ok &= ratio == rk
    aa, bb = np.nonzero(ok)
    return sorted(set(zip(aa.tolist(), bb.tolist())))
