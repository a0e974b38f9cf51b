"""Linear and semilinear equivalence of graph subspaces {(x, f(x))}.

Two polynomials are GL-equivalent when an invertible 2x2 matrix over the top
field carries one graph onto the other, i.e. g o (alpha*X + beta*f) equals
gamma*X + delta*f as reduced polynomials.  That equation is F_p-linear in
(alpha, beta, gamma, delta) jointly, so the decision is one nullspace
computation, `mrdcodes._graph_maps`, the one the stabilizer and the right
idealizer use: delta is read off the first slot k >= 1 where f is nonzero
and gamma off slot 0, so the nullspace is taken in (alpha, beta) alone, and
f with no term beyond X is refused.  The witness is the invertible solution
smallest by (beta, alpha, gamma, delta).  Semilinear equivalence loops the
p-power coefficient twists in front of the linear test.  Witness
determinants, inverses and products come from `mrdcodes.mat_det`/`mat_mul`.

The module also evaluates the printed necessary conditions for two family
members to be GL-equivalent, organised by the residue class of the second
step against the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
import numpy as np

from .fieldcore import FieldCtx
from .linpoly import LinPoly
from .mrdcodes import _graph_maps, mat_det, mat_mul
from .quadrinomial import (CASES, QuadParams, build_quadrinomial, condition_rows,
                           trace_zero_power_set)


@dataclass
class GLSearchResult:
    witness: tuple | None  # (alpha, beta, gamma, delta) or None
    beta_candidates: int  # distinct beta in the solution space
    systems_solved: int  # always 1: the whole search is one nullspace


def gl_search(f: LinPoly, g: LinPoly) -> GLSearchResult:
    """Canonical witness for g o (alpha*X + beta*f) = gamma*X + delta*f.

    Returns the invertible solution smallest by (beta, alpha, gamma, delta),
    or None, together with the number of distinct beta among all solutions.
    """
    maps = _graph_maps(f, g)
    n_beta = int(np.unique(maps[:, 1]).size)
    inv = maps[mat_det(f.ctx, maps) != 0]
    if not inv.size:
        return GLSearchResult(None, n_beta, 1)
    w = tuple(int(v) for v in inv[np.lexsort(inv.T[[3, 2, 0, 1]])[0]])
    if not verify_gl_witness(f, g, w):
        raise RuntimeError("witness failed exact recheck")
    return GLSearchResult(w, n_beta, 1)


def gl_equivalent(f: LinPoly, g: LinPoly):
    """Witness matrix (alpha, beta, gamma, delta) carrying the graph of f onto
    the graph of g, or None when the graphs sit in different orbits."""
    return gl_search(f, g).witness


def verify_gl_witness(f: LinPoly, g: LinPoly, w) -> bool:
    """Exact recheck: g o (alpha*X + beta*f) = gamma*X + delta*f, det != 0.
    Entries outside [0, size) are refused with ValueError."""
    ctx = f.ctx
    ctx.refuse_index(*w)
    if int(mat_det(ctx, w)) == 0:
        return False
    alpha, beta, gamma, delta = w
    X = LinPoly.identity(ctx)
    lhs = g.compose(X.scale(alpha).add(f.scale(beta)))
    rhs = X.scale(gamma).add(f.scale(delta))
    return lhs == rhs


def invert_witness(ctx: FieldCtx, w):
    """Inverse of the 2x2 matrix (alpha, beta; gamma, delta): its adjugate
    divided by its determinant.  A witness carrying the graph of f onto the
    graph of g (see `verify_gl_witness`) inverts to one carrying the graph
    of g onto the graph of f."""
    ctx.refuse_index(*w)
    alpha, beta, gamma, delta = w
    adjugate = (delta, ctx.neg(beta), ctx.neg(gamma), alpha)
    return tuple(ctx.scale_vec(ctx.inv(int(mat_det(ctx, w))), adjugate).tolist())


def multiply_witnesses(ctx: FieldCtx, w2, w1):
    """Matrix product w2 @ w1 on (alpha, beta; gamma, delta) tuples."""
    ctx.refuse_index(*w2, *w1)
    return tuple(mat_mul(ctx, w2, w1).tolist())


def gammal_equivalent(f: LinPoly, g: LinPoly):
    """Semilinear-orbit test: some p-power twist of f is GL-equivalent to g.

    Returns (automorphism power j, witness matrix) or None.
    """
    ctx = f.ctx
    for j in range(ctx.e * ctx.n):
        w = gl_equivalent(f.frobenius_twist(j), g)
        if w is not None:
            return j, w
    return None


# ---------------------------------------------------------------------------
# necessary conditions for equivalence inside the family


_CASES = ("a", "b", "c", "d", "e")


def step_case(ctx: FieldCtx, s: int, ell: int) -> str:
    """Residue class of the second step against the first: b, c, d, e for
    -s, s, t-s, t+s mod 2t respectively, else a."""
    n, t = ctx.n, ctx.t
    matches = []
    if (ell + s) % n == 0:
        matches.append("b")
    if (ell - s) % n == 0:
        matches.append("c")
    if (ell - (t - s)) % n == 0:
        matches.append("d")
    if (ell - (t + s)) % n == 0:
        matches.append("e")
    if not matches:
        return "a"
    if len(matches) > 1:
        raise RuntimeError(f"ambiguous step classification {matches}")
    return matches[0]


def necessary_conditions(p1: QuadParams, p2: QuadParams, require_large_t: bool = True) -> dict:
    """Printed necessary conditions for two family members to be GL-equivalent.

    p1 carries (m, h, s), p2 carries (mu, k, ell).  Classifies ell against
    {-s, s, t-s, t+s} mod 2t; for classes b..e evaluates the subfield
    membership of k*h, h/k or h*k (in both gcd spellings, checked equal)
    and the two alternative product identities decided constructively
    through the semilinear solver plus a scan of the middle-field coset.
    """
    ctx = p1.ctx
    if ctx != p2.ctx:
        raise ValueError("mismatched field contexts")
    if require_large_t and ctx.t < 5:
        raise ValueError("the condition calculus is stated for t >= 5")
    if p1.m == 0 or p2.m == 0:
        raise ValueError("both m parameters must be nonzero")
    s, ell = p1.s, p2.s
    m, h = p1.m, p1.h
    mu, k = p2.m, p2.h
    t, n, q = ctx.t, ctx.n, ctx.q

    case = step_case(ctx, s, ell)
    report = {"case": case, "conditions_hold": None, "alternatives": [None, None],
              "subfield_membership": None, "witness_z": [None, None]}
    if case == "a":
        report["conditions_hold"] = False
        report["verdict"] = "not GL-equivalent"
        return report

    combo = {
        "b": ctx.mul(k, h),
        "c": ctx.div(h, k),
        "d": ctx.div(h, k),
        "e": ctx.mul(h, k),
    }[case]
    g_plain = gcd(t - 2, n)
    g_scaled = gcd(s * (t - 2), n)
    if g_plain != g_scaled:
        raise RuntimeError("the two gcd spellings must agree for coprime s")
    member = ctx.in_subfield(combo, g_plain)
    report["subfield_membership"] = bool(member)
    report["subfield_degree"] = g_plain

    mu_qs = ctx.frob(mu, s)
    mu_inv_qst1 = ctx.frob(ctx.inv(mu), s * (t - 1))
    targets = {
        # (sign on the semilinear constant, target value for z^(q^(s(t-2))-1))
        "b": [(+1, ctx.mul(m, mu_qs)), (-1, ctx.neg(ctx.mul(m, mu)))],
        "c": [(-1, ctx.neg(ctx.mul(m, mu_inv_qst1))), (+1, ctx.div(m, mu))],
        "d": [(+1, ctx.neg(ctx.mul(m, mu_qs))), (-1, ctx.mul(m, mu))],
        "e": [(-1, ctx.mul(m, mu_inv_qst1)), (+1, ctx.neg(ctx.div(m, mu)))],
    }[case]

    base = ctx.pow(combo, q ** ((3 * s) % n) - 1)
    expo = q ** ((s * (t - 2)) % n) - 1
    mid_units = ctx.subfield(t)
    mid_units = mid_units[mid_units != 0]
    alts = []
    zs_found = []
    for sign, target in targets:
        c_val = base if sign > 0 else ctx.neg(base)
        z0 = ctx.solve_semilinear(c_val, (s * t) % n)
        if z0 is None:
            alts.append(False)
            zs_found.append(None)
            continue
        zs = ctx.mul_vec(np.full(mid_units.size, z0, dtype=np.int64), mid_units)
        hits = np.nonzero(ctx.pow_vec(zs, expo) == target)[0]
        if hits.size:
            alts.append(True)
            zs_found.append(int(zs[hits[0]]))
        else:
            alts.append(False)
            zs_found.append(None)
    report["alternatives"] = alts
    report["witness_z"] = zs_found
    report["conditions_hold"] = bool(member and any(alts))
    return report


def pair_report(p1: QuadParams, p2: QuadParams, require_large_t: bool = True) -> dict:
    """Bundled pair test: canonical GL witness plus the printed conditions.

    agree means: either no witness was found, or the witness lands in a
    class whose conditions hold.
    """
    f = build_quadrinomial(p1)
    g = build_quadrinomial(p2)
    res = gl_search(f, g)
    cond = necessary_conditions(p1, p2, require_large_t=require_large_t)
    if res.witness is None:
        agree = True
    else:
        agree = cond["case"] != "a" and bool(cond["conditions_hold"])
    return {
        "case": cond["case"],
        "gl_witness": list(map(int, res.witness)) if res.witness else None,
        "conditions": cond,
        "agree": agree,
        "beta_candidates": res.beta_candidates,
        "systems_solved": res.systems_solved,
    }


# ---------------------------------------------------------------------------
# search for parameters outside every known orbit


def find_new_example(ctx: FieldCtx, s: int) -> dict:
    """First (m, h) in canonical order that meets the sufficient conditions
    while avoiding the subfield and power-class obstructions that would allow
    equivalence to a member with m = 1 or h = 1.

    The pool is case IIa (m in the plus power set, norm -1) for odd t with
    q = 3 mod 4 and case I (m outside both power sets, norm -1 before +1)
    otherwise.  Requires q >= 7 for odd t and q >= 5 for even t; refuses
    otherwise.  Also reports the counting margin that guarantees existence.
    """
    t, q = ctx.t, ctx.q
    odd_t = t % 2 == 1
    if (odd_t and q < 7) or (not odd_t and q < 5):
        raise ValueError(
            f"counting argument needs q >= 7 for odd t / q >= 5 for even t; got q={q}, t={t}"
        )
    qt = q ** t
    # D: (q-1)-th powers of the top field that lie in the middle field
    mid = ctx.subfield(t)
    mid_nz = mid[mid != 0]
    d_mask = ctx.LOG[mid_nz] % (q - 1) == 0
    if d_mask.sum() != 2 * (qt - 1) // (q - 1):
        raise RuntimeError("power-class count mismatch")

    if odd_t and q % 4 == 3:
        target = CASES.index("IIa")
        margin = {"pool": "plus-power-set", "pool_size": (qt - 1) // 2,
                  "obstruction_size": 2 * (qt - 1) // (q - 1)}
    else:
        target = CASES.index("I")
        powers = np.union1d(trace_zero_power_set(ctx, s, +1), trace_zero_power_set(ctx, s, -1))
        margin = {"pool": "outside-both-power-sets",
                  "pool_size": qt - 1,
                  "obstruction_size": 2 * (qt - 1) // (q - 1) + powers.size - 1}

    g_sub = gcd(t - 2, ctx.n)
    hs = ctx.nonzero_elements()
    hs = hs[~ctx.in_subfield(hs, g_sub)]
    ms = mid_nz[~d_mask]
    cls, (case, _, norm) = condition_rows(ctx, s, ms, hs)
    found = np.flatnonzero((case == target).any(axis=1)[cls])
    if not found.size:
        raise ValueError("no admissible pair found despite the counting margin")
    hit = np.flatnonzero(case[cls[found[0]]] == target)
    # norm -1 before norm +1, then h in canonical order
    h = int(hs[hit[np.lexsort((hit, norm[hit] != ctx.neg_one))[0]]])
    m = int(ms[found[0]])
    return {"params": QuadParams(ctx, s, m, h), "margin": margin,
            "m": m, "h": h, "subfield_degree_avoided": g_sub}
