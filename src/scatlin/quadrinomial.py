"""The four-term linearized family and its scatteredness condition calculus.

For a tower parameter t and step s coprime to 2t, the family member attached
to (m, h) in F_{q^t} x F_{q^(2t)}* is

    m*(X^(q^s) - h^(1-q^(s(t+1))) X^(q^(s(t+1)))) + X^(q^(s(t-1))) + h^(1-q^(s(2t-1))) X^(q^(s(2t-1)))

Everything that decides scatteredness of this polynomial lives here: the two
power sets of trace-zero elements, the sufficient-condition cases and prior
families (one calculus, `condition_tags`, on scalars or index arrays), the
structural split psi = m*lead_unit + tail, which `split_maps` builds once per
(s, h) as the `QuadSplit` every structural statement reads, and the
constructive non-scatteredness witness for the bad power set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd
import numpy as np

from .fieldcore import FieldCtx, DirectSumError
from .linpoly import LinPoly


@dataclass(frozen=True)
class QuadParams:
    """One member of the family: (ctx, s, m, h) with m mid-field, h nonzero."""

    ctx: FieldCtx
    s: int
    m: int
    h: int

    def __post_init__(self):
        ctx = self.ctx
        if gcd(self.s, ctx.n) != 1:
            raise ValueError(f"s={self.s} must be coprime to 2t={ctx.n}")
        if not (0 <= self.m < ctx.size) or not ctx.in_subfield(self.m, ctx.t):
            raise ValueError("m must lie in the middle field F_{q^t}")
        if not 0 < self.h < ctx.size:
            raise ValueError(f"h must be a nonzero element index below {ctx.size}")

    @property
    def norm_h(self) -> int:
        return self.ctx.norm_rel(self.h, self.ctx.t)


def family_slots(t: int, swapped: bool = False) -> tuple:
    """(slot, times m, negated, k) per term of the family polynomial.

    The coefficient of slot i is [m] * [-1] * h^(1 - q^(s*k)); k = 0 gives 1.
    The swapped ordering exchanges the roles of the t-1 and t+1 exponents.
    """
    up, dn = (t - 1, t + 1) if swapped else (t + 1, t - 1)
    return ((1, True, False, 0), (up, True, True, up), (dn, False, False, 0),
            (2 * t - 1, False, False, 2 * t - 1))


def family_terms(ctx: FieldCtx, s: int, M, H, swapped: bool = False) -> tuple:
    """(slots, times m, logs) of the four terms of the members (M, H) at step s,
    in q-exponent order, one tuple entry per term; both forms list the same slots.

    M and H are scalars or index arrays that broadcast; logs[i] is the log of
    term i's coefficient [m] * [-1] * h^(1 - q^(s*k)) of `family_slots`.  Where
    m = 0 the terms that carry m vanish, and their logs are meaningless.
    """
    n, order, lh, lm = ctx.n, ctx.order, ctx.LOG[H], ctx.LOG[M]
    terms = sorted(family_slots(ctx.t, swapped), key=lambda term: s * term[0] % n)
    slots, times_m, negated, k = zip(*terms)
    logs = tuple((lh * ((1 - ctx.q ** (s * ki % n)) % order) + lm * tm + order // 2 * neg) % order
                 for tm, neg, ki in zip(times_m, negated, k))
    return slots, times_m, logs


def quad_coeffs(params: QuadParams, swapped: bool = False):
    """Slot -> coefficient map of the family polynomial, read off `family_terms`."""
    slots, times_m, logs = family_terms(params.ctx, params.s, params.m, params.h, swapped)
    return {slot: 0 if carries and params.m == 0 else int(params.ctx.EXP[log])
            for slot, carries, log in zip(slots, times_m, logs)}


def build_quadrinomial(params: QuadParams) -> LinPoly:
    return LinPoly.from_terms(params.ctx, params.s, quad_coeffs(params))


def build_quadrinomial_swapped(params: QuadParams) -> LinPoly:
    """Variant with the t-1 and t+1 exponent roles exchanged, one member at a
    time; the sweeps read both forms off `family_terms`."""
    return LinPoly.from_terms(params.ctx, params.s, quad_coeffs(params, swapped=True))


# ---------------------------------------------------------------------------
# power sets of trace-zero elements


# power sets per (tower, step, sign), m-bit tables per (tower, step) and the
# tag table per tower
_POWER_SET_CACHE: dict = {}


def trace_zero_power_set(ctx: FieldCtx, s: int, sign: int) -> np.ndarray:
    """The set {w^(q^s + sign) : w in ker Tr} as a sorted index array.

    sign is +1 or -1.  Both sets land inside the middle field (checked) and
    both contain 0 (the image of w = 0).  Cached per (tower, step, sign).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if gcd(s, ctx.n) != 1:
        raise ValueError(f"s={s} must be coprime to 2t={ctx.n}")
    key = (ctx, s % ctx.n, sign)
    hit = _POWER_SET_CACHE.get(key)
    if hit is not None:
        return hit
    ker = ctx.ker_trace()
    powers = np.unique(ctx.pow_vec(ker, ctx.q ** (s % ctx.n) + sign))
    if not ctx.in_subfield(powers, ctx.t).all():
        raise RuntimeError("power set escaped the middle field")
    powers.setflags(write=False)
    _POWER_SET_CACHE[key] = powers
    return powers


def power_set_sizes(ctx: FieldCtx, s: int) -> dict:
    """Cardinalities of both power sets, with and without 0."""
    plus = trace_zero_power_set(ctx, s, +1)
    minus = trace_zero_power_set(ctx, s, -1)
    return {
        "plus_with_zero": int(plus.size),
        "plus_nonzero": int(plus.size - (plus == 0).sum()),
        "minus_with_zero": int(minus.size),
        "minus_nonzero": int(minus.size - (minus == 0).sum()),
    }


def power_sets_step_independent(ctx: FieldCtx, s: int) -> bool:
    """Both power sets at step s coincide with the step-1 sets."""
    return np.array_equal(
        trace_zero_power_set(ctx, s, +1), trace_zero_power_set(ctx, 1, +1)
    ) and np.array_equal(
        trace_zero_power_set(ctx, s, -1), trace_zero_power_set(ctx, 1, -1)
    )


# ---------------------------------------------------------------------------
# the condition calculus: sufficient-condition cases and prior families


CASES = ("none", "I", "IIa", "IIb")
PRIORS = ("none", "LZ-ZZ", "LMTZ", "SZZ")

# class bits of m (power sets at step s, m = 0, m = 1, outside the step-1
# sets) and of h (norm +-1, h^2 = -1, h in F_{q^t}, h in F_q)
_PLUS, _MINUS, _ZERO, _ONE, _OUT1 = 1, 2, 4, 8, 16
_NORM1, _NORMM1, _SQRTM1, _MID, _BASE = 1, 2, 4, 8, 16


def _m_bits(ctx: FieldCtx, s: int, M):
    """Class bits of m (a scalar or an index array) at step s.

    The cases read the power sets at step s, SZZ those at step 1.  The
    table over the whole field is cached per (tower, step).
    """
    key = (ctx, s % ctx.n, "m bits")
    table = _POWER_SET_CACHE.get(key)
    if table is None:
        table = np.full(ctx.size, _OUT1, dtype=np.int8)
        table[trace_zero_power_set(ctx, 1, +1)] = 0
        table[trace_zero_power_set(ctx, 1, -1)] = 0
        table[trace_zero_power_set(ctx, s, +1)] |= _PLUS
        table[trace_zero_power_set(ctx, s, -1)] |= _MINUS
        table[0] |= _ZERO
        table[1] |= _ONE
        table.setflags(write=False)
        _POWER_SET_CACHE[key] = table
    return table[M]


def in_minus_power_set(ctx: FieldCtx, s: int, M):
    """Mask of m (a scalar or an index array in F_{q^t}) in the minus power
    set {w^(q^s - 1) : w in ker Tr}, read off the class bits of m."""
    return (_m_bits(ctx, s, M) & _MINUS) != 0


def _h_bits(ctx: FieldCtx, H):
    """(class bits, norm onto F_{q^t}) of nonzero h, a scalar or an index array."""
    logs = ctx.LOG[H]
    norm = ctx.EXP[logs * (ctx.order // (ctx.q ** ctx.t - 1)) % ctx.order]
    bits = ((norm == 1) * _NORM1 | (norm == ctx.neg_one) * _NORMM1
            | (ctx.EXP[2 * logs % ctx.order] == ctx.neg_one) * _SQRTM1
            | ctx.in_subfield(H, ctx.t) * _MID | ctx.in_subfield(H, 1) * _BASE)
    return bits, norm


def _tag_table(ctx: FieldCtx) -> np.ndarray:
    """(case, prior) codes of every (m class, h class) by the rules stated in
    `condition_tags`; cached per tower."""
    key = (ctx, "tags")
    table = _POWER_SET_CACHE.get(key)
    if table is None:
        mc, hc = np.arange(32)[:, None], np.arange(32)[None, :]
        plus, minus, zero, one, out1 = ((mc & b) != 0 for b in (_PLUS, _MINUS, _ZERO, _ONE, _OUT1))
        norm1, normm1, sqrtm1, mid, base = (
            (hc & b) != 0 for b in (_NORM1, _NORMM1, _SQRTM1, _MID, _BASE))
        outside = ~plus & ~minus
        if ctx.t % 2 == 0 or ctx.q % 4 == 1:
            case = np.select([outside & (norm1 | normm1)], [1])
        else:
            case = np.select([plus & ~zero & normm1, outside & norm1 & ~sqrtm1], [2, 3])
        prior = np.select([one & mid & sqrtm1, one & ~mid & normm1, base & out1], [1, 2, 3])
        table = np.stack([case, prior], axis=-1).astype(np.int8)
        table.setflags(write=False)
        _POWER_SET_CACHE[key] = table
    return table


def condition_tags(ctx: FieldCtx, s: int, M, H) -> tuple:
    """(case codes, prior codes, norms of h) of the pairs (M, H).

    M (in F_{q^t}) and H (nonzero) are scalars or index arrays that
    broadcast; the codes index CASES and PRIORS.

    Case I   : t even, or t odd with q = 1 mod 4; m outside both power sets
               and norm of h onto the middle field equal to +-1.
    Case IIa : t odd, q = 3 mod 4; m a nonzero (q^s+1)-power of a trace-zero
               element and norm -1.
    Case IIb : t odd, q = 3 mod 4; m outside both power sets, norm +1 and
               h^2 != -1.
    Priors, first match: LZ-ZZ (m = 1, h mid-field with h^2 = -1), LMTZ
    (m = 1, h outside the middle field with norm -1), SZZ (h in the base
    field, m outside both power sets at step 1).
    Refuses m outside F_{q^t} and h outside the nonzero element indices.
    """
    _refuse_outside(ctx, M, H)
    return _condition_tags(ctx, s, M, H)


def condition_rows(ctx: FieldCtx, s: int, ms, H) -> tuple:
    """(cls, tags): the tags see m only through its class bits, so
    `condition_tags` of one m per class gives every m; the tags of
    (ms[i], H) are row cls[i] of each array in tags."""
    _refuse_outside(ctx, ms, H)
    _, first, cls = np.unique(_m_bits(ctx, s, ms), return_index=True, return_inverse=True)
    return cls, _condition_tags(ctx, s, ms[first, None], H)


def _refuse_outside(ctx: FieldCtx, M, H):
    M, H = np.asarray(M), np.asarray(H)
    if (((H < 1) | (H >= ctx.size)).any() or ((M < 0) | (M >= ctx.size)).any()
            or not ctx.in_subfield(M, ctx.t).all()):
        raise ValueError("m must lie in F_{q^t} and h must be a nonzero element index")


def _condition_tags(ctx: FieldCtx, s: int, M, H) -> tuple:
    """`condition_tags` of pairs known to be in range."""
    hc, norm = _h_bits(ctx, H)
    tags = _tag_table(ctx)[_m_bits(ctx, s, M), hc]
    return tags[..., 0], tags[..., 1], norm


@dataclass
class CriterionVerdict:
    """Outcome of the sufficient-condition test for one (m, h) pair."""

    applies: bool
    case_tag: str  # "I", "IIa", "IIb" or "none"


def scattered_conditions(params: QuadParams) -> CriterionVerdict:
    """Sufficient conditions for the family member to be scattered: the
    case of `condition_tags` for the one pair, which QuadParams checked."""
    case = _condition_tags(params.ctx, params.s, params.m, params.h)[0]
    return CriterionVerdict(bool(case), CASES[case])


def prior_family_tag(params: QuadParams) -> str:
    """Which previously settled parameter class, if any, covers (m, h): the
    prior tag of `condition_tags` for the one pair, which QuadParams checked."""
    return PRIORS[_condition_tags(params.ctx, params.s, params.m, params.h)[1]]


# ---------------------------------------------------------------------------
# structural maps


@dataclass
class QuadSplit:
    """The family polynomial psi = m*lead_unit + tail split at one (s, h).

    lead_unit : X^(q^s) - h^(1-q^(s(t+1))) X^(q^(s(t+1)))
    tail      : X^(q^(s(t-1))) + h^(1-q^(s(2t-1))) X^(q^(s(2t-1)))
    twist     : h^(q^(s(t-1)) - q^s)
    lead_mult : X^(q^(st)) + twist X      (kernel = multipliers carrying
                ker(tail) into ker(lead))
    tail_mult : X^(q^(st)) + twist^-1 X   (kernel = multipliers carrying
                ker(lead) into ker(tail))

    All but `lead` depend on (s, h) alone: m scales the leading pair and
    keeps its kernel and image, so the kernel and image sets of the two
    pairs are computed once, on first use; `decompose` reads the kernels.
    """

    params: QuadParams
    lead_unit: LinPoly
    tail: LinPoly
    lead_mult: LinPoly
    tail_mult: LinPoly
    twist: int

    @property
    def lead(self) -> LinPoly:
        return self.lead_unit.scale(self.params.m)

    @cached_property
    def kernels(self) -> tuple:
        """(ker lead_unit, ker tail) as sorted index arrays."""
        return self.lead_unit.kernel_set(), self.tail.kernel_set()

    @cached_property
    def images(self) -> tuple:
        """(im lead_unit, im tail) as sorted index arrays."""
        return self.lead_unit.image_set(), self.tail.image_set()


def split_maps(params: QuadParams) -> QuadSplit:
    ctx, s, h = params.ctx, params.s, params.h
    t, n, q = ctx.t, ctx.n, ctx.q
    unit = quad_coeffs(replace(params, m=1))
    lead_unit = LinPoly.from_terms(ctx, s, {k: unit[k] for k in (1, t + 1)})
    tail = LinPoly.from_terms(ctx, s, {k: unit[k] for k in (t - 1, 2 * t - 1)})
    twist = ctx.pow(h, q ** ((s * (t - 1)) % n) - q ** (s % n))
    lead_mult = LinPoly.from_terms(ctx, s, {t: 1, 0: twist})
    tail_mult = LinPoly.from_terms(ctx, s, {t: 1, 0: ctx.inv(twist)})
    return QuadSplit(params, lead_unit, tail, lead_mult, tail_mult, twist)


def image_characterizations(sp: QuadSplit) -> bool:
    """Images of the unit leading and trailing pairs match their one-equation
    descriptions (valid when the norm of h is +-1):

        im(lead) = {z : z^(q^(st)) + h^(q^(st)-q^s) z = 0}
        im(tail) = {z : z^(q^(st)) - h^(q^(st)-q^(s(t-1))) z = 0}
    """
    ctx, s, h = sp.params.ctx, sp.params.s, sp.params.h
    t, n, q = ctx.t, ctx.n, ctx.q
    zs = ctx.elements()
    zt = ctx.frob_vec(zs, (s * t) % n)
    c2 = ctx.pow(h, q ** ((s * t) % n) - q ** ((s * (t - 1)) % n))
    c1 = ctx.mul(c2, sp.twist)   # h^(q^(st)-q^s)
    im_lead_pred = np.flatnonzero(ctx.add_vec(zt, ctx.scale_vec(c1, zs)) == 0)
    im_tail_pred = np.flatnonzero(ctx.add_vec(zt, ctx.NEG[ctx.scale_vec(c2, zs)]) == 0)
    il, it = sp.images
    return np.array_equal(il, im_lead_pred) and np.array_equal(it, im_tail_pred)


def decompose(sp: QuadSplit, x: int):
    """Unique x = x1 + x2 with x1 in ker(lead) and x2 in ker(tail).

    Matches x - ker(lead) against ker(tail), the split's kernel sets; raises
    DirectSumError unless |ker lead| * |ker tail| = size and exactly one
    difference matches (degenerate h), never returning a wrong pair.
    Refuses x outside [0, size).
    """
    ctx = sp.params.ctx
    ctx.refuse_index(x)
    kl, kt = sp.kernels
    rest = ctx.add_vec(x, ctx.NEG[kl])  # x - u for every u in ker(lead)
    hit = np.flatnonzero(np.isin(rest, kt))
    if kl.size * kt.size != ctx.size or hit.size != 1:
        raise DirectSumError("kernels of the two pairs do not split the field")
    x1, x2 = int(kl[hit[0]]), int(rest[hit[0]])
    if ctx.add(x1, x2) != x:
        raise RuntimeError("kernel components do not add up to x")
    return x1, x2


def basis_components(sp: QuadSplit, gamma: int, rho: int):
    """Coordinates of gamma in the two middle-field bases {1, rho}, {1, tau}.

    rho must be a nonzero kernel element of the lead multiplier map; tau is
    its twist h^(q^(s(t-1)) - q^s) * rho.  Returns ((l1, m1), (l2, m2)); the
    second pair is produced by the closed-form transfer
        l2 = l1 + m1 * rho * (1 - h^(q^(s(t-1)) - q^s)),  m2 = m1
    and cross-checked by direct resolution in the second basis.  Refuses
    gamma outside [0, size).
    """
    ctx, s = sp.params.ctx, sp.params.s
    t, n = ctx.t, ctx.n
    ctx.refuse_index(gamma)
    if rho == 0 or sp.lead_mult.eval(rho) != 0:
        raise ValueError("rho must be a nonzero kernel element of the lead multiplier")
    tau = ctx.mul(sp.twist, rho)

    def components(base2):
        # gamma = l + m*base2 with l, m fixed by the middle-field conjugation
        st = (s * t) % n
        num = ctx.sub(gamma, ctx.frob(gamma, st))
        den = ctx.sub(base2, ctx.frob(base2, st))
        mm = ctx.div(num, den)
        ll = ctx.sub(gamma, ctx.mul(mm, base2))
        if not (ctx.in_subfield(mm, t) and ctx.in_subfield(ll, t)):
            raise RuntimeError("basis components escaped the middle field")
        return ll, mm

    l1, m1 = components(rho)
    l2_direct, m2_direct = components(tau)
    shift = ctx.mul(m1, ctx.mul(rho, ctx.sub(1, sp.twist)))
    l2 = ctx.add(l1, shift)
    if (l2, m1) != (l2_direct, m2_direct):
        raise RuntimeError("component transfer disagrees")
    return (l1, m1), (l2, m1)


def multiplier_equivalences(sp: QuadSplit) -> bool:
    """Exhaustive three-way equivalences tying the multiplier kernels to the
    pair kernels and images:

      a in ker(lead_mult)  <=>  a*v in ker(lead)  <=>  a*tail(u) in im(lead)
      b in ker(tail_mult)  <=>  b*u in ker(tail)  <=>  b*lead_unit(v) in im(tail)

    for any fixed nonzero u in ker(lead), v in ker(tail), swept over every a
    and b in the field.
    """
    ctx = sp.params.ctx
    (kl, kt), (il, it) = sp.kernels, sp.images
    u, v = int(kl[1]), int(kt[1])   # sorted, and 0 comes first
    elems = ctx.elements()
    ok = True
    for mult, ker, im, w, y in ((sp.lead_mult, kl, il, v, sp.tail.eval(u)),
                                (sp.tail_mult, kt, it, u, sp.lead_unit.eval(v))):
        member = np.zeros((2, ctx.size), dtype=bool)
        member[0, ker] = member[1, im] = True
        in_ker = mult.eval_field() == 0
        ok &= (np.array_equal(in_ker, member[0, ctx.mul_vec(elems, w)])
               and np.array_equal(in_ker, member[1, ctx.mul_vec(elems, y)]))
    return ok


def ratio_in_trace_kernel(sp: QuadSplit, x1: int, x2: int) -> bool:
    """tail(x1) / (x2 * (h^(q^s) + h^(q^(s(t-1))))) lies in ker Tr.

    Requires x2 a nonzero element index and a nonzero denominator; it
    vanishes only if h^(q^(s(t-2))) = -h, which the norm conditions exclude.
    """
    ctx, s, h = sp.params.ctx, sp.params.s, sp.params.h
    t, n = ctx.t, ctx.n
    ctx.refuse_index(x2)
    if x2 == 0:
        raise ValueError("x2 must be nonzero")
    den = ctx.add(ctx.frob(h, s % n), ctx.frob(h, (s * (t - 1)) % n))
    if den == 0:
        raise ArithmeticError(
            "denominator vanished: h^(q^(s(t-2))) = -h, outside the admissible range"
        )
    val = ctx.div(sp.tail.eval(x1), ctx.mul(x2, den))
    return ctx.trace_rel(val, t) == 0


def h_power_report(params: QuadParams) -> dict:
    """The three power facts about h used throughout the condition calculus."""
    ctx, s, h = params.ctx, params.s, params.h
    n, q = ctx.n, ctx.q
    nh = params.norm_h
    h_q2s_plus_1 = ctx.pow(h, q ** ((2 * s) % n) + 1)
    flip = ctx.frob(h, (s * (ctx.t - 2)) % n)
    report = {
        "norm_h": int(nh),
        "norm_sign": 1 if nh == 1 else (-1 if nh == ctx.neg_one else 0),
        "h_pow_q2s_plus_1": int(h_q2s_plus_1),
        "h_pow_q2s_plus_1_not_one": h_q2s_plus_1 != 1,
        "h_pow_q2s_plus_1_not_minus_one": h_q2s_plus_1 != ctx.neg_one,
        "no_frobenius_flip": flip != ctx.neg(h),
        "gcd_q2s_plus_1_order": gcd(q ** (2 * s) + 1, ctx.size - 1),
    }
    return report


# ---------------------------------------------------------------------------
# non-scatteredness witness for the minus power set


def witness_range(ctx: FieldCtx, H):
    """Mask of h in F_{q^t} with h^4 = 1 (a scalar or an index array): the
    range of `nonscattered_witness`."""
    return ctx.in_subfield(H, ctx.t) & (ctx.pow_vec(H, 4) == 1)


def nonscattered_witness(params: QuadParams):
    """A verified pair (x, y) with f(x)/x = f(y)/y and x/y outside F_q.

    Exists whenever m is a (q^s - 1)-power of a trace-zero element and h lies
    in `witness_range`.  Returns None when m is outside the minus power set;
    raises ValueError when h is outside the range, and RuntimeError (never
    None) if the construction fails.  It takes x = 1 + x1 and y = 1 + xi*x1
    with xi the smallest base-field scalar other than 0 and 1 in canonical
    order; all choices are reported for reproducibility.
    """
    ctx, s, m, h = params.ctx, params.s, params.m, params.h
    t, n, q = ctx.t, ctx.n, ctx.q
    if not witness_range(ctx, h):
        raise ValueError("witness requires h in the middle field with h^4 = 1")
    if not in_minus_power_set(ctx, s, m):
        return None
    f = build_quadrinomial(params)

    if m == 0:
        # the polynomial is the trailing pair alone; any two independent
        # kernel elements violate scatteredness
        kb = f.kernel_basis()
        x, y = int(kb[0]), int(kb[ctx.e])
        rec = {"x": x, "y": y, "gamma": None, "x0": None, "xi": None, "kind": "kernel"}
        _check_witness(f, x, y)
        return rec

    ker = ctx.ker_trace()
    if ctx.mul(h, h) == ctx.neg_one and not ctx.in_subfield(h, 1):
        # trailing-pair form: x1 trace-zero with x1^(q^(s(t-1)) - 1) = m
        cands = ker[ctx.pow_vec(ker, q ** ((s * (t - 1)) % n) - 1) == m]
        gamma = x1 = int(cands[0])
    else:
        cands = ker[ctx.pow_vec(ker, q ** (s % n) - 1) == m]
        if cands.size == 0:
            raise RuntimeError("m in the minus power set has no trace-zero preimage")
        gamma = int(cands[0])
        x1 = ctx.inv(gamma)
    xi = _smallest_scalar_not_01(ctx)
    x = ctx.add(1, x1)
    y = ctx.add(1, ctx.mul(xi, x1))
    _check_witness(f, x, y)
    return {"x": int(x), "y": int(y), "gamma": gamma, "x0": 1, "xi": int(xi), "kind": "ratio"}


# ---------------------------------------------------------------------------
# bundled structural property suite


def admissible_h(ctx: FieldCtx) -> np.ndarray:
    """Nonzero h with norm -1, or norm +1 and h^2 != -1 (the range where the
    kernel/image split machinery is valid)."""
    hs = ctx.nonzero_elements()
    hc = _h_bits(ctx, hs)[0]
    return hs[((hc & _NORMM1) != 0) | ((hc & (_NORM1 | _SQRTM1)) == _NORM1)]


def run_property_suite(ctx: FieldCtx, s: int, exhaustive: bool = True,
                       samples: int = 200, seed: int = 0):
    """Run every structural statement at (q, t, s); returns [(name, ok, detail)].

    Exhaustive mode sweeps all admissible (m, h) pairs; sampled mode draws a
    seeded subset of `samples` h, for larger fields.  samples < 1 is
    refused with ValueError: it would check no h and pass vacuously.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # tower split and trace-zero closure facts
    ker = ctx.ker_trace()
    mid = ctx.subfield(ctx.t)
    record("trace_kernel_size", ker.size == ctx.q ** ctx.t,
           f"{ker.size} vs {ctx.q ** ctx.t}")
    inter = np.intersect1d(ker, mid)
    record("tower_direct_sum_trivial_intersection", inter.size == 1 and inter[0] == 0)
    xs = rng.integers(0, ctx.size, 64)
    ok_split = True
    for x in xs:
        x0, x1 = ctx.tower_split(int(x))
        ok_split &= ctx.in_subfield(x0, ctx.t) and ctx.frob(x1, ctx.t) == ctx.neg(x1)
        ok_split &= ctx.add(x0, x1) == int(x)
    record("tower_split_roundtrip", ok_split)
    w = ker[ker != 0]
    prods = ctx.mul_vec(w[:, None], w[None, :]).ravel()
    record("trace_zero_products_in_middle_field", ctx.in_subfield(prods, ctx.t).all())
    odd_pows = ctx.pow_vec(w, 3)
    even_pows = ctx.pow_vec(w, 4)
    record("trace_zero_odd_even_powers",
           bool((ctx.frob_vec(odd_pows, ctx.t) == ctx.NEG[odd_pows]).all()
                and ctx.in_subfield(even_pows, ctx.t).all()))

    # power sets
    record("power_sets_step_independent", power_sets_step_independent(ctx, s))
    plus = trace_zero_power_set(ctx, s, +1)
    minus = trace_zero_power_set(ctx, s, -1)
    inter = np.intersect1d(plus, minus)
    record("power_sets_intersect_in_zero", inter.size == 1 and inter[0] == 0)

    # h-power facts over every h in the admissible range
    hs = admissible_h(ctx)
    ok1 = ok2 = ok3 = True
    for h in hs:
        rep = h_power_report(QuadParams(ctx, s, 0, int(h)))
        if rep["norm_sign"] == -1:
            ok1 &= rep["h_pow_q2s_plus_1_not_one"]
        if rep["norm_sign"] == 1:
            ok2 &= rep["h_pow_q2s_plus_1_not_minus_one"]
        ok3 &= rep["no_frobenius_flip"]
    record("h_power_condition_norm_minus_one", ok1)
    record("h_power_condition_norm_plus_one", ok2)
    record("h_no_frobenius_flip", ok3)

    # structural split, images, multipliers, components, ratio membership:
    # one split per h, whose kernels and images every statement reads
    mid_nz = mid[mid != 0]
    if not exhaustive:
        hs = hs[rng.choice(hs.size, size=min(samples, hs.size), replace=False)]
    ok_sum = ok_img = ok_mult = ok_comp = ok_ratio = ok_dims = ok_scale = True
    qt = ctx.q ** ctx.t
    m0 = int(mid_nz[0])
    for h in hs:
        h = int(h)
        sp = split_maps(QuadParams(ctx, s, m0, h))
        (kl, kt), (il, it) = sp.kernels, sp.images
        kr = sp.lead_mult.kernel_set()
        ok_dims &= kl.size == qt and kt.size == qt
        ok_dims &= np.intersect1d(kl, kt).size == 1
        ok_dims &= np.intersect1d(il, it).size == 1
        ok_dims &= kr.size == qt and sp.tail_mult.kernel_set().size == qt
        ok_img &= image_characterizations(sp)
        ok_mult &= multiplier_equivalences(sp)
        rho = int(kr[1])
        gamma_el = int(rng.integers(0, ctx.size))
        (l1, m1), (l2, m2) = basis_components(sp, gamma_el, rho)
        ok_comp &= ctx.add(l1, ctx.mul(m1, rho)) == gamma_el
        ok_comp &= ctx.add(l2, ctx.mul(m2, ctx.mul(sp.twist, rho))) == gamma_el
        if not ctx.in_subfield(h, ctx.t):
            x1c = int(kl[rng.integers(0, kl.size)])
            ok_ratio &= ratio_in_trace_kernel(sp, x1c, int(kt[1]))
        # the facts that depend on m: psi, decompose, the scaled lead pair
        ms = mid_nz if exhaustive else mid_nz[rng.choice(mid_nz.size, 3, replace=False)]
        for m in ms:
            lead = sp.lead_unit.scale(int(m))
            ok_sum &= build_quadrinomial(QuadParams(ctx, s, int(m), h)) == lead.add(sp.tail)
            x1, x2 = decompose(sp, int(rng.integers(0, ctx.size)))
            ok_sum &= lead.eval(x1) == 0 and sp.tail.eval(x2) == 0
            ok_scale &= np.array_equal(lead.kernel_set(), kl)
            ok_scale &= np.array_equal(lead.image_set(), il)
    record("quadrinomial_is_lead_plus_tail", ok_sum)
    record("kernel_image_direct_sums", ok_dims)
    record("lead_pair_kernel_image_independent_of_m", ok_scale)
    record("image_one_equation_characterizations", ok_img)
    record("multiplier_three_way_equivalences", ok_mult)
    record("two_bases_component_transfer", ok_comp)
    record("ratio_lands_in_trace_kernel", ok_ratio)
    return results


def _smallest_scalar_not_01(ctx: FieldCtx) -> int:
    base = ctx.subfield(1)
    for v in base:
        if v not in (0, 1):
            return int(v)
    raise RuntimeError("base field has at least three elements for odd q")


def _check_witness(f: LinPoly, x: int, y: int):
    ctx = f.ctx
    if x == 0 or y == 0:
        raise RuntimeError("degenerate witness")
    lhs = ctx.mul(f.eval(x), y)
    rhs = ctx.mul(f.eval(y), x)
    if lhs != rhs:
        raise RuntimeError("witness fails the ratio identity")
    ratio = ctx.div(x, y)
    if ctx.in_subfield(ratio, 1):
        raise RuntimeError("witness pair is base-field dependent")
