import hashlib
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (
    fiber_counts_field, fiber_profile_sorted, fiber_profiles_full_field, orbit_codes_all_rows,
    scaling_class,
)
from scatlin.fieldcore import BudgetExceededError, make_field
from scatlin.linpoly import LinPoly, log_sums
from scatlin.scattered import (
    fiber_counts, fiber_profile, fiber_profiles, is_scattered_fiber, is_scattered_roots,
    linear_set_size, orbit_codes, profile_key, profile_keys,
)
from scatlin.quadrinomial import QuadParams, build_quadrinomial, build_quadrinomial_swapped
from scatlin.sweep import condition_pairs, h_class_reps


def lp_binomial(ctx, s=1):
    for d in range(2, ctx.size):
        if ctx.norm_rel(d, 1) not in (0, 1):
            return LinPoly.from_terms(ctx, s, {1: 1, ctx.n - 1: d})
    raise AssertionError


def test_pseudoregulus_is_scattered(f33):
    mono = LinPoly.monomial(f33, 1, 1)
    assert is_scattered_fiber(mono)
    assert is_scattered_roots(mono)
    assert linear_set_size(mono) == 364


def test_lp_binomial_is_scattered(f33):
    lp = lp_binomial(f33)
    assert is_scattered_fiber(lp)
    assert is_scattered_roots(lp)


def test_identity_and_zero_are_not(f33):
    X = LinPoly.identity(f33)
    assert not is_scattered_fiber(X)
    assert linear_set_size(X) == 1
    zero = LinPoly.zero(f33)
    assert not is_scattered_roots(zero)
    assert not is_scattered_fiber(zero)


def test_middle_frobenius_profile(f33):
    # x -> x^(q^t): ratio x^(q^t - 1) has exactly q^t + 1 values
    f = LinPoly.monomial(f33, 1, 3)
    assert linear_set_size(f) == 28
    assert not is_scattered_fiber(f)


def test_size_is_maximal_iff_scattered(f33):
    rng = np.random.default_rng(0)
    top = 364
    for _ in range(40):
        slots = rng.choice(6, size=4, replace=False)
        f = LinPoly.from_terms(
            f33, 1, {int(i): int(rng.integers(1, 729)) for i in slots}
        )
        assert (linear_set_size(f) == top) == is_scattered_fiber(f)


def test_oracles_agree_on_random_quadrinomials(f33):
    rng = np.random.default_rng(1)
    mids = f33.subfield(3)
    for _ in range(40):
        m = int(mids[rng.integers(0, 27)])
        h = int(rng.integers(1, 729))
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        assert is_scattered_fiber(f) == is_scattered_roots(f)


def test_adjoint_of_scattered_is_scattered(f33):
    for m, h in condition_pairs(f33, 1):
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        assert is_scattered_fiber(f.adjoint())


def test_gl_invariance_under_rescaling(f33):
    rng = np.random.default_rng(2)
    f = build_quadrinomial(QuadParams(f33, 1, *condition_pairs(f33, 1)[0]))
    verdict = is_scattered_fiber(f)
    for a in rng.integers(1, 729, 50):
        g = f.compose(LinPoly.from_terms(f33, 1, {0: int(a)}))
        assert is_scattered_fiber(g) == verdict


def test_roots_oracle_refuses_large_fields():
    """(7,3) has 7^6 elements, above the bound of 3^10."""
    f = LinPoly.monomial(make_field(7, 1, 3), 1, 1)
    with pytest.raises(BudgetExceededError, match="fiber"):
        is_scattered_roots(f)


F33, F34 = make_field(3, 1, 3), make_field(3, 1, 4)
_SPECIAL = [
    poly
    for ctx in (F33, F34)
    for poly in (
        LinPoly.zero(ctx),
        LinPoly.identity(ctx),
        LinPoly.monomial(ctx, 1, ctx.t),                       # middle-field Frobenius
        LinPoly.monomial(ctx, 1, 2),                           # X^(q^2), kernel-free
        LinPoly.from_terms(ctx, 1, {1: 1, 0: ctx.neg_one}),    # X^q - X, kernel F_q
        LinPoly.from_terms(ctx, 1, {2: 1, 0: ctx.neg_one}),    # X^(q^2) - X, kernel F_(q^2)
    )
]


@st.composite
def _polys(draw):
    """A family member at any coprime step, or a random polynomial."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    if draw(st.booleans()):
        m = draw(st.sampled_from(ctx.subfield(ctx.t).tolist()))
        h = draw(st.integers(1, ctx.size - 1))
        return build_quadrinomial(QuadParams(ctx, s, m, h))
    terms = draw(st.dictionaries(st.integers(0, ctx.n - 1), st.integers(0, ctx.size - 1),
                                 max_size=4))
    return LinPoly.from_terms(ctx, s, terms)


def _with_examples(test):
    for poly in _SPECIAL:
        test = example(poly)(test)
    return test


@_with_examples
@settings(max_examples=150, deadline=None)
@given(_polys())
def test_fast_kernel_matches_generic_oracle(f):
    n_points, scattered = fiber_profile(f)
    assert (n_points, scattered) == fiber_profile_sorted(f)
    if f.ctx is F33:
        assert scattered == is_scattered_roots(f)


# members with a kernel: m = 0, h = 1 (kernel of size q^t), and members whose
# kernel is F_q^2 at (3,3) and (3,4); a monomial whose coefficient is not 1
_KERNEL_MEMBERS = [build_quadrinomial(QuadParams(ctx, 1, m, h))
                   for ctx, m, h in ((F33, 0, 1), (F33, 1, 3), (F34, 0, 1), (F34, 1, 88))]


@_with_examples
@example(LinPoly.monomial(F34, 3, 2, 5))
@example(_KERNEL_MEMBERS[0])
@example(_KERNEL_MEMBERS[1])
@example(_KERNEL_MEMBERS[2])
@example(_KERNEL_MEMBERS[3])
@settings(max_examples=100, deadline=None)
@given(_polys())
def test_fiber_counts_match_the_full_field_count(f):
    """`fiber_counts`, q - 1 times the count at one point per F_q*-class,
    against the count at every nonzero x, slot by slot; the full-field
    verdict of `is_scattered_fiber` against `fiber_profile`, with the roots
    oracle as a third opinion."""
    assert np.array_equal(fiber_counts(f), fiber_counts_field(f))
    scattered = is_scattered_fiber(f)
    assert scattered == fiber_profile(f)[1] == is_scattered_roots(f)


# -- the scaling key ------------------------------------------------------------


def _scaled(f, lam, mu):
    """mu*f(lambda*X)."""
    return f.compose(LinPoly.from_terms(f.ctx, 1, {0: lam})).scale(mu)


@st.composite
def _scalings(draw):
    """f with 0-4 terms at (3,3) or (3,4), lambda, mu, a twist j, and one
    slot to perturb."""
    ctx = draw(st.sampled_from([F33, F34]))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    terms = draw(st.dictionaries(st.integers(0, ctx.n - 1), st.integers(1, ctx.size - 1),
                                 max_size=4))
    nonzero = st.integers(1, ctx.size - 1)
    return (LinPoly.from_terms(ctx, s, terms), draw(nonzero), draw(nonzero),
            draw(st.integers(0, ctx.deg - 1)), draw(st.integers(0, ctx.n - 1)), draw(nonzero))


@example((LinPoly.zero(F33), 5, 7, 1, 0, 3))
@example((LinPoly.zero(F34), 5, 7, 1, 2, 3))
@settings(max_examples=200, deadline=None)
@given(_scalings())
def test_profile_key_is_a_scaling_invariant(case):
    f, lam, mu, j, slot, c = case
    image = _scaled(f, lam, mu)
    assert profile_key(image) == profile_key(f)
    assert fiber_profile(image.frobenius_twist(j)) == fiber_profile(f)
    # multiplying one coefficient by c leaves the scaling class only sometimes;
    # the key must follow the class either way
    other = LinPoly.from_terms(f.ctx, 1, {**dict(enumerate(image.coeffs.tolist())),
                                          slot: f.ctx.mul(int(image.coeffs[slot]), c)})
    assert (profile_key(other) == profile_key(f)) == (scaling_class(other) == scaling_class(f))


def test_profile_key_separates_the_scaling_classes_of_the_grid(f33):
    """On the h-deduped (3,3) grid, keys and brute-force classes induce the
    same partition: 741 classes for 9,828 members."""
    mids, reps = f33.subfield(3), h_class_reps(f33)
    fs = [build_quadrinomial(QuadParams(f33, 1, int(m), int(h))) for m in mids for h in reps]
    keys = [profile_key(f) for f in fs]
    classes = [scaling_class(f) for f in fs]
    assert len(set(keys)) == len(set(zip(keys, classes))) == len(set(classes)) == 741


def test_orbit_codes_refuse_to_overflow():
    """Codes are int64; a support whose key space exceeds it is refused.
    With q = 3 and N = 3^40 - 1, the keys of X + X^q + X^(q^2) + X^(q^3)
    span 2 * N^2 values."""
    big = SimpleNamespace(p=3, q=3, order=3 ** 40 - 1, deg=40)
    with pytest.raises(BudgetExceededError, match="overflow"):
        orbit_codes(big, (0, 1, 2, 3), [[0, 0, 0, 0]])


# -- batched profiles and codes ------------------------------------------------


F53, F73, F923 = make_field(5, 1, 3), make_field(7, 1, 3), make_field(3, 2, 3)


@st.composite
def _support_rows(draw, towers, max_rows):
    """1 to max_rows polynomials over one q-exponent support on one of
    `towers`: family members in either form (m = 0 gives the binomial), or
    one to four terms with coefficients in the field or in F_p (whose
    partial sums cancel often).  Blocks hold 45 rows at (3,3) and 4 at (3,4)
    and (5,3), so row counts cross block boundaries unevenly."""
    ctx = draw(st.sampled_from(towers))
    s = draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    count = draw(st.integers(1, max_rows))
    kind = draw(st.sampled_from(["main", "swapped", "binomial", "field", "base"]))
    nonzero = st.integers(1, ctx.size - 1)
    if kind in ("main", "swapped", "binomial"):
        build = build_quadrinomial_swapped if kind == "swapped" else build_quadrinomial
        ms = st.just(0) if kind == "binomial" else st.sampled_from(ctx.subfield(ctx.t)[1:].tolist())
        return [build(QuadParams(ctx, s, draw(ms), draw(nonzero))) for _ in range(count)]
    slots = draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=4, unique=True))
    coeffs = nonzero if kind == "field" else st.integers(1, ctx.p - 1)
    return [LinPoly.from_terms(ctx, s, {i: draw(coeffs) for i in slots}) for _ in range(count)]


def _assert_profiles_agree(fs):
    """`fiber_profiles` on the rows of fs (one support) against one
    `fiber_profile` per row and the full-field count of every row, and at
    (3,3) the roots oracle as a third opinion on the first rows."""
    ctx = fs[0].ctx
    support = np.flatnonzero(fs[0].coeffs)
    assert all(np.array_equal(np.flatnonzero(f.coeffs), support) for f in fs)
    logs = ctx.LOG[np.array([f.coeffs[support] for f in fs])]
    size, scattered = fiber_profiles(ctx, tuple(support.tolist()), logs)
    assert list(zip(size.tolist(), scattered.tolist())) == [fiber_profile(f) for f in fs]
    full_size, full_scattered = fiber_profiles_full_field(ctx, tuple(support.tolist()), logs)
    assert np.array_equal(size, full_size) and np.array_equal(scattered, full_scattered)
    if ctx is F33:
        assert [is_scattered_roots(f) for f in fs[:3]] == scattered[:3].tolist()


@example([LinPoly.from_terms(F33, 1, {0: F33.neg_one, 1: 1})] * 46)   # X^q - X
@example([LinPoly.monomial(F34, 3, 2, 5)] * 5)
@settings(max_examples=60, deadline=None)
@given(_support_rows([F33, F34], 50))
def test_fiber_profiles_match_per_row_fiber_profile(fs):
    """One point per F_q*-class against every nonzero point, at (3,3) and (3,4)."""
    _assert_profiles_agree(fs)


@example([LinPoly.from_terms(F923, 1, {0: F923.neg_one, 1: 1})] * 2)   # X^q - X, q = 9
@example([LinPoly.monomial(F73, 5, 4, 3)])
@settings(max_examples=15, deadline=None)
@given(_support_rows([F53, F73, F923], 5))
def test_fiber_profiles_match_on_larger_towers(fs):
    """The same at (5,3), (7,3) and the e = 2 tower (3,2,3), where q = 9 and
    d = order/8; blocks hold one row at (7,3) and (3,2,3)."""
    _assert_profiles_agree(fs)


@pytest.mark.parametrize("ctx", [F33, F53, F73, F923], ids=["33", "53", "73", "323"])
def test_fiber_profiles_with_cancelling_sums(ctx):
    """X + c*X^q and X + c*X^q + X^(q^2) for every c in F_p*, one-term rows,
    all in one block: `log_sums` reports a cancel mask on the class
    representatives (X^q - X vanishes at x = 1), different rows cancel at
    different points, and the profiles agree with the references."""
    binomials = [LinPoly.from_terms(ctx, 1, {0: 1, 1: c}) for c in range(1, ctx.p)]
    trinomials = [LinPoly.from_terms(ctx, 1, {0: 1, 1: c, 2: 1}) for c in range(1, ctx.p)]
    d = ctx.order // (ctx.q - 1)
    terms = [ctx.LOG[ctx.FROB[e][ctx.EXP[:d]]] for e in (0, 1)]
    offsets = np.array([[ctx.LOG[f.coeffs[1]] for f in binomials]]).T[None]
    _, cancel = log_sums(ctx, terms, offsets)
    assert cancel is not None and cancel[ctx.p - 2, 0]   # c = -1 at x = 1
    assert not np.array_equal(cancel[0], cancel[-1])
    for fs in (binomials, trinomials, [LinPoly.monomial(ctx, 1, 2, c) for c in (1, 2)]):
        _assert_profiles_agree(fs)


def test_fiber_profiles_refuse_the_empty_support(f33):
    with pytest.raises(ValueError, match="nonempty"):
        fiber_profiles(f33, (), np.zeros((1, 0), dtype=np.int64))


@st.composite
def _code_rows(draw):
    """Random coefficient logs over a random support at (3,3) or (3,4), then
    images of the first row under scalings and p-power twists: mu*f(lambda*X)
    adds log mu + q^e*log lambda to the log of the coefficient of X^(q^e),
    and the twist multiplies every log by p^j."""
    ctx = draw(st.sampled_from([F33, F34]))
    support = tuple(sorted(draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=4,
                                         unique=True))))
    logs = st.integers(0, ctx.order - 1)
    row = st.lists(logs, min_size=len(support), max_size=len(support))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    images = []
    for _ in range(draw(st.integers(0, 10))):
        lam, mu, p_j = draw(logs), draw(logs), ctx.p ** draw(st.integers(0, ctx.deg - 1))
        images.append([(a + mu + pow(ctx.q, e, ctx.order) * lam) * p_j % ctx.order
                       for a, e in zip(rows[0], support)])
    return ctx, support, np.array(rows + images, dtype=np.int64), len(images)


@settings(max_examples=100, deadline=None)
@given(_code_rows())
def test_orbit_codes_match_the_all_rows_reference(case):
    """Codes from the twist minimum on distinct keys equal the minimum on
    every row; the images of the first row share its code, the key count is
    the number of distinct `profile_keys` rows, and the row `first` names
    for each key has that key."""
    ctx, support, logs, images = case
    key_codes, first, inverse = orbit_codes(ctx, support, logs)
    codes = key_codes[inverse]
    assert np.array_equal(codes, orbit_codes_all_rows(ctx, support, logs))
    assert set(codes[len(logs) - images:].tolist()) <= {int(codes[0])}
    keys = profile_keys(ctx, support, logs)
    assert key_codes.size == len({tuple(u) for u in keys.tolist()})
    assert np.array_equal(keys[first][inverse], keys)


# -- pinned fiber counts --------------------------------------------------------

# SHA-256 of fiber_counts(f).tobytes() for the members of `_pinned_members`,
# recorded with the kernel that scaled every term and reduced logs with %
KERNEL_DIGESTS = {
    (3, 1, 5, 1): (
        "912fe03b4a3301d84a8f65bd82881976ab1958373f39173272c08417eeecaa52",
        "8adac7af541eec31a21ef5d2cca4ef605f9dad8c405d010f66037b0f97a98d2f",
        "3eee962e7e9209394d89db28aee8e3a0067e5d5836699e6222c3d6f07413ddd9",
        "bfbced63d67633544cac0b44b3524da9eceb280c647890329eb2728df6f559fa",
    ),
    (3, 1, 5, 3): (
        "92ad960f07f8c5f6e2b99c5d4ed5e3041310328dc82ddfa6f2d8008431ebfd03",
        "51dd2948340ca3bd64b1d7ad34304bf8d5a23510ce348d030cc20aedb48d0aa5",
        "df59ff0c0a3c756b104de2e1194005c7bc83b800199c27e26c9200931ceb65bd",
        "10ac1d3e80a25eb93f43c1a5c192c640ccb43bea1048d83f70c644b47987e7b3",
    ),
    (3, 1, 5, 7): (
        "4a510d0544b8215f7f97f576ee1c625414c5d42fe92efc0f9b358da6e229b3e5",
        "29ca4af874e790a5b651ec24e290475ba33bc770cf1e08c699fc122859fd6e7b",
        "fa8504b32310888dd4a3186194fc8d58e63176e68f9a8b049baedf09751058b0",
        "da72eacf0ba55a6d09dbfe57e7ce047c4287c0a9fbc1ded72f5de2fb7eccec9f",
    ),
    (3, 1, 5, 9): (
        "2929fe91d55f795ecbc729371a9cd97ad82f87440a71a7ebeec2d976d92b82bd",
        "c3bd70aea73d7f8a8e7f32b0d8d704644554e694dcdcb0f3940dcdeabd4c8f97",
        "7559ba68eb2c5eff54a0b2ac5c79bd28b7556ab2b6f4b32068838194ddea44da",
        "b5b936eb7bb2fcfd1ffa8343f04c02437a5cce3fbc2d7289076f24d26c3aca26",
    ),
    (5, 1, 3, 1): (
        "3cbc5cf7533bab789aadd45b43c7fbe1b1b7ffe0583d69a819e9d533ea1c38c1",
        "4e8e587642f5da5a1de595c08c4fefcc28d14bbc5497c1ec91e23026a36d50d7",
        "935f689888723baa675894f5355be7023071b8703a0ed5b815a1384881c7dd2e",
        "c2cdb5da180ee63f480ae407f61c106e44efaa557939684b18ab4dbb9129b994",
    ),
    (5, 1, 3, 5): (
        "07448d5d3d2caa4fa9b789feec446f2be85216512c8b1712b3ffa4ffaa41d465",
        "cbf1c2f97f5b3dd79e54ec96e1bb64b9f53bd5d858bdc0fad6a53e195c949e01",
        "9d62c857f219dfc9b3c75a84e2af2d807706924223036f43e66db21d0161c0b7",
        "e20a78073300d3c16026fb47324e6ad42bb2b91847177705bc626bb5c2006f92",
    ),
    (7, 1, 3, 1): (
        "3bc526a3e16b690be5b406e3f3434dbe31e1623446e20a720dfba84c2cefdd27",
        "ef64893c59e3edda701b2f46b72ff7dd5ed0578abcc1ea253c67a73b74e3a514",
        "0203eed0a5f9c7ab57ec14d57bb1435c465ac985e3b60f9a19d63b1340bd7f5c",
        "3c9d8c7cfa77603e64472fef11f5f6fba4104a86c1574a8778b59631532b1f60",
    ),
    (7, 1, 3, 5): (
        "9f97f67d878f69bfd1c0161746d2f68ebc0d287164deae2a53e2fd830786d048",
        "8ce973a4b94df3f999108b3f530fb713cd9b420a9f7e1128a2898734bdf12e5b",
        "7859cc2c57020b6d3b19d3bbd4110885abdefc522469eae092a66ab2d004515b",
        "a2a00874f95b75496531c5c7a89866af5dc530950db529fc1efeec74c5ff913d",
    ),
}


def _pinned_members(ctx, s):
    """Two seeded members where the sufficient conditions apply, then two
    seeded members of the whole family."""
    rng = np.random.default_rng(ctx.size + s)
    pairs = condition_pairs(ctx, s)
    picks = [pairs[i] for i in rng.choice(len(pairs), size=2, replace=False).tolist()]
    mid = ctx.subfield(ctx.t)
    picks += [(int(rng.choice(mid)), int(rng.integers(1, ctx.size))) for _ in range(2)]
    return [build_quadrinomial(QuadParams(ctx, s, m, h)) for m, h in picks]


@pytest.mark.parametrize("p,e,t", [(3, 1, 5), (5, 1, 3), (7, 1, 3)])
def test_fiber_counts_are_pinned(p, e, t):
    ctx = make_field(p, e, t)
    steps = [s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]
    assert sorted(k[3] for k in KERNEL_DIGESTS if k[:3] == (p, e, t)) == steps
    for s in steps:
        digests = tuple(hashlib.sha256(fiber_counts(f).tobytes()).hexdigest()
                        for f in _pinned_members(ctx, s))
        assert digests == KERNEL_DIGESTS[p, e, t, s]
