from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatlin import gflinalg
from scatlin.equivalence import gl_search
from scatlin.fieldcore import BudgetExceededError, make_field
from scatlin.linpoly import LinPoly
from scatlin.scattered import is_scattered_fiber
from scatlin.quadrinomial import QuadParams, build_quadrinomial
from scatlin.mrdcodes import (
    PairRange,
    RankCode,
    StabilizerSet,
    _graph_maps,
    mat_det,
    mat_mul,
    right_idealizer,
    left_idealizer,
    stabilizer,
    standard_form,
)
from scatlin.sweep import condition_pairs

from reference import (
    canonical_witness, closure_all_pairs, codeword_ranks_elimination, graph_maps_grid,
    graph_maps_three_blocks, invertible, left_idealizer_grid, left_idealizer_list,
    mat_det_scalar, mat_mul_scalar,
)


def lp_binomial(ctx, s=1):
    for d in range(2, ctx.size):
        if ctx.norm_rel(d, 1) not in (0, 1):
            return LinPoly.from_terms(ctx, s, {1: 1, ctx.n - 1: d})
    raise AssertionError


def condition_member(ctx, s=1, k=0):
    m, h = condition_pairs(ctx, s)[k]
    return build_quadrinomial(QuadParams(ctx, s, m, h))


def random_scattered(ctx, rng, count):
    mids = ctx.subfield(ctx.t)
    out = []
    while len(out) < count:
        slots = rng.choice(ctx.n, size=4, replace=False)
        f = LinPoly.from_terms(
            ctx, 1, {int(i): int(rng.integers(1, ctx.size)) for i in slots}
        )
        if f.coeffs[1:].any() and is_scattered_fiber(f):
            out.append(f)
    return out


# -- distance and the maximum-rank bound --------------------------------------


def test_min_distance_of_scattered_families(f33):
    code = RankCode(LinPoly.monomial(f33, 1, 1))
    assert code.min_distance() == 5
    assert code.is_mrd()
    assert RankCode(lp_binomial(f33)).min_distance() == 5


def test_min_distance_middle_frobenius(f33):
    code = RankCode(LinPoly.monomial(f33, 1, 3))
    assert code.min_distance() == 3
    assert not code.is_mrd()


def test_degenerate_span_rejected(f33):
    with pytest.raises(ValueError, match="independent of X"):
        RankCode(LinPoly.from_terms(f33, 1, {0: 5}))
    with pytest.raises(ValueError):
        RankCode(LinPoly.zero(f33))


def test_zero_polynomial_has_no_stabilizer_or_standard_form(f33):
    with pytest.raises(ValueError, match="stabilizer of the zero polynomial"):
        stabilizer(LinPoly.zero(f33))
    with pytest.raises(ValueError, match="standard form of the zero polynomial"):
        standard_form(LinPoly.zero(f33))


def test_graph_maps_refuse_f_without_a_term_beyond_x(f33):
    """delta is read off the first slot k >= 1 of f, so f = a*X is refused,
    as RankCode refuses it."""
    f = LinPoly.from_terms(f33, 1, {0: 5})
    g = condition_member(f33)
    for solve in (lambda: _graph_maps(f, g), lambda: gl_search(f, g), lambda: stabilizer(f)):
        with pytest.raises(ValueError, match="independent of X"):
            solve()


def test_mrd_iff_scattered_on_random_quadrinomials(f33):
    rng = np.random.default_rng(0)
    mids = f33.subfield(3)
    for _ in range(60):
        m = int(mids[rng.integers(0, 27)])
        h = int(rng.integers(1, 729))
        f = build_quadrinomial(QuadParams(f33, 1, m, h))
        code = RankCode(f)
        assert code.is_mrd() == is_scattered_fiber(f)
        assert (code.min_distance() == 5) == code.is_mrd()
        # the ranks come from the fiber counts, so elimination is the independent opinion
        assert code.min_distance() == int(codeword_ranks_elimination(code).min())


def test_codeword_ranks_match_elimination_at_larger_towers(f33, f34, f53):
    """Seeded members at (3,4) and (5,3), X^(q^t) (f o f = X) and
    polynomials with a nontrivial kernel: X^(q^t) - X and X^q - X."""
    rng = np.random.default_rng(9)
    for ctx in (f33, f34, f53):
        fs = [LinPoly.monomial(ctx, 1, ctx.t)]
        fs += [LinPoly.from_terms(ctx, 1, {k: 1, 0: ctx.neg_one}) for k in (1, ctx.t)]
        if ctx is not f33:
            mids = ctx.subfield(ctx.t)
            fs += [build_quadrinomial(QuadParams(ctx, s, int(mids[rng.integers(0, mids.size)]),
                                                 int(rng.integers(1, ctx.size))))
                   for s in (1, ctx.n - 1) for _ in range(2)]
            fs += [condition_member(ctx, k=k) for k in (0, 1)]
        for f in fs:
            code = RankCode(f)
            assert np.array_equal(code.codeword_ranks(), codeword_ranks_elimination(code))


# -- idealizers -----------------------------------------------------------------


def test_right_idealizer_pseudoregulus(f33):
    code = RankCode(LinPoly.monomial(f33, 1, 1))
    pairs = right_idealizer(code)
    assert len(pairs) == 729
    assert all(b == 0 for _, b in pairs)


def test_right_idealizer_lp(f33):
    pairs = right_idealizer(RankCode(lp_binomial(f33)))
    assert len(pairs) == 9
    assert all(b == 0 and f33.in_subfield(a, 2) for a, b in pairs)


def test_right_idealizer_family_member(f33):
    pairs = right_idealizer(RankCode(condition_member(f33)))
    assert len(pairs) == 9


def test_left_idealizer_is_full_scalar_line(f33):
    for f in (LinPoly.monomial(f33, 1, 1), condition_member(f33)):
        pairs = left_idealizer(RankCode(f))
        assert len(pairs) == 729
        assert all(b == 0 for _, b in pairs)


def test_grid_enumeration_matches_residual(f33):
    for f in (LinPoly.monomial(f33, 1, 1), lp_binomial(f33), condition_member(f33)):
        code = RankCode(f)
        grid = sorted({m[:2] for m in graph_maps_grid(f, f)})
        assert right_idealizer(code) == grid


def test_right_idealizer_of_34_member_has_order_q_squared(f34):
    code = RankCode(condition_member(f34))
    assert len(right_idealizer(code)) == 9


# -- stabilizers ------------------------------------------------------------------


def test_stabilizer_contains_identity(f33):
    st = stabilizer(condition_member(f33))
    assert (1, 0, 0, 1) in st.elements


def test_stabilizer_pseudoregulus_diagonal(f33):
    st = stabilizer(LinPoly.monomial(f33, 1, 1))
    assert st.order_with_zero == 729
    assert st.is_diagonal_only()
    assert all(d == f33.frob(a, 1) for a, _, _, d in st.elements)


def test_stabilizer_matches_naive_on_scattered_examples(f33):
    rng = np.random.default_rng(1)
    fs = [LinPoly.monomial(f33, 1, 1), lp_binomial(f33)]
    fs += random_scattered(f33, rng, 20)
    for f in fs:
        assert stabilizer(f).elements == invertible(f33, graph_maps_grid(f, f))


def test_stabilizer_order_equals_right_idealizer_order(f33):
    for f in (LinPoly.monomial(f33, 1, 1), lp_binomial(f33), condition_member(f33)):
        st = stabilizer(f)
        ri = right_idealizer(RankCode(f))
        assert st.order_with_zero == len(ri)


def test_stabilizer_field_closure(f33):
    for f in (lp_binomial(f33), condition_member(f33)):
        flags = stabilizer(f).closure_flags()
        assert flags["additive"] and flags["multiplicative"]


def test_closure_flags_match_all_pairs(f33):
    """The rank and basis-product test against every pair, on stabilizers
    and on hand-made sets that fail each closure."""
    c = 5  # c != 0, 1: (1, 0; 0, c) squared is (1, 0; 0, c^2), outside the set
    neg = f33.neg_one
    sets = [stabilizer(f) for f in (
        LinPoly.monomial(f33, 1, 1), lp_binomial(f33), condition_member(f33),
        LinPoly.from_terms(f33, 1, {1: 1, 4: 7}),
    )]
    f = sets[0].f
    sets += [
        StabilizerSet(f, [(1, 0, 0, c), (neg, 0, 0, f33.neg(c))]),
        StabilizerSet(f, [(1, 0, 0, 1), (neg, 0, 0, neg)]),
        StabilizerSet(f, [(1, 0, 0, 1)]),                    # 2 elements with zero
        StabilizerSet(f, [(1, 0, 0, 1), (neg, 0, 0, c)]),    # 3, not a subspace
    ]
    seen = set()
    for st in sets:
        flags = st.closure_flags()
        additive, multiplicative = closure_all_pairs(f33, st.elements)
        assert flags["additive"] == additive
        assert flags["multiplicative"] == (multiplicative if additive else None)
        seen.add((additive, multiplicative))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_closure_flags_compare_whole_rows_at_73():
    """At (7,3) four indices no longer fit one int64 key: B @ B =
    (45312, 21627, 6813, 102712) packs to the key of the zero matrix, so
    the multiples k*B, k = 1..6, passed for closed under products when
    membership was tested on packed keys."""
    ctx = make_field(7, 1, 3)
    b = (20018, 32569, 40921, 16133)
    elements = [tuple(ctx.mul(k, x) for x in b) for k in range(1, 7)]
    assert mat_mul(ctx, b, b).tolist() == [45312, 21627, 6813, 102712]
    st = StabilizerSet(LinPoly.monomial(ctx, 1, 1), elements)
    assert closure_all_pairs(ctx, st.elements) == (True, False)
    assert st.closure_flags() == {"additive": True, "multiplicative": False}

    member = stabilizer(build_quadrinomial(QuadParams(ctx, 1, 55, 871)))
    assert member.order_with_zero == 49
    assert closure_all_pairs(ctx, member.elements) == (True, True)
    assert member.closure_flags() == {"additive": True, "multiplicative": True}


_towers = st.sampled_from([(3, 1, 3), (3, 1, 4)])


@settings(max_examples=60, deadline=None)
@given(_towers, st.data())
def test_matrix_algebra_matches_scalar_formulas(tower, data):
    ctx = make_field(*tower)
    mats = st.tuples(*[st.integers(0, ctx.size - 1)] * 4)
    a, b = data.draw(mats), data.draw(mats)
    assert tuple(mat_mul(ctx, a, b).tolist()) == mat_mul_scalar(ctx, a, b)
    assert int(mat_det(ctx, a)) == mat_det_scalar(ctx, a)
    # the leading axes broadcast: a stack against one matrix, row by row
    stack = data.draw(st.lists(mats, min_size=1, max_size=5))
    assert [tuple(r) for r in mat_mul(ctx, stack, b).tolist()] == [
        mat_mul_scalar(ctx, w, b) for w in stack]
    assert mat_det(ctx, stack).tolist() == [mat_det_scalar(ctx, w) for w in stack]


def test_pseudoregulus_stabilizer_at_34_is_a_field(f34):
    """X^q at (3,4): 6,561 matrices with zero, decided without sampling."""
    st = stabilizer(LinPoly.monomial(f34, 1, 1))
    assert st.order_with_zero == 3 ** 8
    assert st.closure_flags() == {"additive": True, "multiplicative": True}
    assert st.to_report()["is_field"]


def test_middle_frobenius_stabilizer_is_no_field(f33):
    """X^(q^3) at (3,3) has 511,057 invertible graph maps with zero, not a
    power of 3, so the set is no subspace."""
    st = stabilizer(LinPoly.monomial(f33, 1, 3))
    assert st.order_with_zero == 511057
    assert st.closure_flags() == {"additive": False, "multiplicative": None}
    assert not st.to_report()["is_field"]


def test_even_tower_stabilizer_is_scalar_frobenius_diagonal(f34):
    for k in (0, 1):
        st = stabilizer(condition_member(f34, k=k))
        assert st.order_with_zero == 9
        assert st.is_diagonal_only()
        assert all(
            d == f34.frob(a, 1) and f34.in_subfield(a, 2) for a, _, _, d in st.elements
        )


def test_odd_tower_stabilizer_closed_form(f35):
    """t odd: the stabilizer consists of the q^2 matrices with base-field
    diagonal and the explicit off-diagonal entries built from m and h."""
    ctx = f35
    t, s, q = ctx.t, 1, ctx.q
    m, h = condition_pairs(ctx, s)[0]
    member = build_quadrinomial(QuadParams(ctx, s, m, h))
    exp_r = -((q ** (s * (t + 1)) - 1) // (q ** (2 * s) - 1))
    z = ctx.inv(ctx.add(ctx.frob(h, s), ctx.frob(h, s * (t - 1))))
    norm_h = ctx.norm_rel(h, t)
    xis = [int(x) for x in ctx.subfield(2) if ctx.frob(int(x), s) == ctx.neg(int(x))]
    assert len(xis) == q
    closed = set()
    for alpha in ctx.subfield(1):
        for xi in xis:
            alpha = int(alpha)
            beta = ctx.mul(xi, ctx.mul(z, ctx.pow(m, exp_r)))
            g1 = ctx.mul(ctx.pow(m, exp_r * q ** s + 1), ctx.frob(h, s))
            g2 = ctx.mul(
                ctx.pow(m, (q ** ((s * (t - 1)) % ctx.n)) * (exp_r + 1)),
                ctx.frob(h, s * (t - 1)),
            )
            gamma = ctx.neg(ctx.mul(xi, ctx.mul(norm_h, ctx.add(g1, g2))))
            if (alpha, xi) != (0, 0):
                closed.add((alpha, beta, gamma, alpha))
    # every closed-form matrix satisfies the graph identity
    for a, b, g, d in sorted(closed):
        inner = LinPoly.from_terms(ctx, s, {0: a}).add(member.scale(b))
        lhs = member.compose(inner)
        rhs = LinPoly.from_terms(ctx, s, {0: g}).add(member.scale(d))
        assert lhs == rhs
    assert len(closed) == q ** 2 - 1


def test_odd_tower_stabilizer_full_solver(f35):
    ctx = f35
    m, h = condition_pairs(ctx, 1)[0]
    member = build_quadrinomial(QuadParams(ctx, 1, m, h))
    st = stabilizer(member)
    assert st.order_with_zero == 9
    assert not st.is_diagonal_only()
    assert all(a == d for a, _, _, d in st.elements)


def test_stabilizers_pinned_at_larger_towers(f34, f35):
    """Element lists recorded from the earlier beta-sweep solver."""
    assert stabilizer(condition_member(f34)).elements == [
        (1, 0, 0, 1), (2, 0, 0, 2), (3057, 0, 0, 6026), (3058, 0, 0, 6024),
        (3059, 0, 0, 6025), (6024, 0, 0, 3058), (6025, 0, 0, 3059), (6026, 0, 0, 3057),
    ]
    assert stabilizer(condition_member(f35)).elements == [
        (0, 4055, 3604, 0), (0, 5677, 6236, 0), (1, 0, 0, 1), (1, 4055, 3604, 1),
        (1, 5677, 6236, 1), (2, 0, 0, 2), (2, 4055, 3604, 2), (2, 5677, 6236, 2),
    ]


def test_graph_maps_reduce_80_by_20_at_35(f35, monkeypatch):
    """With delta read off slot k0, a (3,5) member's system has (n-2)*deg = 80
    rows in 2*deg = 20 unknowns (alpha, beta), of rank 18: q^2 solutions."""
    seen = []
    nullspace = gflinalg.nullspace

    def spy(mat, p):
        seen.append((mat.shape, gflinalg.rank(mat, p)))
        return nullspace(mat, p)

    monkeypatch.setattr(gflinalg, "nullspace", spy)
    assert stabilizer(condition_member(f35)).order_with_zero == 9
    assert seen == [((80, 20), 18)]


def test_solution_space_above_bound_is_refused(f35):
    # X^(q^t) o (alpha*X + beta*X^(q^t)) lies in <X, X^(q^t)> for every
    # (alpha, beta), and so does (a*X + b*X^(q^t)) o X^(q^t): q^(2n) pairs
    code = RankCode(LinPoly.monomial(f35, 1, f35.t))
    for solve in (lambda: stabilizer(code.f), lambda: right_idealizer(code),
                  lambda: left_idealizer(code)):
        with pytest.raises(BudgetExceededError, match="solutions"):
            solve()


F33 = make_field(3, 1, 3)
_terms = st.dictionaries(st.integers(0, F33.n - 1), st.integers(1, F33.size - 1),
                         min_size=1, max_size=4)
_polys = st.builds(lambda s, terms: LinPoly.from_terms(F33, s, terms),
                   st.sampled_from([1, 5]), _terms).filter(lambda f: f.coeffs[1:].any())
_members = st.sampled_from(condition_pairs(F33, 1)).map(
    lambda mh: build_quadrinomial(QuadParams(F33, 1, *mh)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_polys, _members))
def test_codeword_ranks_match_elimination(f):
    code = RankCode(f)
    ranks = code.codeword_ranks()
    assert np.array_equal(ranks, codeword_ranks_elimination(code))
    assert code.min_distance() == ranks.min()


@st.composite
def _graph_pairs(draw):
    """(f, g): f random or a family member; g = f, random, or a GL image of f."""
    f = draw(st.one_of(_polys, _members))
    kind = draw(st.sampled_from(["self", "random", "image"]))
    if kind == "self":
        return f, f
    if kind == "random":
        return f, draw(_polys)
    # g o (a*X) = c*X + d*f, i.e. g = (c*X + d*f) o (X / a)
    a, d = (draw(st.integers(1, F33.size - 1)) for _ in range(2))
    c = draw(st.integers(0, F33.size - 1))
    g = LinPoly.from_terms(F33, 1, {0: c}).add(f.scale(d))
    return f, g.compose(LinPoly.from_terms(F33, 1, {0: F33.inv(a)}))


@settings(max_examples=30, deadline=None)
@given(_graph_pairs())
def test_graph_maps_match_grid_reference(pair):
    f, g = pair
    own = graph_maps_grid(f, f)
    assert stabilizer(f).elements == invertible(F33, own)
    assert right_idealizer(RankCode(f)) == sorted({m[:2] for m in own})
    maps = graph_maps_grid(f, g)
    res = gl_search(f, g)
    assert res.witness == canonical_witness(F33, maps)
    assert res.beta_candidates == len({m[1] for m in maps})


def _outcome(solve, f, g):
    """The sorted solution tuples, or the exception class a solve raised."""
    try:
        return sorted(map(tuple, solve(f, g).tolist()))
    except BudgetExceededError:
        return BudgetExceededError


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.data())
def test_graph_maps_match_three_block_reference(tower, data):
    """The closed-form delta solve against the three-block (alpha, beta,
    delta) solve, over every coprime step and the self, random and image
    pair kinds."""
    ctx = make_field(*tower)
    s = data.draw(st.sampled_from([s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1]))
    terms = st.dictionaries(st.integers(0, ctx.n - 1), st.integers(1, ctx.size - 1),
                            min_size=1, max_size=4)
    polys = st.builds(lambda t: LinPoly.from_terms(ctx, s, t), terms)
    f = data.draw(polys.filter(lambda f: f.coeffs[1:].any()))
    kind = data.draw(st.sampled_from(["self", "random", "image"]))
    if kind == "self":
        g = f
    elif kind == "random":
        g = data.draw(polys)
    else:
        # g o (a*X) = c*X + d*f, i.e. g = (c*X + d*f) o (X / a)
        a, d = (data.draw(st.integers(1, ctx.size - 1)) for _ in range(2))
        c = data.draw(st.integers(0, ctx.size - 1))
        g = LinPoly.from_terms(ctx, 1, {0: c}).add(f.scale(d))
        g = g.compose(LinPoly.from_terms(ctx, 1, {0: ctx.inv(a)}))
    want = _outcome(graph_maps_three_blocks, f, g)
    assert _outcome(_graph_maps, f, g) == want
    if kind == "image" and want is not BudgetExceededError:
        assert len(want) > 1  # the zero map and (a, 0, c, d)


# -- standard form ------------------------------------------------------------------


def test_standard_form_monomial(f33):
    rep = standard_form(LinPoly.monomial(f33, 1, 1))
    assert rep["delta_set"] == [6]
    assert rep["r"] == 6 and rep["is_standard"] and rep["shape_ok"]


def test_standard_form_lp(f33):
    rep = standard_form(lp_binomial(f33))
    assert rep["r"] == 2 and rep["is_standard"]


def test_standard_form_even_tower(f34):
    t = f34.t
    rep = standard_form(condition_member(f34))
    assert set(rep["delta_set"]) == {2, t - 2, t, t + 2, 2 * t - 2, 2 * t}
    assert rep["r"] == 2 and rep["is_standard"] and rep["shape_ok"]


def test_standard_form_odd_tower(f33, f35):
    for ctx in (f33, f35):
        rep = standard_form(condition_member(ctx))
        assert rep["r"] == 1 and not rep["is_standard"]


def test_standard_form_triangle(f33, f34):
    """For a scattered polynomial: all-diagonal stabilizer of order q^r with
    r > 1, standard form, and scalar right idealizer over F_{q^r} come
    together, with matching r."""
    cases = [
        (f33, LinPoly.monomial(f33, 1, 1), 6),
        (f33, lp_binomial(f33), 2),
        (f34, condition_member(f34), 2),
    ]
    for ctx, f, r in cases:
        rep = standard_form(f)
        assert rep["is_standard"] and rep["r"] == r
        st = stabilizer(f)
        assert st.is_diagonal_only()
        assert st.order_with_zero == ctx.q ** r
        ri = right_idealizer(RankCode(f))
        assert len(ri) == ctx.q ** r
        assert all(b == 0 and ctx.in_subfield(a, r) for a, b in ri)


def test_left_idealizer_grid_matches_linear(f33):
    # X^(q^t) o X^(q^t) = X, so its left idealizer is all of F x F
    fs = (LinPoly.monomial(f33, 1, 1), condition_member(f33), LinPoly.monomial(f33, 1, f33.t),
          lp_binomial(f33))
    sizes = []
    for f in fs:
        code = RankCode(f)
        pairs = left_idealizer(code)
        assert left_idealizer_grid(code) == pairs
        sizes.append(len(pairs))
    assert sizes == [729, 729, 729 ** 2, 729]


_closed_or_line = st.one_of(_polys, st.just(condition_member(F33)),
                            st.just(LinPoly.monomial(F33, 1, F33.t)))


@settings(max_examples=25, deadline=None)
@given(_closed_or_line, st.data())
def test_left_idealizer_sequence_matches_list(f, data):
    code = RankCode(f)
    pairs, ref = left_idealizer(code), left_idealizer_list(code)
    n, size = len(ref), F33.size
    assert isinstance(pairs, PairRange) and len(pairs) == n
    assert list(pairs) == ref
    assert pairs == ref and ref == pairs and pairs == tuple(ref) and not pairs != ref
    assert pairs != ref[:-1] and pairs != ref[:-1] + [(size, 0)] and pairs != 5
    assert pairs == PairRange(size, n // size)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)):
        assert pairs[i] == ref[i] and pairs[-i] == ref[-i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            pairs[i]
    bound = st.none() | st.integers(-n - 2, n + 2)
    step = st.none() | st.integers(1, n + 1) | st.integers(-n - 1, -1)
    for _ in range(4):
        sl = slice(data.draw(bound), data.draw(bound), data.draw(step))
        assert pairs[sl] == ref[sl]
    elem = st.integers(0, size - 1)
    probes = [
        ref[data.draw(st.integers(0, n - 1))],
        (data.draw(elem), data.draw(st.integers(1, size - 1))),  # outside F x {0}
        (data.draw(st.sampled_from([-1, size, size + 7])), data.draw(elem)),
        (data.draw(elem), data.draw(st.sampled_from([-1, size]))),
    ]
    for pair in probes:
        assert (pair in pairs) == (pair in ref)
    a, b = ref[-1]
    for other in ([a, b], (a,), (a, b, 0), ("a", b), None, a, "ab"):
        assert other not in pairs


def test_left_idealizer_sequence_at_34(f34):
    pairs = left_idealizer(RankCode(condition_member(f34)))
    size = f34.size
    assert len(pairs) == size and pairs == PairRange(size, 1)
    assert pairs[0] == (0, 0) and pairs[1234] == (1234, 0) and pairs[-1] == (size - 1, 0)
    assert pairs[5:25:7] == [(5, 0), (12, 0), (19, 0)]
    assert (1, 0) in pairs and (size - 1, 0) in pairs
    assert (1, 1) not in pairs and (size, 0) not in pairs and (-1, 0) not in pairs
