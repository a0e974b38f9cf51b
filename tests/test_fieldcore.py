import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scatlin import fieldcore
from scatlin.fieldcore import (
    FieldCtx,
    FieldConstructionError,
    make_field,
    smallest_generator,
    smallest_irreducible,
    _companion,
    _fill_powers,
    _has_root,
    _is_irreducible,
)
from reference import (
    add_vec_digits, fill_powers_int64, is_irreducible_trial, scale_vec_where,
    smallest_generator_loop, trace_rel_loop,
)

# (modulus, generator) of every admitted tower (p, e, t), field size <= 2^24
ADMITTED_TOWERS = {
    (3, 1, 3): ([1, 0, 0, 0, 1, 1, 1], 4),
    (3, 1, 4): ([1, 0, 0, 0, 0, 1, 1, 0, 1], 4),
    (3, 1, 5): ([1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1], 34),
    (3, 1, 6): ([1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1], 4),
    (3, 1, 7): ([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1], 4),
    (3, 2, 3): ([1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1], 4),
    (5, 1, 3): ([1, 0, 0, 0, 1, 1, 1], 6),
    (5, 1, 4): ([1, 0, 0, 0, 0, 1, 1, 0, 1], 6),
    (5, 1, 5): ([1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1], 6),
    (7, 1, 3): ([1, 0, 0, 0, 1, 0, 1], 8),
    (7, 1, 4): ([1, 0, 0, 0, 0, 0, 1, 2, 1], 10),
    (11, 1, 3): ([1, 0, 0, 0, 1, 1, 1], 15),
    (13, 1, 3): ([1, 0, 0, 0, 0, 1, 1], 15),
}

# SHA-256 of EXP, LOG, NEG and FROB (in that order); every report rests on
# these tables, so any construction must reproduce them byte for byte
TABLE_DIGESTS = {
    (3, 1, 3): "999f09f30a55b3f7a810bda455cf98a58213cbcb80233dcdc3496113957333d3",
    (3, 1, 4): "bd7225c68cd6483e235ef55cf5e678c36377b23b815cd9ed2bb0447c612055c4",
    (5, 1, 3): "8039ad762718b41ba653ad4a9d0a2e29691ff87815d91faffba15957d685f56f",
    (3, 1, 5): "897355acbbc3573d73a32ac1ebe2f9c30d2580804247a9f63abe77f27b2f6b9e",
}

# SHA-256 of EXP, LOG, NEG, ZECH, FROB and DIGITS (in that order), recorded
# with the int64 construction before the float64 one replaced it
BUILD_DIGESTS = {
    (3, 1, 3): "3208b3c415e69306c7996cd93e147eb1470b440b77e19581b00eda49ab39ca89",
    (3, 1, 4): "b45d89fe505af44ec42d9a76d4654a4bac5e3ae514bc39c3d276a3683cd2077b",
    (5, 1, 3): "072f4414d316cac987ab04963391037eed3867f2b69ed6c9ebf6340e36f38cb2",
    (3, 1, 5): "01189e5780b57dda3ce09a1ec42bc9380e53f2fd04ff05d3cbdbabbd1489d4f6",
    (7, 1, 3): "f5adf4637ad653f108e122248615d0d918687d00fcf4c5414565b03aca2e9bfc",
    (5, 1, 4): "8f6bb4e951245171de2e3d007a08e708d5b1bb50436da945e5c0e99c2890a801",
}

_polys = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
)


def test_construction_examples(f33, f53):
    assert f33.size == 3 ** 6 and f33.order == 728
    assert f53.size == 5 ** 6 and f53.order == 15624


@pytest.mark.parametrize(
    "p,e,t,msg",
    [
        (2, 1, 3, "odd"),
        (9, 1, 3, "prime"),
        (3, 1, 2, ">= 3"),
        (3, 0, 3, ">= 1"),
    ],
)
def test_construction_errors(p, e, t, msg):
    with pytest.raises(FieldConstructionError, match=msg):
        FieldCtx(p, e, t)


def test_modulus_is_lexicographically_smallest(f33):
    d = 6
    found = f33.modulus
    # every lexicographically earlier candidate must be reducible
    def tuple_key(m):
        return tuple(m[:d])

    for k in range(3 ** d):
        coeffs = [(k // 3 ** (d - 1 - i)) % 3 for i in range(d)]
        cand = coeffs + [1]
        if tuple_key(cand) == tuple_key(found):
            assert is_irreducible_trial(cand, 3)
            break
        assert not is_irreducible_trial(cand, 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=2, max_size=8))
))
def test_irreducibility_matches_trial_division(case):
    p, low = case
    m = low + [1]
    assert _is_irreducible(m, p) == is_irreducible_trial(m, p)


@pytest.mark.parametrize("p,d,count", [(3, 6, 116), (5, 4, 150), (7, 3, 112)])
def test_irreducible_counts_match_gauss(p, d, count):
    # Gauss: (1/d) * sum over k | d of mobius(k) * p^(d/k) monic irreducibles
    cands = [[(k // p ** i) % p for i in range(d)] + [1] for k in range(p ** d)]
    found = [m for m in cands if _is_irreducible(m, p)]
    assert len(found) == count
    assert found == [m for m in cands if is_irreducible_trial(m, p)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_linear_polynomials_are_irreducible(p):
    assert all(_is_irreducible([c, 1], p) for c in range(p))


@settings(max_examples=200, deadline=None)
@given(_polys)
def test_root_filter_keeps_every_irreducible(case):
    p, low = case
    m = low + [1]
    assume(len(m) >= 3)  # every linear polynomial is irreducible and has a root
    roots = [r for r in range(p) if sum(c * r ** i for i, c in enumerate(m)) % p == 0]
    assert _has_root(m, p) == bool(roots)
    if is_irreducible_trial(m, p):
        assert not _has_root(m, p)


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_generator_search_matches_one_at_a_time_loop(case):
    p, low = case
    m = low + [1]
    assume(len(m) <= 7 and is_irreducible_trial(m, p))
    assert smallest_generator(m, p) == smallest_generator_loop(m, p)


_FILL_TOWERS = [tw for tw in sorted(ADMITTED_TOWERS) if tw[0] ** (2 * tw[1] * tw[2]) <= 3 ** 10]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FILL_TOWERS), st.data())
def test_power_fill_matches_int64_reference(tower, data):
    p, e, t = tower
    modulus = ADMITTED_TOWERS[tower][0]
    order = p ** (2 * e * t) - 1
    a = data.draw(st.integers(1, order), label="a")
    count = data.draw(st.just(order) | st.integers(1, order), label="count")
    out = np.empty(count, dtype=np.int64)
    _fill_powers(_companion(modulus, p), a, p, out)
    assert np.array_equal(out, fill_powers_int64(modulus, p, a, count))


def test_searches_refuse_inexact_float_range():
    big = 2 ** 25 + 1  # (big - 1)^2 = 2^50
    with pytest.raises(FieldConstructionError, match="exact"):
        smallest_irreducible(big, 2)
    with pytest.raises(FieldConstructionError, match="exact"):
        smallest_generator([1, 1], big)


@pytest.mark.parametrize("p,e,t", sorted(ADMITTED_TOWERS))
def test_admitted_tower_is_pinned(p, e, t):
    modulus, generator = ADMITTED_TOWERS[p, e, t]
    assert smallest_irreducible(p, e * 2 * t) == modulus
    assert smallest_generator(modulus, p) == generator


def test_exp_table_fault_check(monkeypatch):
    # 2 lies in F_3, so its powers cover two elements instead of 728
    monkeypatch.setattr(fieldcore, "smallest_generator", lambda modulus, p: 2)
    with pytest.raises(FieldConstructionError, match="generator powers"):
        FieldCtx(3, 1, 3)


@pytest.mark.parametrize("p,e,t", sorted(TABLE_DIGESTS))
def test_tables_are_pinned(p, e, t):
    ctx = make_field(p, e, t)
    assert ctx.DIGITS.dtype == np.int8
    assert ((ctx.DIGITS >= 0) & (ctx.DIGITS < p)).all()
    assert np.array_equal(ctx.DIGITS @ ctx.PP, ctx.elements())
    digest = hashlib.sha256()
    for name in ("EXP", "LOG", "NEG", "FROB"):
        table = getattr(ctx, name)
        assert table.dtype == np.int64
        digest.update(table.tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[p, e, t]


@pytest.mark.parametrize("p,e,t", sorted(BUILD_DIGESTS))
def test_every_table_is_pinned(p, e, t):
    ctx = FieldCtx(p, e, t)  # uncached: the (5,4) tables hold 44 MB
    digest = hashlib.sha256()
    for name in ("EXP", "LOG", "NEG", "ZECH", "FROB", "DIGITS"):
        digest.update(getattr(ctx, name).tobytes())
    assert digest.hexdigest() == BUILD_DIGESTS[p, e, t]


def test_construction_is_deterministic():
    a = FieldCtx(3, 1, 3)
    b = FieldCtx(3, 1, 3)
    assert a.modulus == b.modulus and a.generator == b.generator
    assert smallest_irreducible(3, 6) == a.modulus


def test_identities(f33):
    assert f33.add(0, 7) == 7
    assert f33.mul(1, 7) == 7
    assert f33.mul(0, 7) == 0
    assert f33.add(7, f33.neg(7)) == 0
    assert f33.mul(7, f33.inv(7)) == 1


def test_generator_has_full_order(f33):
    g = f33.generator
    assert f33.pow(g, f33.order) == 1
    for r in (2, 7, 13):  # prime factors of 728
        assert f33.pow(g, f33.order // r) != 1


def test_frobenius_basics(f33):
    rng = np.random.default_rng(0)
    for x in rng.integers(0, f33.size, 20):
        x = int(x)
        assert f33.frob(x, 0) == x
        assert f33.frob(x, f33.n) == x
        assert f33.frob(x, 1) == f33.pow(x, 3)


def test_frobenius_composition_random_triples(f33):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = int(rng.integers(0, f33.size))
        i, j = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        assert f33.frob(f33.frob(x, i), j) == f33.frob(x, i + j)


def test_frobenius_linear_and_multiplicative(f33):
    rng = np.random.default_rng(2)
    base = f33.subfield(1)
    for _ in range(100):
        x, y = int(rng.integers(0, f33.size)), int(rng.integers(0, f33.size))
        i = int(rng.integers(0, f33.n))
        lam = int(base[rng.integers(0, 3)])
        assert f33.frob(f33.mul(x, y), i) == f33.mul(f33.frob(x, i), f33.frob(y, i))
        lhs = f33.frob(f33.add(x, f33.mul(lam, y)), i)
        assert lhs == f33.add(f33.frob(x, i), f33.mul(lam, f33.frob(y, i)))


def test_trace_examples(f33):
    two = f33.add(1, 1)
    for x0 in f33.subfield(3)[:10]:
        assert f33.trace_rel(int(x0), 3) == f33.mul(two, int(x0))
    assert f33.trace_rel(0, 2) == 0
    # kernel of the trace onto the middle field has q^t elements
    kernel = [x for x in range(f33.size) if f33.trace_rel(x, 3) == 0]
    assert len(kernel) == 27
    assert np.array_equal(np.array(kernel), f33.ker_trace())
    # surjective onto the middle field
    images = {f33.trace_rel(x, 3) for x in range(f33.size)}
    assert images == set(f33.subfield(3).tolist())


def test_trace_lands_in_subfield(f33):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 6):
        for x in rng.integers(0, f33.size, 10):
            assert f33.in_subfield(f33.trace_rel(int(x), d), d)


def test_trace_requires_divisor(f33):
    """Every subfield degree must divide 2t; subfield(4) at (3,3) used to
    return the 9 elements of F_{q^2} silently."""
    for d in (0, -3, 4, 5, 7):
        for call in (f33.trace_rel, f33.norm_rel, f33.in_subfield):
            with pytest.raises(ValueError, match="d must divide 2t = 6"):
                call(5, d)
        with pytest.raises(ValueError, match="d must divide 2t = 6"):
            f33.in_subfield(f33.elements(), d)
        with pytest.raises(ValueError, match="d must divide 2t = 6"):
            f33.subfield(d)


def test_norm_examples(f33):
    assert f33.norm_rel(1, 3) == 1
    assert f33.norm_rel(0, 3) == 0
    for h0 in f33.subfield(3)[1:8]:
        assert f33.norm_rel(int(h0), 3) == f33.mul(int(h0), int(h0))
    rng = np.random.default_rng(4)
    for _ in range(60):
        x, y = int(rng.integers(1, f33.size)), int(rng.integers(1, f33.size))
        assert f33.norm_rel(f33.mul(x, y), 3) == f33.mul(
            f33.norm_rel(x, 3), f33.norm_rel(y, 3)
        )
    norms = f33.pow_vec(f33.nonzero_elements(), f33.order // 26)
    assert int((norms == f33.neg_one).sum()) == 27 + 1
    assert f33.in_subfield(f33.norm_rel(123, 3), 3)


def test_ker_trace_structure(f33):
    ker = f33.ker_trace()
    assert 0 in ker and ker.size == 27
    w = ker[ker != 0]
    prods = f33.mul_vec(w[:, None], w[None, :]).ravel()
    assert (f33.frob_vec(prods, 3) == prods).all()
    cubes = f33.pow_vec(w, 3)
    assert (f33.frob_vec(cubes, 3) == f33.NEG[cubes]).all()
    # middle field meets the kernel only in 0
    assert np.intersect1d(ker, f33.subfield(3)).tolist() == [0]


def test_tower_split(f33):
    rng = np.random.default_rng(5)
    for x in rng.integers(0, f33.size, 40):
        x0, x1 = f33.tower_split(int(x))
        assert f33.add(x0, x1) == int(x)
        assert f33.in_subfield(x0, 3)
        assert f33.frob(x1, 3) == f33.neg(x1)


def test_subfield_cardinalities(f33):
    for d in (1, 2, 3, 6):
        assert f33.subfield(d).size == 3 ** d


def test_solve_semilinear(f33):
    assert f33.solve_semilinear(1, 3) == 1
    c = f33.pow(f33.generator, 3 ** 2 - 1)
    z = f33.solve_semilinear(c, 2)
    assert z == f33.generator
    with pytest.raises(ValueError):
        f33.solve_semilinear(0, 1)
    # returned witnesses always satisfy the defining relation
    rng = np.random.default_rng(6)
    for _ in range(40):
        c = int(rng.integers(1, f33.size))
        k = int(rng.integers(0, f33.n))
        z = f33.solve_semilinear(c, k)
        if z is not None:
            assert z != 0 and f33.frob(z, k) == f33.mul(c, z)


def test_solve_semilinear_norm_obstruction(f33):
    # at k = s*t the equation z^(q^(st)) = c*z is solvable exactly when the
    # norm of c onto the middle field is 1; confirmed exhaustively
    for c in range(1, f33.size):
        ok = f33.solve_semilinear(c, 3) is not None
        assert ok == (f33.norm_rel(c, 3) == 1)


def test_serialization_roundtrip(f33):
    blob = json.loads(f33.to_json())
    assert blob == {"p": 3, "e": 1, "t": 3, "modulus": list(f33.modulus)}
    again = FieldCtx.from_dict(blob)
    assert again is f33  # cached
    bad = dict(blob)
    bad["modulus"] = list(blob["modulus"])
    bad["modulus"][0] = (bad["modulus"][0] + 1) % 3
    with pytest.raises(FieldConstructionError):
        FieldCtx.from_dict(bad)


def test_vector_ops_match_scalar(f33):
    rng = np.random.default_rng(7)
    a = rng.integers(0, f33.size, 50)
    b = rng.integers(0, f33.size, 50)
    add = f33.add_vec(a, b)
    mul = f33.mul_vec(a, b)
    for i in range(50):
        assert add[i] == f33.add(int(a[i]), int(b[i]))
        assert mul[i] == f33.mul(int(a[i]), int(b[i]))
    assert (f33.pow_vec(a, 5) == [f33.pow(int(x), 5) for x in a]).all()


def test_reduce_logs_is_mod_order_below_twice_the_order(f33):
    x = np.arange(2 * f33.order, dtype=np.int64)
    f33.reduce_logs(x)
    assert np.array_equal(x, np.arange(2 * f33.order) % f33.order)
    marks = np.array([-1], dtype=np.int64)
    f33.reduce_logs(marks)
    assert marks[0] < 0


@pytest.mark.parametrize("p,e,t", [(3, 1, 3), (3, 1, 4), (5, 1, 3), (3, 1, 5)])
def test_zech_table_is_a_bijection_onto_nonzero_logs(p, e, t):
    ctx = make_field(p, e, t)
    zech, half = ctx.ZECH, ctx.order // 2
    assert zech.dtype == np.int64 and zech.shape == (ctx.order,)
    assert zech[half] == -1
    rest = np.delete(zech, half)
    assert np.array_equal(np.sort(rest), np.arange(1, ctx.order))
    ones = add_vec_digits(ctx, 1, ctx.EXP[: ctx.order])
    assert ones[half] == 0
    assert np.array_equal(rest, np.delete(ctx.LOG[ones], half))


_elements = st.integers(0, 3 ** 8 - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.lists(st.tuples(_elements, _elements),
       max_size=40), st.integers(0, 3))
def test_add_matches_digit_reference(tower, pairs, how):
    ctx = make_field(*tower)
    a = np.array([x % ctx.size for x, _ in pairs], dtype=np.int64)
    b = np.array([y % ctx.size for _, y in pairs], dtype=np.int64)
    # cancelling pairs, zero operands, and operands in F_p
    b = (b, ctx.NEG[a], np.zeros_like(a), b % ctx.p)[how]
    want = add_vec_digits(ctx, a, b)
    got = ctx.add_vec(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert [ctx.add(int(x), int(y)) for x, y in zip(a, b)] == want.tolist()
    if a.size:
        assert ctx.add_vec(a[0], b).tolist() == add_vec_digits(ctx, a[0], b).tolist()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4)]), st.sampled_from(["zero", "field"]),
       _elements, st.lists(_elements, max_size=40), st.integers(1, 5), st.booleans())
def test_scale_vec_matches_where_reference(tower, scalar, c, entries, cols, zeros):
    """In-place `scale_vec` against the `np.where` form: c = 0, arrays with
    zero entries, 1-D and 2-D input."""
    ctx = make_field(*tower)
    c = 0 if scalar == "zero" else c % ctx.size
    a = np.array(entries, dtype=np.int64) % ctx.size
    if zeros:
        a[::3] = 0
    for arr in (a, np.resize(a, (len(a) // cols, cols))):
        want = scale_vec_where(ctx, c, arr)
        got = ctx.scale_vec(c, arr)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 728), st.integers(0, 728), st.integers(0, 728))
def test_ring_axioms(x, y, z):
    ctx = make_field(3, 1, 3)
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))


def test_prime_power_base_field():
    ctx = make_field(3, 2, 3)  # q = 9, top field 3^12
    assert ctx.q == 9 and ctx.deg == 12
    x = 123456
    assert ctx.frob(x, 1) == ctx.pow(x, 9)
    assert ctx.in_subfield(ctx.trace_rel(x, 3), 3)
    assert ctx.subfield(1).size == 9
    assert ctx.ker_trace().size == 9 ** 3


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("tower", [(3, 1, 3), (3, 1, 4), (3, 2, 3)])
def test_in_subfield_mask_matches_the_per_element_answer(tower):
    ctx = make_field(*tower)
    xs = ctx.elements()
    for d in _divisors(ctx.n):
        mask = ctx.in_subfield(xs, d)
        assert mask.dtype == bool and mask.shape == xs.shape
        assert np.array_equal(mask, ctx.pow_vec(xs, ctx.q ** d) == xs)
        assert int(mask.sum()) == ctx.q ** d
        assert np.array_equal(ctx.subfield(d), np.flatnonzero(mask))
        if ctx.size <= 3 ** 8:
            assert [bool(ctx.in_subfield(int(x), d)) for x in xs] == mask.tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1, 3), (3, 1, 4), (5, 1, 3)]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_sum_vec_is_a_fold_of_add(tower, rows, cols, seed):
    ctx = make_field(*tower)
    a = np.random.default_rng(seed).integers(0, ctx.size, (rows, cols))
    for axis, lines in ((0, a.T), (1, a), (-1, a)):
        want = []
        for line in lines.tolist():
            acc = 0
            for v in line:
                acc = ctx.add(acc, v)
            want.append(acc)
        got = ctx.sum_vec(a, axis=axis)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("tower", [(3, 1, 3), (3, 1, 4)])
def test_trace_rel_matches_the_conjugate_loop(tower):
    ctx = make_field(*tower)
    for d in _divisors(ctx.n):
        got = [ctx.trace_rel(x, d) for x in range(ctx.size)]
        assert got == [trace_rel_loop(ctx, x, d) for x in range(ctx.size)]


def test_field_above_the_table_bound_is_refused_before_the_build(monkeypatch):
    def build(*args):
        raise AssertionError("the tower was built")

    monkeypatch.setattr(fieldcore, "smallest_irreducible", build)
    with pytest.raises(fieldcore.BudgetExceededError, match="exceeds the table bound"):
        FieldCtx(3, 1, 8)


def test_zero_has_no_inverse(f33):
    with pytest.raises(ZeroDivisionError):
        f33.inv(0)
    with pytest.raises(ZeroDivisionError):
        f33.pow(0, -1)
    assert f33.pow(0, 0) == 1 and f33.pow(0, 3) == 0


def test_scalar_methods_refuse_indices_outside_the_field(f33):
    """-1 used to wrap through numpy (frob(-1, 1) read 375, trace_rel(-1, 3)
    720, mul(-1, 2) 364, in_subfield(-1, 3) False) and trace_rel(729, 3)
    ended in IndexError."""
    calls = [
        lambda x: f33.frob(x, 1), lambda x: f33.trace_rel(x, 3), lambda x: f33.mul(x, 2),
        lambda x: f33.mul(2, x), lambda x: f33.in_subfield(x, 3), lambda x: f33.add(x, 1),
        lambda x: f33.add(1, x), lambda x: f33.sub(1, x), lambda x: f33.sub(x, 1),
        lambda x: f33.neg(x), lambda x: f33.inv(x), lambda x: f33.div(x, 1),
        lambda x: f33.div(1, x), lambda x: f33.pow(x, 2), lambda x: f33.norm_rel(x, 3),
    ]
    for call in calls:
        for bad in (-1, f33.size):
            with pytest.raises(ValueError, match="outside"):
                call(bad)
        call(f33.size - 1)
    # index arrays are not checked by the scalar helper
    assert f33.in_subfield(np.arange(f33.size), 3).sum() == 27
