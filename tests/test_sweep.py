import json

import numpy as np
import pytest

from reference import PerPairProfiles
from scatlin import sweep
from scatlin.linpoly import LinPoly
from scatlin.quadrinomial import QuadParams, build_quadrinomial, scattered_conditions
from scatlin.scattered import fiber_profile
from scatlin.sweep import (
    ProfileMemo,
    classify_sweep,
    classify_record,
    condition_pairs,
    sufficiency_sweep,
    bad_power_set_sweep,
    conjecture_scan,
    h_class_reps,
)


def test_h_class_reps(f33):
    reps = h_class_reps(f33)
    assert reps.size == 728 // 2
    # one representative per scalar orbit, always the smallest index
    seen = set()
    for h in reps:
        orbit = {int(h), f33.mul(2, int(h))}
        assert not (orbit & seen)
        assert int(h) == min(orbit)
        seen |= orbit
    assert len(seen) == 728


def test_condition_pairs_match_predicate(f33, f53):
    for ctx in (f33, f53):
        pairs = set(condition_pairs(ctx, 1))
        mid = ctx.subfield(ctx.t)
        for m in mid[:6]:
            for h in range(1, 40):
                applies = scattered_conditions(QuadParams(ctx, 1, int(m), h)).applies
                assert ((int(m), h) in pairs) == applies


def test_record_schema_roundtrips(f33):
    rec = classify_record(QuadParams(f33, 1, 0, 5))
    again = json.loads(json.dumps(rec))
    assert again == rec
    assert set(rec) == {
        "m", "h", "norm_h", "case_tag", "prior_tag", "scattered",
        "linear_set_size", "witness",
    }


def test_classify_sweep_summary(f33):
    records, summary = classify_sweep(f33, 1, h_dedup=True)
    assert summary["pairs"] == 27 * 364
    assert summary["violations_applies_not_scattered"] == []
    # conditions cover the IIa block only at this size
    assert summary["case_counts"].get("IIa", 0) == 182
    # scattered pairs outside the conditions all sit at m = 0
    assert all(m == 0 for m, _ in summary["conjecture_data_scattered_not_applies"])
    assert records == sorted(records, key=lambda r: (r["m"], r["h"]))


def test_classify_sweep_parallel_merge_is_canonical(f33):
    seq, _ = classify_sweep(f33, 1, h_dedup=True, with_witness=False)
    par, _ = classify_sweep(f33, 1, h_dedup=True, with_witness=False, workers=2)
    assert seq == par


def test_sufficiency_sweep_all_steps(f33):
    for s in (1, 5, 7, 11):
        rep = sufficiency_sweep(f33, s)
        assert rep["pairs_checked"] == 364
        assert rep["violations"] == []


def test_bad_power_set_sweep(f33):
    rep = bad_power_set_sweep(f33, 1)
    assert rep["failures"] == []
    assert rep["pairs_checked"] == 28
    assert rep["witnesses_verified"] == 28


def test_conjecture_scan_nonzero_m_clean(f33):
    rep = conjecture_scan(f33, 1, h_dedup=True)
    assert rep["nonzero_m_mismatches_main"] == 0
    # the swapped exponent ordering does not match the conditions
    assert rep["nonzero_m_mismatches_swapped"] > 0


def _all_sweeps(ctx, s):
    """Every sweep report at step s, wall times dropped, with the memo stats."""
    out, stats = [], []
    for run in (
        lambda st: sweep.classify_sweep(ctx, s, h_dedup=True, stats=st),
        lambda st: sweep.conjecture_scan(ctx, s, stats=st),
        lambda st: sweep.sufficiency_sweep(ctx, s, roots_sample=2, seed=s, stats=st),
        lambda st: sweep.bad_power_set_sweep(ctx, s, stats=st),
    ):
        st = {}
        rep = run(st)
        (rep[1] if isinstance(rep, tuple) else rep).pop("elapsed_s")
        out.append(rep)
        stats.append(st)
    return out, stats


@pytest.mark.parametrize("s", [1, 5])
def test_sweeps_match_per_pair_reference(f33, s, monkeypatch):
    """All four sweeps with the orbit memo equal their per-pair form, in
    which every polynomial gets its own fiber count."""
    fast, fast_stats = _all_sweeps(f33, s)
    monkeypatch.setattr(sweep, "ProfileMemo", PerPairProfiles)
    slow, slow_stats = _all_sweeps(f33, s)
    assert fast == slow
    assert [st["polynomials"] for st in fast_stats] == [9828, 2 * 9828, 364, 28]
    assert [st["profiles"] for st in fast_stats][:2] == [139, 260]
    assert slow_stats == [{"profiles": n, "polynomials": n}
                          for n in (9828, 2 * 9828, 364, 28)]


def test_memo_matches_fiber_profile_on_seeded_34_orbits(f34):
    """Seeded members at (3,4), each followed by three scaled and twisted
    images: every lookup equals its own fiber count, and images never miss."""
    rng = np.random.default_rng(34)
    mids = f34.subfield(4)
    memo = ProfileMemo()
    for _ in range(40):
        s = int(rng.choice([1, 3, 5, 7]))
        f = build_quadrinomial(QuadParams(f34, s, int(rng.choice(mids)),
                                          int(rng.integers(1, f34.size))))
        calls = memo.calls
        assert memo(f) == fiber_profile(f)
        for _ in range(3):
            lam, mu = (int(x) for x in rng.integers(1, f34.size, 2))
            image = f.compose(LinPoly.from_terms(f34, s, {0: lam})).scale(mu)
            image = image.frobenius_twist(int(rng.integers(f34.deg)))
            assert memo(image) == fiber_profile(image)
        assert memo.calls <= calls + 1
    assert memo.asked == 4 * 40
