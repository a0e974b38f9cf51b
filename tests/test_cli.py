import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import csv_lines_writer
from scatlin import cli
from scatlin.cli import main
from scatlin.quadrinomial import CASES, PRIORS, run_property_suite
from scatlin.sweep import Records, condition_pairs
from scatlin.fieldcore import make_field
from scatlin.linpoly import LinPoly


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_classify_writes_jsonl_and_csv(tmp_path):
    out = tmp_path / "classify.jsonl"
    csv_out = tmp_path / "classify.csv"
    rc = main(
        [
            "classify", "--q", "3", "--t", "3", "--s", "1", "--h-dedup",
            "--no-witness", "--out", str(out), "--csv", str(csv_out),
        ]
    )
    assert rc == 0
    lines = read_jsonl(out)
    header, records, summary = lines[0], lines[1:-1], lines[-1]
    assert header["schema_version"] == 1 and header["kind"] == "classify"
    assert len(records) == 27 * 364
    assert summary["violations_applies_not_scattered"] == []
    first = csv_out.read_text().splitlines()
    assert first[0].startswith("m,h,norm_h")
    assert len(first) == 1 + len(records)


def test_classify_budget_refusal(tmp_path, capsys):
    for command, out in (("classify", "x.jsonl"), ("conjecture", "c.json")):
        rc = main([command, "--q", "3", "--t", "3", "--s", "1", "--budget", "10",
                   "--out", str(tmp_path / out)])
        assert rc == 2
        assert not (tmp_path / out).exists()


def test_budget_refusal_builds_no_tower(tmp_path, capsys):
    """A tower above --budget is refused before it is built: make_field is
    not called, and the refusal names the size q^(2t)."""
    before = make_field.cache_info()
    for command in ("classify", "conjecture"):
        assert main([command, "--q", "3", "--t", "6", "--out", str(tmp_path / "x")]) == 2
        assert "field size 531441 above budget 15625" in capsys.readouterr().err
    assert make_field.cache_info() == before
    assert not (tmp_path / "x").exists()
    with pytest.raises(ValueError, match="prime power"):
        main(["classify", "--q", "6", "--t", "6"])


# SHA-256 of the `classify --q 3 --t 3` artifacts (JSON lines, CSV projection)
# per (step, --h-dedup, --no-witness), recorded before the records became
# columns; the two witness settings write the same CSV
CLASSIFY_33_DIGESTS = {
    (1, True, False): ("c543f60ecde9d9be15caee5c73ecd133315aac54752fd015d19faf69077e2a00",
                       "1e70244dc526c745f1d9737d59c80219eeabae85d7d35cf594facde1c44d36a4"),
    (1, True, True): ("0a6009bd0f0a223fdc325872fb9f13aa3036ee3f6d399c092006c08c3a173aed",
                      "1e70244dc526c745f1d9737d59c80219eeabae85d7d35cf594facde1c44d36a4"),
    (5, True, False): ("fb7a036c9dfa1dc4f2bd4bbba9f54f9d292441917fa49641a507aee7d77da640",
                       "654268999a654325254c6d9c38815e9c5a124ae40b702eee797a852922a44536"),
    (5, True, True): ("532cbf0ac7d500eb3008cebbc43dcd77da504663e7fa9089fb1b1eea932b2d2c",
                      "654268999a654325254c6d9c38815e9c5a124ae40b702eee797a852922a44536"),
    (1, False, False): ("aa21cb7b2eeb8aed00b49d0d532de72d0ab1a8fdc2e6c8a306230584c993e10c",
                        "f2df6d4c7e56d8e2481c1604457e8ff2e813cf59792fe1ef162c78962d766934"),
}


@pytest.mark.parametrize("key", sorted(CLASSIFY_33_DIGESTS),
                         ids=lambda k: f"s{k[0]}{'-dedup' * k[1]}{'-nowitness' * k[2]}")
def test_classify_artifacts_are_pinned(tmp_path, key):
    s, h_dedup, no_witness = key
    out, csv_out = tmp_path / "c.jsonl", tmp_path / "c.csv"
    argv = ["classify", "--q", "3", "--t", "3", "--s", str(s), "--out", str(out),
            "--csv", str(csv_out)]
    argv += ["--h-dedup"] * h_dedup + ["--no-witness"] * no_witness
    assert main(argv) == 0
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out, csv_out)) == CLASSIFY_33_DIGESTS[key]


# SHA-256 of the `classify --h-dedup --no-witness --s 1` JSON lines (header,
# records, summary) at larger towers, with the kernel calls and pairs of the
# stderr cost line; recorded before the sweep profiled its orbits in batches
CLASSIFY_DEDUP_DIGESTS = {
    (3, 4): ("82df9ed787ae69b84628efbb7c75da2085a0312861b31ff6d9a5fb2d7e1c86e7", 1703, 265680),
    (5, 3): ("764e4d817c28363b6bfcc8ba8277c8a0251fe6d39c8a4910da71cb9a51dfd16d", 2667, 488250),
}


@pytest.mark.parametrize("q,t", sorted(CLASSIFY_DEDUP_DIGESTS))
def test_larger_classify_artifacts_are_pinned(tmp_path, capsys, q, t):
    digest, calls, pairs = CLASSIFY_DEDUP_DIGESTS[q, t]
    out = tmp_path / "c.jsonl"
    assert main(["classify", "--q", str(q), "--t", str(t), "--s", "1", "--h-dedup",
                 "--no-witness", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert re.fullmatch(rf"s=1: [0-9.]+s, {calls}/{pairs} profiles\n", capsys.readouterr().err)


# SHA-256 of `conjecture --q 3 --t 3 --s S`, the one sweep that profiles both
# forms in one grid; recorded before the code pass numbered the scaling keys
# by lattice coset
CONJECTURE_33_DIGESTS = {
    1: "c0c51a98dfae87aa292bec0b84475002feab685a8fceb4d140a3f130dac1d5b7",
    5: "98643f4bdd536aa4683a7009682e584f1d83d9491766ebcef7fc1cf072dcfae7",
}


@pytest.mark.parametrize("s", sorted(CONJECTURE_33_DIGESTS))
def test_conjecture_reports_are_pinned(tmp_path, capsys, s):
    out = tmp_path / "conj.json"
    assert main(["conjecture", "--q", "3", "--t", "3", "--s", str(s), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONJECTURE_33_DIGESTS[s]
    assert re.fullmatch(rf"s={s}: [0-9.]+s, 260/19656 profiles\n", capsys.readouterr().err)


@pytest.mark.parametrize("extra", [0, 1, -1])
@pytest.mark.parametrize("chunks", [0, 1, 2, 5])
def test_lines_are_written_in_chunks(chunks, extra):
    """`_write_lines` writes every line in order, one `write` per chunk of
    `_WRITE_LINES` lines and one for the rest, and nothing for no lines."""
    size = cli._WRITE_LINES
    count = max(0, chunks * size + extra)
    writes = []
    cli._write_lines(SimpleNamespace(write=writes.append), (f"{i}\n" for i in range(count)))
    assert "".join(writes) == "".join(f"{i}\n" for i in range(count))
    assert [w.count("\n") for w in writes] == [min(size, count - i)
                                               for i in range(0, count, size)]


_indices = st.integers(0, 2 ** 62)
_witnesses = st.fixed_dictionaries({
    "x": _indices, "y": _indices, "gamma": st.none() | _indices, "x0": st.none() | _indices,
    "xi": st.none() | _indices, "kind": st.sampled_from(["kernel", "ratio"])})
_rows = st.tuples(_indices, _indices, _indices, st.integers(0, len(CASES) - 1),
                  st.integers(0, len(PRIORS) - 1), st.booleans(), _indices,
                  st.sampled_from(["outside", "none"]) | _witnesses)


@st.composite
def _repeating_rows(draw):
    """1-12 rows whose m, h, norm_h and linear_set_size columns each draw
    from one to three values, so that repeated values, all-equal columns and
    single rows all occur in the writer's distinct-value tables."""
    pools = [st.sampled_from(draw(st.lists(_indices, min_size=1, max_size=3)))
             for _ in range(4)]
    row = st.tuples(pools[0], pools[1], pools[2], st.integers(0, len(CASES) - 1),
                    st.integers(0, len(PRIORS) - 1), st.booleans(), pools[3],
                    st.sampled_from(["outside", "none"]) | _witnesses)
    return draw(st.lists(row, min_size=1, max_size=12))


@example(rows=[(0, 1, 1, 0, 0, False, 364, "none")], with_witness=True)
@example(rows=[(5, 7, 1, 2, 1, True, 364, "outside")] * 4, with_witness=False)
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows, min_size=1, max_size=12) | _repeating_rows(),
       with_witness=st.booleans())
def test_record_lines_are_json_dumps_of_the_record(rows, with_witness):
    """Every line is json.dumps of its record dict, on rows of any values and
    on rows with few values per column; "outside" rows are missing from the
    witness map and "none" rows map to None, and both read null."""
    m, h, norm, case, prior, scattered, size, wit = zip(*rows)
    witness = None
    if with_witness:
        witness = {i: (None if w == "none" else w) for i, w in enumerate(wit) if w != "outside"}
    records = Records(*(np.array(col, dtype=np.int64) for col in (m, h, norm, case, prior)),
                      np.array(scattered, dtype=bool), np.array(size, dtype=np.int64), witness)
    expected = []
    for m, h, norm, case, prior, scattered, size, w in rows:
        rec = {"m": m, "h": h, "norm_h": norm, "case_tag": CASES[case],
               "prior_tag": PRIORS[prior], "scattered": scattered, "linear_set_size": size}
        if with_witness:
            rec["witness"] = w if isinstance(w, dict) else None
        expected.append(json.dumps(rec) + "\n")
    assert list(cli._record_lines(records)) == expected


@example(rows=[(5, 7, 1, 2, 1, True, 364, "outside")] * 4)
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_rows, min_size=1, max_size=12) | _repeating_rows())
def test_csv_lines_match_the_csv_writer(rows):
    """The CSV rows joined from pieces are the rows `csv.writer` writes, on
    the record rows of the JSON-lines test, and on one row per (case, prior,
    scattered)."""
    tags = [(3, 1, 2, i // (2 * len(PRIORS)), i // 2 % len(PRIORS), i % 2 == 1, 9)
            for i in range(2 * len(CASES) * len(PRIORS))]
    for table in (rows, tags):
        m, h, norm, case, prior, scattered, size = list(zip(*table))[:7]
        records = Records(*(np.array(col, dtype=np.int64) for col in (m, h, norm, case, prior)),
                          np.array(scattered, dtype=bool), np.array(size, dtype=np.int64))
        assert "".join(cli._csv_lines(records)) == csv_lines_writer(records)


def test_removed_options_are_refused(tmp_path):
    """The sweeps run in one process and take no preset file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 10}))
    argv = ["classify", "--q", "3", "--t", "3", "--h-dedup", "--no-witness",
            "--out", str(tmp_path / "x.jsonl")]
    for bad in (argv + ["--workers", "2"], ["--config", str(cfg)] + argv):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2


def test_props_command(tmp_path, capsys):
    out = tmp_path / "props.json"
    rc = main(["props", "--q", "3", "--t", "3", "--s", "1", "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["kind"] == "props" and rep["exhaustive"]
    assert all(r["passed"] for r in rep["results"])
    assert "PASS" in capsys.readouterr().out


# SHA-256 of the `props` reports, exhaustive at (3,3) and sampled at (3,4);
# recorded before the structural statements read one split per (s, h)
PROPS_DIGESTS = {
    ("3", "1", ()): "d7835972484f26bd4fb211983f35dd71955df00ad4fc74e4686d39b71f9583a9",
    ("4", "3", ("--samples", "30")): "39d995f70f131892119b5efdb0bc60bdc5a7845335f8f560333b6e696c81b534",
}


@pytest.mark.parametrize("key", sorted(PROPS_DIGESTS), ids=lambda k: f"t{k[0]}-s{k[1]}")
def test_props_reports_are_pinned(tmp_path, key):
    t, s, extra = key
    out = tmp_path / "props.json"
    assert main(["props", "--q", "3", "--t", t, "--s", s, *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROPS_DIGESTS[key]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_props_refuses_fewer_than_one_sample(samples, capsys):
    """--samples 0 would check no h and pass vacuously, and -1 used to end
    in a numpy traceback; both are refused before the suite runs."""
    with pytest.raises(SystemExit) as exc:
        main(["props", "--q", "3", "--t", "4", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples: must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="samples must be at least 1"):
        run_property_suite(make_field(3, 1, 4), 1, exhaustive=False, samples=int(samples))


def test_props_refuses_a_sample_count_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["props", "--q", "3", "--t", "4", "--samples", "abc"])
    assert exc.value.code == 2
    assert "--samples: not an integer: 'abc'" in capsys.readouterr().err


def test_stabilizer_command(tmp_path):
    ctx = make_field(3, 1, 3)
    m, h = condition_pairs(ctx, 1)[0]
    out = tmp_path / "stab.json"
    rc = main(
        ["stabilizer", "--q", "3", "--t", "3", "--s", "1",
         "--m", str(m), "--h", str(h), "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["order"] == 9 and rep["is_field"]
    assert rep["schema_version"] == 1


def test_out_of_range_h_is_refused():
    for h in ("-1", "729"):
        with pytest.raises(ValueError, match="nonzero element index below 729"):
            main(["stabilizer", "--q", "3", "--t", "3", "--m", "0", "--h", h])


def test_out_of_range_delta_is_refused():
    for delta in ("-1", "729"):
        with pytest.raises(ValueError, match="element indices"):
            main(["intn", "--q", "3", "--t", "3", "--family", "lp", "--delta", delta])


@pytest.mark.parametrize("family, extra, match", [
    ("quadrinomial", ["--m", "1"], "go together"),
    ("psi", ["--h", "1"], "go together"),
    ("pseudoregulus", ["--m", "1", "--h", "1"], "quadrinomial member"),
    ("lp", ["--h", "1"], "quadrinomial member"),
    ("pseudoregulus", ["--delta", "5"], "lp coefficient"),
    ("quadrinomial", ["--delta", "5"], "lp coefficient"),
])
def test_intn_refuses_flags_its_family_ignores(family, extra, match):
    with pytest.raises(ValueError, match=match):
        main(["intn", "--q", "3", "--t", "3", "--family", family, *extra])


def test_idealizer_command(tmp_path):
    ctx = make_field(3, 1, 3)
    m, h = condition_pairs(ctx, 1)[0]
    out = tmp_path / "ideal.json"
    rc = main(
        ["idealizer", "--q", "3", "--t", "3", "--s", "1",
         "--m", str(m), "--h", str(h), "--side", "both", "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["right_order"] == 9 and rep["left_order"] == 729


# SHA-256 of `idealizer --side both` at s = 1 for the first condition pair,
# recorded before the left idealizer returned a PairRange.  No family member
# has f o f in the span, so the F x F case runs the command on X^(q^t) in
# place of the member (left_order q^(2n) = 531441 at (3,3))
IDEALIZER_DIGESTS = {
    (3, False): "06684bedd141f037be437a26523a0b8248a21a86dcf56cae98e86aab2297f8cd",
    (3, True): "4a1d79a0e6c4c40bb2c406fd5bbfccfcfdcd6b29d08db33c4c80c71ecf7ffd60",
    (5, False): "88f39b84aa8bf70406e1e749c15fedda905f22e64207ce0460c6516e963fdf83",
}


@pytest.mark.parametrize("key", sorted(IDEALIZER_DIGESTS),
                         ids=lambda k: f"t{k[0]}{'-middle-frobenius' * k[1]}")
def test_idealizer_reports_are_pinned(tmp_path, monkeypatch, key):
    t, middle = key
    ctx = make_field(3, 1, t)
    if middle:
        monkeypatch.setattr(cli, "build_quadrinomial", lambda params: LinPoly.monomial(ctx, 1, t))
    m, h = condition_pairs(ctx, 1)[0]
    out = tmp_path / "ideal.json"
    assert main(["idealizer", "--q", "3", "--t", str(t), "--s", "1", "--m", str(m),
                 "--h", str(h), "--side", "both", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == IDEALIZER_DIGESTS[key]


# SHA-256 of `stabilizer` and of `equiv` for the first condition pair (m, h)
# at s = 1, the latter against (m, -h); recorded before the graph-map solve
# read delta off a slot of f.  Every coefficient of a member carries an even
# power of h, so (m, -h) is the same polynomial and the witness is the identity
STRUCTURE_DIGESTS = {
    ("stabilizer", 3): "bbd83b305fcc53eb063f87798809ef16c39692d33ac4b43946314ce6b43ed5b1",
    ("stabilizer", 5): "2f0477674bf241ee7f503a91e7066128095700ea5897bfe0a76899969b8ff2b9",
    ("equiv", 3): "a6fd44148e0340677a2850649569836ddb9c8eb133709cd738dc5601d05c832c",
    ("equiv", 5): "6f87b1c41bda92bd834e378665d6f5758ff957b393fbf15855eaf2ba4ff9db6c",
}


@pytest.mark.parametrize("key", sorted(STRUCTURE_DIGESTS), ids=lambda k: f"{k[0]}-t{k[1]}")
def test_structure_reports_are_pinned(tmp_path, key):
    command, t = key
    ctx = make_field(3, 1, t)
    m, h = condition_pairs(ctx, 1)[0]
    argv = [command, "--q", "3", "--t", str(t), "--s", "1", "--m", str(m), "--h", str(h)]
    if command == "equiv":
        argv += ["--s2", "1", "--m2", str(m), "--h2", str(ctx.neg(h))]
        argv += ["--allow-small-t"] if t < 5 else []
    out = tmp_path / f"{command}.json"
    assert main(argv + ["--out", str(out)]) == 0
    if command == "equiv":
        assert read_json(out)["gl_witness"] == [1, 0, 0, 1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STRUCTURE_DIGESTS[key]


def test_equiv_report_with_a_nontrivial_witness_is_pinned(tmp_path):
    """(m, h) = (1, 11) against (43, 11) at (3,3): two distinct members, a
    diagonal witness; recorded before the witness algebra moved to
    `mrdcodes.mat_mul`/`mat_det`."""
    out = tmp_path / "equiv.json"
    assert main(["equiv", "--q", "3", "--t", "3", "--s", "1", "--m", "1", "--h", "11",
                 "--s2", "1", "--m2", "43", "--h2", "11", "--allow-small-t",
                 "--out", str(out)]) == 0
    rep = read_json(out)
    assert (rep["case"], rep["gl_witness"], rep["beta_candidates"], rep["agree"]) == (
        "c", [361, 0, 0, 42], 3, True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3d39641467084d86b80de222610f95f14df0db6662155463e228e790d4b4084f")


def test_equiv_command(tmp_path):
    ctx = make_field(3, 1, 3)
    m, h = condition_pairs(ctx, 1)[0]
    out = tmp_path / "equiv.json"
    rc = main(
        ["equiv", "--q", "3", "--t", "3", "--s", "1", "--m", str(m), "--h", str(h),
         "--s2", "1", "--m2", str(m), "--h2", str(h), "--allow-small-t",
         "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["agree"] and rep["case"] == "c"


def test_budget_is_refused_outside_classify_and_conjecture(tmp_path):
    """--budget caps the field size of classify/conjecture only; the other
    subcommands refuse the flag instead of ignoring it."""
    ctx = make_field(3, 1, 3)
    m, h = condition_pairs(ctx, 1)[0]
    argv = ["equiv", "--q", "3", "--t", "3", "--s", "1", "--m", str(m), "--h", str(h),
            "--s2", "1", "--m2", str(m), "--h2", str(h), "--allow-small-t",
            "--out", str(tmp_path / "equiv.json")]
    with pytest.raises(SystemExit):
        main(argv + ["--budget", "10"])
    with pytest.raises(SystemExit):
        main(["props", "--q", "3", "--t", "3", "--budget", "10"])
    assert main(argv) == 0


def test_intn_command_families(tmp_path):
    out = tmp_path / "intn.json"
    for fam, expect in [("pseudoregulus", 1), ("lp", 2), ("psi", 3)]:
        rc = main(
            ["intn", "--q", "3", "--t", "3", "--s", "1", "--family", fam,
             "--out", str(out)]
        )
        assert rc == 0
        rep = read_json(out)
        assert rep["intersection_number"] >= expect
        if fam != "psi":
            assert rep["intersection_number"] == expect
        assert rep["vertex_dim"] == 3
        # the report names the member it measured only for the quadrinomial family
        assert ("m" in rep, "h" in rep) == (fam == "psi",) * 2
    ctx = make_field(3, 1, 3)
    assert (rep["m"], rep["h"]) == condition_pairs(ctx, 1)[0]
    m, h = condition_pairs(ctx, 1)[-1]
    assert main(["intn", "--q", "3", "--t", "3", "--s", "1", "--family", "quadrinomial",
                 "--m", str(m), "--h", str(h), "--out", str(out)]) == 0
    assert (read_json(out)["m"], read_json(out)["h"]) == (m, h)


def test_witness_command(tmp_path):
    from scatlin.quadrinomial import trace_zero_power_set

    ctx = make_field(3, 1, 3)
    minus = trace_zero_power_set(ctx, 1, -1)
    m = int(minus[minus != 0][0])
    out = tmp_path / "wit.json"
    rc = main(
        ["witness", "--q", "3", "--t", "3", "--s", "1", "--m", str(m), "--h", "1",
         "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["m_in_minus_power_set"] and rep["witness"] is not None
    assert rep["scattered"] is False
    # outside the minus power set: no witness expected, still exit 0
    outside = int(np.setdiff1d(ctx.subfield(3), minus)[1])
    rc = main(
        ["witness", "--q", "3", "--t", "3", "--s", "1", "--m", str(outside),
         "--h", "1", "--out", str(out)]
    )
    assert rc == 0
    assert read_json(out)["witness"] is None


# SHA-256 of the `witness` reports (exit code, then file bytes) for every m in
# F_{q^t}, both steps and both h of the witness range at (3,3), recorded
# before the minus-set membership was read from the condition calculus
WITNESS_33_DIGEST = "0db692797d84a1a154a77cb18c5f7dcf5c8841c440749b369f627faf1a99e0a0"


def test_witness_reports_are_pinned_for_every_m(tmp_path):
    ctx = make_field(3, 1, 3)
    out = tmp_path / "wit.json"
    digest = hashlib.sha256()
    for s in (1, 5):
        for h in (1, ctx.neg_one):
            for m in ctx.subfield(ctx.t).tolist():
                rc = main(["witness", "--q", "3", "--t", "3", "--s", str(s), "--m", str(m),
                           "--h", str(h), "--out", str(out)])
                digest.update(bytes([rc]) + out.read_bytes())
    assert digest.hexdigest() == WITNESS_33_DIGEST


def test_conjecture_command(tmp_path):
    out = tmp_path / "conj.json"
    rc = main(["conjecture", "--q", "3", "--t", "3", "--s", "1", "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["nonzero_m_mismatches_main"] == 0
    assert rep["nonzero_m_mismatches_swapped"] > 0


def test_bad_q_rejected():
    with pytest.raises(ValueError, match="prime power"):
        main(["props", "--q", "6", "--t", "3", "--s", "1"])


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["classify", "--q", "3", "--t", "3", "--s", "1", "--h-dedup",
            "--no-witness"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call(tmp_path, capsys):
    """`main` builds its parser once per process.  classify, stabilizer and
    classify again give the pinned artifacts, and no option leaks: the
    second classify runs without --h-dedup, --no-witness and --csv, so it
    writes the full grid with witnesses and leaves the first CSV alone."""
    first, again, csv_out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "a.csv"
    base = ["--q", "3", "--t", "3", "--s", "1"]
    assert main(["classify", *base, "--h-dedup", "--no-witness", "--out", str(first),
                 "--csv", str(csv_out)]) == 0
    csv_bytes = csv_out.read_bytes()
    m, h = condition_pairs(make_field(3, 1, 3), 1)[0]
    stab = tmp_path / "stab.json"
    assert main(["stabilizer", *base, "--m", str(m), "--h", str(h), "--out", str(stab)]) == 0
    assert main(["classify", *base, "--out", str(again)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (first, stab, again)]
    assert digests == [CLASSIFY_33_DIGESTS[1, True, True][0],
                       STRUCTURE_DIGESTS["stabilizer", 3],
                       CLASSIFY_33_DIGESTS[1, False, False][0]]
    assert csv_out.read_bytes() == csv_bytes
    assert hashlib.sha256(csv_bytes).hexdigest() == CLASSIFY_33_DIGESTS[1, True, True][1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.jsonl", "b.jsonl",
                                                          "stab.json"]
    assert cli._parser() is cli._parser()
    assert not hasattr(cli._parser().parse_args(["stabilizer", *base, "--m", "0", "--h", "1"]),
                       "h_dedup")


def test_conjecture_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["conjecture", "--q", "3", "--t", "3", "--s", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "elapsed_s" not in read_json(a)
    assert capsys.readouterr().err.count("s=1: ") == 2


def test_cost_line_counts_kernel_calls(tmp_path, capsys):
    """One fiber count per scaling-Frobenius orbit: 139 of the 9,828
    h-deduped (3,3) pairs per step, in every call; the count stays off the
    artifact."""
    out = tmp_path / "c.jsonl"
    assert main(["classify", "--q", "3", "--t", "3", "--all-s", "--h-dedup",
                 "--no-witness", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(re.fullmatch(rf"s={s}: [0-9.]+s, 139/9828 profiles", line)
               for s, line in zip((1, 5), err))
    assert "profiles" not in (tmp_path / "c.jsonl.s1").read_text()
    # the memo lives for one sweep call: a repeated step redoes its counts
    assert main(["classify", "--q", "3", "--t", "3", "--s", "1", "--h-dedup",
                 "--no-witness", "--out", str(out)]) == 0
    assert ", 139/9828 profiles" in capsys.readouterr().err
