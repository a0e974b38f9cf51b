"""Batch driver: suites and point queries as subcommands with JSON reports
(`sweep.sufficiency_sweep` and `sweep.bad_power_set_sweep` are library-only).

Sweep outputs are JSON-lines (header object, one record per line, summary
object); point queries write a single JSON object.  Every artifact carries a
schema_version field.  Exit code 0 means the invoked suite had zero failed
assertions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
import time
from math import gcd

import numpy as np

from .fieldcore import _factorize, make_field
from .linpoly import LinPoly
from .quadrinomial import (
    CASES,
    PRIORS,
    QuadParams,
    build_quadrinomial,
    in_minus_power_set,
    nonscattered_witness,
    run_property_suite,
)
from .scattered import is_scattered_fiber
from .mrdcodes import RankCode, right_idealizer, left_idealizer, stabilizer
from .equivalence import pair_report
from .projgeom import polynomial_vertex, intersection_number
from .sweep import SCHEMA_VERSION, classify_sweep, condition_pairs, conjecture_scan


def _prime_power(q):
    factors = _factorize(q)
    if len(factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    (p, e), = factors.items()
    return p, e


def _ctx_from_args(args):
    return make_field(*_prime_power(args.q), args.t)


def _over_budget(args) -> bool:
    """Refuse a tower of more than `--budget` elements before building it."""
    _prime_power(args.q)
    size = args.q ** (2 * args.t)
    if size > args.budget:
        print(f"refused: field size {size} above budget {args.budget}", file=sys.stderr)
        return True
    return False


def _emit(obj, out_path):
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


# the record fields from case_tag to the key of linear_set_size, one piece per
# (case, prior, scattered), indexed (case*len(PRIORS) + prior)*2 + scattered
_MIDDLES = np.array([', "case_tag": %s, "prior_tag": %s, "scattered": %s, "linear_set_size": '
                     % (json.dumps(case), json.dumps(prior), verdict)
                     for case in CASES for prior in PRIORS for verdict in ("false", "true")],
                    dtype=object)


def _middle(records) -> np.ndarray:
    """The index of each row's (case, prior, scattered) piece in `_MIDDLES`
    and `_CSV_MIDDLES`."""
    return (records.case.astype(np.int64) * len(PRIORS) + records.prior) * 2 + records.scattered


def _pieces(col, fmt):
    """fmt % v for every entry v of an integer column, formatted once per
    distinct value."""
    values, inverse = np.unique(col, return_inverse=True)
    return np.array([fmt % v for v in values.tolist()], dtype=object)[inverse].tolist()


def _record_lines(records):
    """The JSON line of every row of a `sweep.Records`, in row order.

    Each line is `json.dumps` of the record dict (same keys, order and
    separators), joined from pieces: every distinct value of the m, h,
    norm_h and linear_set_size columns is formatted once, the tag names and
    verdict come as one precomputed piece per (case, prior, scattered), and
    only witnesses go through `json.dumps`.  Without witnesses the "witness"
    key is left out.
    """
    if records.witness is None:
        tails = itertools.repeat("}\n")
    else:
        tail = {i: ', "witness": ' + json.dumps(w) + "}\n" for i, w in records.witness.items()}
        tails = map(tail.get, range(len(records.m)), itertools.repeat(', "witness": null}\n'))
    return map("".join, zip(_pieces(records.m, '{"m": %d, "h": '),
                            _pieces(records.h, '%d, "norm_h": '),
                            _pieces(records.norm_h, "%d"),
                            _MIDDLES[_middle(records)].tolist(),
                            _pieces(records.linear_set_size, "%d"), tails))


# lines joined per `write` by `_write_lines`: 256 record lines of (3,3) join
# to about 35 KB, below glibc's 128 KB mmap threshold.  Chunks of 1,024
# lines (140 KB) were mapped and freed on every write, which raises the
# threshold, and left the `grid-33` benchmark's peak RSS about 1 MB higher.
_WRITE_LINES = 256


def _write_lines(fh, lines) -> None:
    """Write the lines in chunks of at most `_WRITE_LINES`, one `write` per
    chunk, so few calls are made and the artifact is never joined whole."""
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, _WRITE_LINES)):
        fh.write(chunk)


def _emit_lines(header, records, summary, out_path):
    """JSON lines: the header, one line per row of the columnar `records`
    (`_record_lines`, written by `_write_lines`), the summary."""
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(header) + "\n")
        _write_lines(fh, _record_lines(records))
        fh.write(json.dumps(summary) + "\n")


# the CSV fields from case_tag to scattered, one piece per (case, prior,
# scattered) in the order of `_MIDDLES`; no tag name needs CSV quoting
_CSV_MIDDLES = np.array([",%s,%s,%s," % (case, prior, verdict)
                         for case in CASES for prior in PRIORS for verdict in ("False", "True")],
                        dtype=object)


def _csv_lines(records):
    """The CSV row of every row of a `sweep.Records`, in row order, without
    witnesses, as `csv.writer` writes it (comma separated, ended by CR LF),
    joined from pieces as `_record_lines` joins the JSON lines."""
    return map("".join, zip(_pieces(records.m, "%d,"), _pieces(records.h, "%d,"),
                            _pieces(records.norm_h, "%d"),
                            _CSV_MIDDLES[_middle(records)].tolist(),
                            _pieces(records.linear_set_size, "%d\r\n")))


def _emit_csv(records, path):
    """The CSV projection of the columnar records: a header row, then
    `_csv_lines`, written by `_write_lines`."""
    with open(path, "w", newline="") as fh:
        fh.write("m,h,norm_h,case_tag,prior_tag,scattered,linear_set_size\r\n")
        _write_lines(fh, _csv_lines(records))


def _timed_sweep(sweep, ctx, s, **kwargs):
    """Run one sweep; its wall time and kernel calls per polynomial go to
    stderr, not into the report."""
    stats = {}
    t0 = time.perf_counter()
    out = sweep(ctx, s, stats=stats, **kwargs)
    print(f"s={s}: {round(time.perf_counter() - t0, 3)}s, "
          f"{stats['profiles']}/{stats['polynomials']} profiles", file=sys.stderr)
    return out


def _add_budget_arg(sp):
    sp.add_argument("--budget", type=int, default=5 ** 6,
                    help="largest admissible field size (default 5^6)")


def cmd_classify(args) -> int:
    if _over_budget(args):
        return 2
    ctx = _ctx_from_args(args)
    svals = [s for s in range(1, ctx.n) if gcd(s, ctx.n) == 1] if args.all_s else [args.s]
    bad = 0
    for s in svals:
        records, summary = _timed_sweep(classify_sweep, ctx, s, h_dedup=args.h_dedup,
                                        with_witness=not args.no_witness)
        header = {
            "schema_version": SCHEMA_VERSION,
            "kind": "classify",
            "q": ctx.q,
            "t": ctx.t,
            "s": s,
            "deterministic": True,
        }
        out = args.out
        if out and len(svals) > 1:
            out = f"{out}.s{s}"
        _emit_lines(header, records, summary, out)
        if args.csv:
            _emit_csv(records, args.csv if len(svals) == 1 else f"{args.csv}.s{s}")
        bad += len(summary["violations_applies_not_scattered"])
    return 0 if bad == 0 else 1


def cmd_conjecture(args) -> int:
    if _over_budget(args):
        return 2
    ctx = _ctx_from_args(args)
    rep = _timed_sweep(conjecture_scan, ctx, args.s, h_dedup=not args.no_h_dedup)
    rep["kind"] = "conjecture"
    _emit(rep, args.out)
    return 0  # mismatches are data, not assertion failures


def cmd_props(args) -> int:
    ctx = _ctx_from_args(args)
    exhaustive = ctx.size <= 3 ** 6
    results = run_property_suite(ctx, args.s, exhaustive=exhaustive,
                                 samples=args.samples)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "props",
        "q": ctx.q,
        "t": ctx.t,
        "s": args.s,
        "exhaustive": exhaustive,
        "results": [{"statement": n, "passed": ok, "detail": d} for n, ok, d in results],
    }
    for n, ok, _ in results:
        print(f"{'PASS' if ok else 'FAIL'}  {n}")
    if args.out:
        _emit(report, args.out)
    return 0 if all(ok for _, ok, _ in results) else 1


def cmd_stabilizer(args) -> int:
    ctx = _ctx_from_args(args)
    params = QuadParams(ctx, args.s, args.m, args.h)
    f = build_quadrinomial(params)
    st = stabilizer(f)
    rep = st.to_report()
    rep.update({"schema_version": SCHEMA_VERSION, "kind": "stabilizer",
                "q": ctx.q, "t": ctx.t, "s": args.s, "m": args.m, "h": args.h})
    _emit(rep, args.out)
    return 0 if rep["is_field"] else 1


def cmd_idealizer(args) -> int:
    ctx = _ctx_from_args(args)
    params = QuadParams(ctx, args.s, args.m, args.h)
    code = RankCode(build_quadrinomial(params))
    rep = {"schema_version": SCHEMA_VERSION, "kind": "idealizer",
           "q": ctx.q, "t": ctx.t, "s": args.s, "m": args.m, "h": args.h}
    if args.side in ("right", "both"):
        pairs = right_idealizer(code)
        rep["right_order"] = len(pairs)
        rep["right_sample"] = [list(p) for p in pairs[:8]]
    if args.side in ("left", "both"):
        pairs = left_idealizer(code)
        rep["left_order"] = len(pairs)
        rep["left_sample"] = [list(p) for p in pairs[:8]]
    _emit(rep, args.out)
    return 0


def cmd_equiv(args) -> int:
    ctx = _ctx_from_args(args)
    p1 = QuadParams(ctx, args.s, args.m, args.h)
    p2 = QuadParams(ctx, args.s2, args.m2, args.h2)
    rep = pair_report(p1, p2, require_large_t=not args.allow_small_t)
    rep.update({"schema_version": SCHEMA_VERSION, "kind": "equiv"})
    _emit(rep, args.out)
    return 0 if rep["agree"] else 1


def cmd_intn(args) -> int:
    ctx = _ctx_from_args(args)
    fam = {"psi": "quadrinomial"}.get(args.family, args.family)
    if fam != "quadrinomial" and (args.m, args.h) != (None, None):
        raise ValueError(f"--m and --h select a quadrinomial member, not the {fam} family")
    if fam != "lp" and args.delta is not None:
        raise ValueError(f"--delta is the lp coefficient, not a parameter of the {fam} family")
    member = {}
    if fam == "quadrinomial":
        m, h = args.m, args.h
        if (m is None) != (h is None):
            raise ValueError("--m and --h go together; give both or neither")
        if m is None:
            m, h = condition_pairs(ctx, args.s)[0]
        f = build_quadrinomial(QuadParams(ctx, args.s, m, h))
        member = {"m": m, "h": h}
    elif fam == "pseudoregulus":
        f = LinPoly.monomial(ctx, args.s, 1)
    elif fam == "lp":
        delta = args.delta if args.delta is not None else _lp_delta(ctx)
        f = LinPoly.from_terms(ctx, args.s, {1: 1, ctx.n - 1: delta})
    else:
        raise ValueError(f"unknown family {args.family}")
    gamma = polynomial_vertex(ctx, args.s, f)
    val = intersection_number(gamma)
    rep = {"schema_version": SCHEMA_VERSION, "kind": "intn", "q": ctx.q, "t": ctx.t,
           "s": args.s, "family": fam, **member, "vertex_dim": gamma.dim,
           "intersection_number": val}
    _emit(rep, args.out)
    return 0


def _lp_delta(ctx) -> int:
    for d in range(2, ctx.size):
        if ctx.norm_rel(d, 1) not in (0, 1):
            return d
    raise RuntimeError("no admissible binomial coefficient found")


def cmd_witness(args) -> int:
    ctx = _ctx_from_args(args)
    params = QuadParams(ctx, args.s, args.m, args.h)
    rep = {"schema_version": SCHEMA_VERSION, "kind": "witness", "q": ctx.q,
           "t": ctx.t, "s": args.s, "m": args.m, "h": args.h,
           "m_in_minus_power_set": bool(in_minus_power_set(ctx, args.s, args.m))}
    if not rep["m_in_minus_power_set"]:
        rep["witness"] = None
        _emit(rep, args.out)
        return 0
    w = nonscattered_witness(params)
    rep["witness"] = w
    rep["scattered"] = bool(is_scattered_fiber(build_quadrinomial(params)))
    _emit(rep, args.out)
    return 1 if rep["scattered"] else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_field_args(sp, with_s=True):
    sp.add_argument("--q", type=int, required=True, help="base field order (prime power)")
    sp.add_argument("--t", type=int, required=True, help="tower parameter, n = 2t")
    if with_s:
        sp.add_argument("--s", type=int, default=1, help="Frobenius step, coprime to 2t")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatlin",
        description="Scattered linearized polynomial verification suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="full (m, h) sweep with oracle verdicts")
    _add_field_args(sp)
    sp.add_argument("--all-s", action="store_true", help="sweep every coprime step")
    sp.add_argument("--h-dedup", action="store_true",
                    help="one h per base-field-scalar orbit")
    sp.add_argument("--no-witness", action="store_true")
    sp.add_argument("--csv", type=str, default=None, help="also write a CSV projection")
    _add_budget_arg(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("conjecture", help="scattered-vs-conditions scan, both orderings")
    _add_field_args(sp)
    sp.add_argument("--no-h-dedup", action="store_true")
    _add_budget_arg(sp)
    sp.set_defaults(func=cmd_conjecture)

    sp = sub.add_parser("props", help="structural property suite")
    _add_field_args(sp)
    sp.add_argument("--samples", type=_positive_int, default=200,
                    help="h values drawn for the structural statements above 3^6 "
                         "elements, at least 1 (default 200; smaller towers run exhaustively)")
    sp.set_defaults(func=cmd_props)

    sp = sub.add_parser("stabilizer", help="graph-subspace stabilizer")
    _add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.set_defaults(func=cmd_stabilizer)

    sp = sub.add_parser("idealizer", help="left/right idealizers of the span code")
    _add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--side", choices=["right", "left", "both"], default="both")
    sp.set_defaults(func=cmd_idealizer)

    sp = sub.add_parser("equiv", help="pairwise equivalence test with conditions")
    _add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.add_argument("--m2", type=int, required=True)
    sp.add_argument("--h2", type=int, required=True)
    sp.add_argument("--allow-small-t", action="store_true")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("intn", help="intersection number of a projection vertex")
    _add_field_args(sp)
    sp.add_argument("--family", choices=["pseudoregulus", "lp", "quadrinomial", "psi"],
                    required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--delta", type=int, default=None)
    sp.set_defaults(func=cmd_intn)

    sp = sub.add_parser("witness", help="constructive non-scatteredness witness")
    _add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.set_defaults(func=cmd_witness)

    for sp_obj in sub.choices.values():
        sp_obj.add_argument("--out", type=str, default=None)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser` once per process; each parse fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
