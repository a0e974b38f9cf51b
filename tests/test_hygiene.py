"""Source hygiene of the library: no runtime invariant rests on `assert`,
which `python -O` strips; invariants raise RuntimeError instead.  Only the
CLI imports `time`, so no library report can carry a wall clock.  Every
library name the benchmark in perfbench/ binds still exists.  Subfield
membership and digit sums are stated in `fieldcore` alone: no other module
compares a Frobenius image with its argument, and only the fused
elimination of `projgeom.FieldEchelon` sums DIGITS."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "scatlin").glob("*.py"))


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"quadrinomial.py", "sweep.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _offences(tree)] == []


def test_the_check_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n"
                     "raise RuntimeError('z')\n")
    assert [line for line, _ in _offences(tree)] == [1, 2, 3]


def _time_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "time" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "time" and not node.level:
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_clock_in_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: imports time" for line in _time_imports(tree)] == []


def test_the_clock_check_sees_every_form():
    tree = ast.parse("import time\nimport os, time as t\nfrom time import perf_counter\n"
                     "import timeit\nfrom .time import x\n")
    assert list(_time_imports(tree)) == [1, 2, 3]


def _field_facts(tree):
    """Frobenius fixed-point tests and DIGITS sums, outside class FieldEchelon."""
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.ClassDef) and node.name == "FieldEchelon":
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            sides = (node.left, node.comparators[0])
            for side, other in (sides, sides[::-1]):
                arg = None
                if isinstance(side, ast.Subscript) and "'FROB'" in ast.dump(side.value):
                    arg = side.slice
                elif (isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                      and side.func.attr in ("frob", "frob_vec") and side.args):
                    arg = side.args[0]
                if arg is not None and ast.dump(arg) == ast.dump(other):
                    yield node.lineno, "Frobenius fixed-point test"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sum" and "'DIGITS'" in ast.dump(node.func.value)):
            yield node.lineno, "DIGITS sum"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "fieldcore.py"],
                         ids=lambda p: p.name)
def test_field_facts_are_stated_in_fieldcore(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _field_facts(tree)] == []


def test_the_field_fact_check_sees_every_form():
    tree = ast.parse("ctx.FROB[d][x] == x\nh != ctx.FROB[1][h]\nctx.frob_vec(x, 3) == x\n"
                     "ctx.frob(y, 1) != y\nctx.DIGITS[a].sum(axis=0)\nctx.frob(y, 1) == z\n"
                     "class FieldEchelon:\n    ctx.DIGITS[a].sum(axis=0)\n")
    assert sorted(line for line, _ in _field_facts(tree)) == [1, 2, 3, 4, 5]


def test_quadrinomial_needs_no_digits_or_linear_algebra():
    source = (ROOT / "src" / "scatlin" / "quadrinomial.py").read_text()
    assert "gflinalg" not in source and "DIGITS" not in source


def _benchmark_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


# names the benchmark's workloads clear between runs
BENCHMARK_CACHES = (
    ("quadrinomial", "_POWER_SET_CACHE.clear"),
    ("sweep", "_FIBER_CACHE.clear"),
    ("fieldcore", "make_field.cache_clear"),
)


@pytest.mark.parametrize("module, path",
                         [(m, a) for _, m, a in _benchmark_layers()] + list(BENCHMARK_CACHES))
def test_benchmark_bindings_resolve(module, path):
    owner = importlib.import_module(f"scatlin.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
