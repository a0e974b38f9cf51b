"""Source hygiene of the library: no runtime invariant rests on `assert`,
which `python -O` strips; invariants raise RuntimeError instead."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "scatlin").glob("*.py"))


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
