"""Checks on the library source itself."""

import ast
from pathlib import Path

import arithdyn

SOURCES = sorted(Path(arithdyn.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"polyforms.py", "dynamics.py",
                                         "torus.py", "cli.py"}


def test_no_assert_in_library_code():
    # `python -O` strips assert statements, so a certification invariant
    # guarded by one silently disappears; raise an explicit error instead.
    found = [f"{p.name}:{node.lineno}"
             for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
