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


def _precision_changes(tree):
    """(locked, unlocked) line numbers of every assignment to an mpmath
    `.iv`/`.mp` `prec` or `dps` and every `workdps`/`workprec` call, split
    by whether an enclosing `with` holds MP_PRECISION_LOCK by then."""
    out = ([], [])

    def is_lock(expr):
        return getattr(expr, "id", getattr(expr, "attr", None)) \
            == "MP_PRECISION_LOCK"

    def changes_precision(node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            return any(isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
                       and getattr(t.value, "attr", None) in ("iv", "mp")
                       for t in targets)
        if isinstance(node, ast.Call):
            fn = node.func
            return getattr(fn, "attr", getattr(fn, "id", None)) \
                in ("workdps", "workprec")
        return False

    def visit(node, locked):
        if changes_precision(node):
            out[not locked].append(node.lineno)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:   # entered left to right
                visit(item.context_expr, locked)
                locked = locked or is_lock(item.context_expr)
            for stmt in node.body:
                visit(stmt, locked)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    visit(tree, False)
    return out


def test_precision_changes_hold_the_lock():
    # mpmath keeps its precision in process-global contexts, so a change
    # made without MP_PRECISION_LOCK leaks into concurrent callers
    locked, unlocked = [], []
    for p in SOURCES:
        ok, bad = _precision_changes(ast.parse(p.read_text(), filename=str(p)))
        locked += [f"{p.name}:{n}" for n in ok]
        unlocked += [f"{p.name}:{n}" for n in bad]
    assert unlocked == []
    assert locked  # the library does change precision, under the lock


def test_precision_check_flags_unlocked_changes():
    src = """
import mpmath as mpm
def f():
    mpm.iv.prec = 80
    with mpm.workdps(30), MP_PRECISION_LOCK:
        pass
    with MP_PRECISION_LOCK, mpm.workprec(30):
        mpm.mp.dps += 5
    with other_lock:
        mpm.mp.prec = 53
"""
    locked, unlocked = _precision_changes(ast.parse(src))
    assert unlocked == [4, 5, 10]
    assert locked == [7, 8]
