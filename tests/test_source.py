"""Checks on the library source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import arithdyn

SOURCES = sorted(Path(arithdyn.__file__).parent.glob("*.py"))
# the subcommand bodies, one module per layer
COMMANDS = sorted(Path(arithdyn.__file__).parent.glob("commands/*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"polyforms.py", "dynamics.py",
                                         "torus.py", "cli.py"}
    assert {p.name for p in COMMANDS} == {
        "__init__.py", "projective.py", "algebraic.py", "dynamics.py",
        "green.py", "torus.py"}


def test_no_assert_in_library_code():
    # `python -O` strips assert statements, so a certification invariant
    # guarded by one silently disappears; raise an explicit error instead.
    found = [f"{p.name}:{node.lineno}"
             for p in SOURCES + COMMANDS
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _name(expr):
    return getattr(expr, "id", getattr(expr, "attr", None))


def _changes_precision(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        return any(isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
                   and getattr(t.value, "attr", None) in ("iv", "mp")
                   for t in targets)
    return isinstance(node, ast.Call) \
        and _name(node.func) in ("workdps", "workprec")


def _precision_changes(tree, flagged=_changes_precision):
    """(locked, unlocked) line numbers of the nodes `flagged` accepts (by
    default every assignment to an mpmath `.iv`/`.mp` `prec` or `dps` and
    every `workdps`/`workprec` call), split by whether an enclosing `with`
    holds MP_PRECISION_LOCK by then."""
    out = ([], [])

    def visit(node, locked):
        if flagged(node):
            out[not locked].append(node.lineno)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:   # entered left to right
                visit(item.context_expr, locked)
                locked = locked or _name(item.context_expr) \
                    == "MP_PRECISION_LOCK"
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


def _is_libmp_log(node):
    """A call of an mpmath function that grows a module-level cache: libmp's
    logs and exponentials, and mpmath's log, exp and zeta."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in ("mpf_log", "mpf_exp")
    return isinstance(node.func, ast.Attribute) \
        and _name(node.func.value) in ("mpm", "mpmath", "libmp") \
        and node.func.attr in ("mpf_log", "mpf_exp", "log", "exp", "zeta")


def test_libmp_logs_hold_the_lock():
    # libmp grows its cache of log 2 without synchronization: a log taken
    # while another thread grows it can pair the old cache precision with
    # the new value and come out scaled by a power of two; zeta keeps its
    # coefficients the same way.  The library's logs are taken on integers
    # (numutil.log_dyadic), and so is zeta (numutil.zeta_dyadic): no such
    # call is left, locked or not
    found = []
    for p in SOURCES + COMMANDS:
        tree = ast.parse(p.read_text(), filename=str(p))
        ok, bad = _precision_changes(tree, _is_libmp_log)
        found += [f"{p.name}:{n}" for n in ok + bad]
    assert found == []


def test_libmp_log_check_flags_unlocked_logs():
    src = """
def f(x):
    a = mpf_log(x, 64, DOWN)
    with MP_PRECISION_LOCK:
        b = libmp.mpf_log(x, 64, UP)
        c = mpm.zeta(3)
    return math.log(a) + mpm.zeta(2)
"""
    assert _precision_changes(ast.parse(src), _is_libmp_log) == ([5, 6],
                                                                 [3, 7])


def _imported(tree):
    """Module names that a module's import statements name."""
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names]
    return modules + [n.module for n in ast.walk(tree)
                      if isinstance(n, ast.ImportFrom) and n.module]


def test_dynamics_leaves_mpmath_precision_alone():
    # the canonical-height kernels run on fixed-point integer intervals and
    # numutil closes them with logs taken on integers, projective takes zeta
    # on integers too, and algebraic multiplies the Mahler products on
    # integers from the exact centres of the root disks, so none of these
    # modules (nor cli and the command modules) imports mpmath, and none but
    # numutil, which defines it, names mpmath's global contexts or the lock
    paths = [p for p in SOURCES if p.name in ("dynamics.py", "numutil.py",
                                             "cli.py", "projective.py",
                                             "algebraic.py")]
    assert len(paths) == 5
    for path in paths + COMMANDS:
        name = str(path.relative_to(path.parents[1]))
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _precision_changes(tree) == ([], []), name
        assert not [m for m in _imported(tree)
                    if m.split(".")[0] == "mpmath"], name
        attrs = {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not attrs & {"iv", "mp", "workdps", "workprec", "libmp"}, name
        assert not names & {"mpm", "mpmath", "libmp"}, name
        if path.name != "numutil.py":    # numutil defines the lock
            assert "MP_PRECISION_LOCK" not in attrs | names, name


def _mpmath_imports(tree):
    """The innermost enclosing function (None at module level) of each
    import statement that names mpmath."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and [
                m for m in _imported(node) if m.split(".")[0] == "mpmath"]:
            out.append(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_only_the_root_sweeps_import_mpmath():
    # the radii, the disjointness test and the Mahler products run on
    # integers, so the one import of mpmath left is that of the mp Aberth
    # sweeps, in the body of roots.certified_roots_mp
    found = [(p.name, fn) for p in SOURCES + COMMANDS
             for fn in _mpmath_imports(ast.parse(p.read_text(),
                                                 filename=str(p)))]
    assert found == [("roots.py", "certified_roots_mp")]


def test_certified_root_path_loads_no_numpy():
    # the float pass runs on Python complex numbers and Mahler measures
    # take their products on integers, so no module of the root path
    # imports numpy or sets mpmath's precision outside the root finder
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES
             if p.name in ("polyforms.py", "roots.py", "algebraic.py")}
    assert len(trees) == 3
    for tree in trees.values():
        assert not [m for m in _imported(tree) if m.split(".")[0] == "numpy"]
    assert _precision_changes(trees["algebraic.py"]) == ([], [])
    assert _precision_changes(trees["polyforms.py"]) == ([], [])


def test_no_module_imports_dataclasses():
    # importing dataclasses costs about 13 ms of a CLI process (most of it
    # inspect), and each decorated class more, as exec of generated code;
    # value types derive from numutil.Value, records are NamedTuples
    found = []
    for p in SOURCES + COMMANDS:
        for n in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) \
                else [n.module] if isinstance(n, ast.ImportFrom) else []
            found += [f"{p.name}:{n.lineno}" for m in names
                      if m and m.split(".")[0] == "dataclasses"]
    assert found == []


def _definitions(tree):
    """Names bound at module level by def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return out


def test_shared_helpers_have_one_definition():
    # the lock, the value base, the memo, the upward rounding and Horner's
    # rule live in numutil; a second copy drifts from the first
    defined = {p.name: _definitions(ast.parse(p.read_text(), filename=str(p)))
               for p in SOURCES}
    for name in ("MP_PRECISION_LOCK", "Value", "kept_on_instance",
                 "float_up", "horner"):
        assert [m for m, names in defined.items() if name in names] \
            == ["numutil.py"], name
    assert not [m for m, names in defined.items()
                if {"_float_up", "_horner"} & set(names)]


def test_numutil_is_the_bottom_layer():
    path = next(p for p in SOURCES if p.name == "numutil.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [n.module for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.level > 0]
    absolute = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    absolute += [n.module for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.level == 0]
    assert local == ["errors"]
    assert not [m for m in absolute if m.split(".")[0] == "arithdyn"]


@pytest.mark.parametrize("name", [p.stem for p in SOURCES
                                  if p.stem != "__init__"]
                         + [f"commands.{p.stem}" for p in COMMANDS
                            if p.stem != "__init__"])
def test_each_module_imports_alone(name):
    # the package __init__ imports the modules in one fixed order, which can
    # hide an import cycle; a bare package lets this module load first
    package = Path(arithdyn.__file__).parent
    code = ("import sys, types\n"
            "pkg = types.ModuleType('arithdyn')\n"
            f"pkg.__path__ = [{str(package)!r}]\n"
            "pkg.__version__ = 'bare'   # cli reads it from the package\n"
            "sys.modules['arithdyn'] = pkg\n"
            f"import arithdyn.{name}\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
