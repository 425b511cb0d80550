"""What a CLI process loads: each README example, run as `python -m
arithdyn.cli` in a fresh interpreter, imports only the arithdyn modules its
subcommand runs, and mpmath only where mp arithmetic runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arithdyn

SRC = str(Path(arithdyn.__file__).parents[1])
Z2P1 = '{"d":2,"U":[1,0,1],"V":[0,0,1]}'
POWER2 = '{"d":2,"U":[1,0,0],"V":[0,0,1]}'

EXACT = {"errors", "numutil", "polyforms"}
PROJECTIVE = EXACT | {"projective"}
DYNAMICS = PROJECTIVE | {"dynamics"}
ALGEBRAIC = EXACT | {"algebraic"}
GREEN = DYNAMICS | {"algebraic", "green"}   # with maps
MEASURES = ALGEBRAIC | {"green"}             # without maps
TORUS = ALGEBRAIC | {"torus"}

# (label, argv, arithdyn modules besides the package and cli, mpmath loaded):
# README's CLI examples, then five inputs that must be rejected; 15 of the 24
# load no mpmath
EXAMPLES = [
    ("canheight", ["canheight", "--map", Z2P1, "--point", "0/1", "--tol",
                   "1e-8", "--method", "both"], DYNAMICS, True),
    ("preperiodic", ["preperiodic", "--map", POWER2], DYNAMICS, False),
    ("mahler", ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"],
     ALGEBRAIC, True),
    ("height", ["height", "--point", "3:5:-7"], PROJECTIVE, True),
    ("enumerate", ["enumerate", "--k", "1", "--B", "2.3", "--out",
                   "points.csv"], PROJECTIVE, True),
    ("schanuel", ["schanuel", "--k", "1", "--B", "1000"], PROJECTIVE, True),
    ("algheight", ["algheight", "--poly=-2,0,0,1"], ALGEBRAIC, True),
    ("rou", ["rou", "--poly", "1,0,-1,0,1"], ALGEBRAIC, False),
    ("goodred", ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}'],
     DYNAMICS, False),
    ("julia-sample", ["julia-sample", "--map", Z2P1, "--out", "grid.csv"],
     GREEN, True),
    ("tdiam", ["tdiam", "--map", POWER2, "--n", "10"], GREEN, False),
    ("discrepancy", ["discrepancy", "--poly=-2,0,1", "--power-d", "2"],
     GREEN, True),
    ("baker", ["baker", "--map", POWER2, "--roots-of-unity", "64"], GREEN,
     False),
    ("bilu", ["bilu", "--family", "primitive:101", "--exponents",
              "1,2,3,4,5", "--out", "moments.csv"], MEASURES, False),
    ("energy", ["energy", "--map", POWER2, "--cloud", "cloud.csv"], GREEN,
     False),
    ("annulus", ["annulus", "--poly=-2,0,0,1", "--r", "1.5"], MEASURES,
     True),
    ("torus-height", ["torus", "height", "--coords",
                      '[{"rational":"2"},{"rational":"1/2"}]'], TORUS, False),
    ("torus-push", ["torus", "push", "--coords",
                    '[{"rational":"2"},{"rational":"3"}]', "--exp", "1,-1"],
     TORUS, False),
    ("torus-subadd", ["torus", "subadd", "--alpha", "2", "--beta", "3"],
     TORUS, False),
    ("reject-enumerate-B1000", ["enumerate", "--k", "1", "--B", "1000"],
     PROJECTIVE, False),
    ("reject-canheight-tol0", ["canheight", "--map", Z2P1, "--point", "0/1",
                               "--tol", "0"], {"errors"}, False),
    ("reject-canheight-noV", ["canheight", "--map", '{"d":2,"U":[1,0,1]}',
                              "--point", "0/1"], DYNAMICS, False),
    ("reject-annulus-nan", ["annulus", "--poly=-2,0,0,1", "--r", "nan"],
     {"errors"}, False),
    ("reject-julia-nx-5", ["julia-sample", "--map", Z2P1, "--nx", "-5"],
     {"errors"}, False),
]


# the child reports the modules loaded when it exits, however it exits
REPORT = ("import atexit, json, sys\n"
          "atexit.register(lambda: print(json.dumps(sorted(sys.modules)),\n"
          "                              file=sys.stderr))\n")
# what `python -m <module>` runs
AS_MAIN = "import runpy\nrunpy.run_module({!r}, run_name='__main__', " \
    "alter_sys=True)\n"


def _run(code, argv, cwd):
    """(exit code, stdout, modules loaded at exit) of a fresh interpreter
    that runs `code` with the arguments argv."""
    proc = subprocess.run([sys.executable, "-c", REPORT + code, *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    modules = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, proc.stdout, modules


def _loaded(modules):
    """(arithdyn submodules, mpmath loaded) among loaded module names."""
    return ({n.partition(".")[2] for n in modules
             if n.startswith("arithdyn.")}, "mpmath" in modules)


@pytest.mark.parametrize("label,argv,layers,mp", EXAMPLES,
                         ids=[e[0] for e in EXAMPLES])
def test_example_loads_only_its_layers(label, argv, layers, mp, tmp_path):
    (tmp_path / "cloud.csv").write_text(
        "re,im\n" + "".join(f"{math.cos(2 * math.pi * k / 8)!r},"
                            f"{math.sin(2 * math.pi * k / 8)!r}\n"
                            for k in range(8)))
    code, out, modules = _run(AS_MAIN.format("arithdyn.cli"), argv, tmp_path)
    payload = json.loads(out)
    if label.startswith("reject-"):
        assert code in (1, 2) and "error" in payload
    else:
        assert code == 0 and "error" not in payload
    assert _loaded(modules) == (layers, mp)


def test_bare_import_loads_no_submodule_and_no_mpmath(tmp_path):
    code, _, modules = _run("import arithdyn\n", [], tmp_path)
    assert code == 0 and "arithdyn" in modules
    assert _loaded(modules) == (set(), False)


def test_package_main_runs_the_cli_lazily(tmp_path):
    # `python -m arithdyn` and the `arithdyn` script run arithdyn.cli as the
    # main module, not as a library import that loads every layer
    code, out, modules = _run(AS_MAIN.format("arithdyn"),
                              ["rou", "--poly", "1,0,-1,0,1"], tmp_path)
    assert code == 0 and json.loads(out)["order"] == 12
    assert _loaded(modules) == (ALGEBRAIC, False)


def test_library_import_of_cli_loads_every_layer(tmp_path):
    # in-process callers of arithdyn.cli find every layer in sys.modules
    code, _, modules = _run("import arithdyn.cli\n", [], tmp_path)
    assert code == 0
    assert _loaded(modules) == (GREEN | TORUS | {"cli"}, False)


def test_every_exported_name_resolves():
    names = arithdyn.__all__
    assert len(names) == len(set(names)) == 65
    for name in names:
        value = getattr(arithdyn, name)
        assert value.__module__.startswith("arithdyn."), name
    assert set(names) <= set(dir(arithdyn))
    namespace = {}
    exec("from arithdyn import *", namespace)
    assert set(names) <= set(namespace)
    with pytest.raises(AttributeError):
        arithdyn.no_such_name
