"""What a CLI process loads and builds: each README example, run as
`python -m arithdyn.cli` in a fresh interpreter, imports the `commands`
package, its own command module and only the arithdyn modules its
subcommand runs, mpmath only where mp arithmetic runs and neither
`dataclasses` nor (without numpy) `inspect`; its parser holds only the
subparser of its command and parses as the full parser."""

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
PROJECTIVE = {"errors", "numutil", "projective"}   # no polyforms
DYNAMICS = EXACT | {"projective", "dynamics"}
ALGEBRAIC = EXACT | {"algebraic"}
GREEN = DYNAMICS | {"green"}                 # with maps, no algebraic
MEASURES = ALGEBRAIC | {"green"}             # without maps
TORUS = ALGEBRAIC | {"torus"}
ROOTS = ALGEBRAIC | {"roots"}                # finds certified roots
USAGE = {"errors", "commands"}               # what a usage error loads


def run(module, layers):
    """The modules of a process that runs a command of `commands.<module>`
    and the layers `layers`."""
    return layers | {"commands", f"commands.{module}"}


# (label, argv, arithdyn modules besides the package and cli, mpmath loaded):
# README's CLI examples, then five inputs that must be rejected; 20 of the 24
# load no mpmath
EXAMPLES = [
    ("canheight", ["canheight", "--map", Z2P1, "--point", "0/1", "--tol",
                   "1e-8", "--method", "both"], run("dynamics", DYNAMICS),
     False),
    ("preperiodic", ["preperiodic", "--map", POWER2],
     run("dynamics", DYNAMICS), False),
    ("mahler", ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"],
     run("algebraic", ROOTS), True),
    ("height", ["height", "--point", "3:5:-7"],
     run("projective", PROJECTIVE), False),
    ("enumerate", ["enumerate", "--k", "1", "--B", "2.3", "--out",
                   "points.csv"], run("projective", PROJECTIVE), False),
    ("schanuel", ["schanuel", "--k", "1", "--B", "1000"],
     run("projective", PROJECTIVE), False),
    ("algheight", ["algheight", "--poly=-2,0,0,1"], run("algebraic", ROOTS),
     True),
    ("rou", ["rou", "--poly", "1,0,-1,0,1"], run("algebraic", ALGEBRAIC),
     False),
    ("goodred", ["goodred", "--map", '{"d":2,"U":[1,0,0],"V":[0,0,2]}'],
     run("dynamics", DYNAMICS), False),
    ("julia-sample", ["julia-sample", "--map", Z2P1, "--out", "grid.csv"],
     run("green", GREEN), False),
    ("tdiam", ["tdiam", "--map", POWER2, "--n", "10"], run("green", GREEN),
     False),
    ("discrepancy", ["discrepancy", "--poly=-2,0,1", "--power-d", "2"],
     run("green", GREEN | {"algebraic", "roots"}), True),
    ("baker", ["baker", "--map", POWER2, "--roots-of-unity", "64"],
     run("green", GREEN), False),
    ("bilu", ["bilu", "--family", "primitive:101", "--exponents",
              "1,2,3,4,5", "--out", "moments.csv"], run("green", MEASURES),
     False),
    ("energy", ["energy", "--map", POWER2, "--cloud", "cloud.csv"],
     run("green", GREEN), False),
    ("annulus", ["annulus", "--poly=-2,0,0,1", "--r", "1.5"],
     run("algebraic", MEASURES | {"roots"}), True),
    ("torus-height", ["torus", "height", "--coords",
                      '[{"rational":"2"},{"rational":"1/2"}]'],
     run("torus", TORUS), False),
    ("torus-push", ["torus", "push", "--coords",
                    '[{"rational":"2"},{"rational":"3"}]', "--exp", "1,-1"],
     run("torus", TORUS), False),
    ("torus-subadd", ["torus", "subadd", "--alpha", "2", "--beta", "3"],
     run("torus", TORUS), False),
    ("reject-enumerate-B1000", ["enumerate", "--k", "1", "--B", "1000"],
     run("projective", PROJECTIVE), False),
    ("reject-canheight-tol0", ["canheight", "--map", Z2P1, "--point", "0/1",
                               "--tol", "0"], USAGE, False),
    ("reject-canheight-noV", ["canheight", "--map", '{"d":2,"U":[1,0,1]}',
                              "--point", "0/1"], run("dynamics", DYNAMICS),
     False),
    ("reject-annulus-nan", ["annulus", "--poly=-2,0,0,1", "--r", "nan"],
     USAGE, False),
    ("reject-julia-nx-5", ["julia-sample", "--map", Z2P1, "--nx", "-5"],
     USAGE, False),
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
    # dataclasses costs its import and inspect's; numpy imports inspect
    assert "dataclasses" not in modules
    assert ("inspect" in modules) == ("numpy" in modules)


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
    assert _loaded(modules) == (run("algebraic", ALGEBRAIC), False)


def test_library_import_of_cli_loads_every_layer(tmp_path):
    # in-process callers of arithdyn.cli find every layer in sys.modules;
    # the command modules load when main runs a command
    code, _, modules = _run("import arithdyn.cli\n", [], tmp_path)
    assert code == 0
    assert _loaded(modules) == (GREEN | TORUS | {"cli", "commands"}, False)


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


# argv that name a command after exact global options, then argv the
# parser falls back to the full tree for: no command, help, an unknown or
# abbreviated command, an abbreviated or unfinished global option, a value
# that starts with '-', and '--'
GLOBAL_FIRST = [
    ["--seed", "3", "tdiam", "--map", POWER2, "--n", "10"],
    ["--manifest", "run.json", "rou", "--poly", "1,0,-1,0,1"],
    ["--manifest=run.json", "--seed=5", "--seed", "7", "height", "--point",
     "3:5:-7"],
    ["--manifest", "height", "height", "--point", "1/2"],
    ["--seed", "x", "height", "--point", "1/2"],
    ["height", "--point", "1/2", "--seed", "3"],
    ["height"],
    ["height", "-h"],
    ["torus"],
    ["torus", "--help"],
    ["torus", "cube", "--coords", "[]"],
]
FALLBACK = [
    [],
    ["-h"],
    ["--help"],
    ["--seed", "3"],
    ["nosuch", "--point", "1/2"],
    ["heigh", "--point", "1/2"],
    ["--see", "3", "height", "--point", "1/2"],
    ["--man=run.json", "height", "--point", "1/2"],
    ["--seed", "-3", "height", "--point", "1/2"],
    ["--manifest"],
    ["--", "height", "--point", "1/2"],
    ["-x", "height", "--point", "1/2"],
]


def _parse(parser, argv, capsys):
    """(namespace as a dict, or the exit code of a parse that ends the
    process; stdout) of parser.parse_args(argv)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr().out


def _subcommands(parser):
    """Names of the subparsers the parser holds."""
    import argparse
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


@pytest.mark.parametrize("argv", [e[1] for e in EXAMPLES] + GLOBAL_FIRST
                         + FALLBACK, ids=[e[0] for e in EXAMPLES]
                         + [" ".join(a)[:40] for a in GLOBAL_FIRST + FALLBACK])
def test_one_subparser_parses_as_the_full_parser(argv, capsys):
    from arithdyn.cli import _parser, build_parser
    full = _parser(None)
    one = build_parser(argv)
    assert _parse(one, argv, capsys) == _parse(full, argv, capsys)
    held = _subcommands(one)
    if argv in FALLBACK:
        assert held == _subcommands(full) and len(held) == 17
    else:
        assert held == [next(a for a in argv if a in held)]


def test_main_exits_as_with_the_full_parser(capsys, monkeypatch):
    # exit code and stdout of whole runs, then of the same runs with the
    # full parser
    from arithdyn import cli

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    argvs = [["--seed", "3", "rou", "--poly", "1,0,-1,0,1"],
             ["rou", "--poly", "1,0,-1,0,1", "--tol", "1"], ["nosuch"],
             ["--seed", "-3", "rou", "--poly", "1,1"],
             ["mahler", "--poly", "0"]]
    runs = [run(argv) for argv in argvs]
    assert [code for code, _ in runs] == [0, 2, 2, 0, 1]
    monkeypatch.setattr(cli, "build_parser", lambda argv: cli._parser(None))
    assert [run(argv) for argv in argvs] == runs
