"""Command-line front end with JSON/CSV output and run manifests.

Every subcommand prints a JSON result on stdout (floats at 17 significant
digits, each numeric output next to its certified error bound where one
exists) and exits 0; domain errors, exceeded resource caps and non-finite
results print a JSON error object and exit 1; usage errors print the same
JSON error object and exit 2.  `--manifest PATH` additionally records the
command, arguments, seed, versions and wall time.  Given the same `--seed`,
CSV outputs are bit-identical across runs.

The subcommand bodies live in `arithdyn.commands`, one module per layer;
each subparser records its command's module, which `main` alone imports.
So a process that runs this module as a script (`python -m arithdyn.cli`,
or the `arithdyn` script) compiles one command module and loads only the
layers the command runs, and `build_parser` builds one subparser.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from importlib import import_module

from . import __version__
from .commands import _is_int, parse_map, parse_point, parse_poly  # noqa: F401
from .errors import InvalidInputError

# Imported as a library module, load every layer up front: in-process
# callers that wrap the layers' functions look them up in sys.modules right
# after `import arithdyn.cli`.
if __name__ != "__main__":
    from . import (algebraic, dynamics, green, numutil,  # noqa: F401
                   polyforms, projective, torus)


def load_schema(name):
    """Shipped JSON schema for a subcommand's stdout payload (or 'error',
    'manifest')."""
    from importlib import resources
    ref = resources.files("arithdyn") / "schemas" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _jsonable(obj):
    if isinstance(obj, float):   # 17 significant digits, reproducibly
        return float(f"{obj:.17g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):   # not a NamedTuple record
        return [_jsonable(v) for v in obj]
    return obj


def _write_manifest(path, argv, args_ns, t0, outputs):
    manifest = {
        "command": args_ns.command,
        "argv": argv,
        "arguments": {k: _jsonable(v) for k, v in vars(args_ns).items()
                      if k not in ("func",)},
        "seed": getattr(args_ns, "seed", None),
        "tolerances": {k: getattr(args_ns, k) for k in ("tol",)
                       if hasattr(args_ns, k)},
        "versions": {"arithdyn": __version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": _jsonable(time.time() - t0),
        "outputs": _jsonable(outputs),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dumps(payload):
    """One line of strict JSON; a NaN or infinite value raises ValueError."""
    return json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False)


class _JsonErrorParser(argparse.ArgumentParser):
    """Usage errors end like every other error: a JSON object, here exit 2."""

    def error(self, message):
        print(_dumps({"error": "UsageError",
                      "message": f"{self.prog}: {message}"}))
        sys.exit(2)


def _number(check, what, kind=float):
    def parse(s):
        try:
            x = kind(s)
            ok = math.isfinite(x) and check(x)
        except (ValueError, OverflowError):  # an int beyond float range
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{s!r} is not {what}")
        return x
    return parse


finite_float = _number(lambda x: True, "a finite number")
positive_float = _number(lambda x: x > 0, "a positive finite number")
nonnegative_float = _number(lambda x: x >= 0, "a nonnegative finite number")
positive_int = _number(lambda n: n >= 1, "a positive integer", int)
_nonnegative_int = _number(lambda n: n >= 0, "a nonnegative integer", int)


def _named_command(argv):
    """The first argument of argv after exact `--manifest`/`--seed` options
    and their values; None when an argument before it is any other option,
    an abbreviation or a value that starts with '-'."""
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--manifest", "--seed"):
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            i += 2
        elif arg.startswith(("--manifest=", "--seed=")):
            i += 1
        else:
            return None if arg.startswith("-") else arg
    return None


def build_parser(argv=None):
    """The parser of the command line argv (default sys.argv[1:]).

    It holds only the subparser of the command that argv names (see
    `_named_command`), since building all of them costs several ms of each
    process.  When argv names no command for certain (`-h`, no command, an
    unknown command, an abbreviated option) it holds every subparser.  The
    top-level options are the same either way, so every parse and every
    error is that of the full parser.
    """
    return _parser(_named_command(sys.argv[1:] if argv is None else argv))


def _parser(only):
    """The parser with the subparser `only`, or with every subparser when
    `only` is None or names no command."""
    ap = _JsonErrorParser(
        prog="arithdyn",
        description="heights and equidistribution statistics for arithmetic "
                    "dynamics on P^1")
    ap.add_argument("--manifest", help="write a run manifest JSON here")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized subcommands")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, module, **kw):   # body: commands.<module>.cmd_<name>
        if only not in (None, name):
            return None
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=(module, "cmd_" + name.replace("-", "_")))
        return p
    if p := add("height", "projective", help="naive height of a point"):
        p.add_argument("--point", required=True)
    if p := add("enumerate", "projective",
                help="points of bounded height (CSV)"):
        p.add_argument("--k", type=_nonnegative_int, required=True)
        p.add_argument("--B", type=nonnegative_float, required=True,
                       help="log-height bound (H <= e^B)")
        p.add_argument("--out")
    if p := add("schanuel", "projective", help="Schanuel count ratio"):
        p.add_argument("--k", type=_nonnegative_int, required=True)
        p.add_argument("--B", type=positive_float, required=True,
                       help="exponential height bound")
    if p := add("mahler", "algebraic", help="certified Mahler measure"):
        p.add_argument("--poly", required=True,
                       help="integer coefficients, low degree first, comma "
                            "separated (use --poly=-1,2 for a leading minus)")
        p.add_argument("--tol", type=positive_float, default=1e-12)
    if p := add("algheight", "algebraic",
                help="height with place breakdown"):
        p.add_argument("--poly", required=True)
        p.add_argument("--tol", type=positive_float, default=1e-12)
    if p := add("rou", "algebraic",
                help="root-of-unity verdict with witness order"):
        p.add_argument("--poly", required=True)
    if p := add("canheight", "dynamics",
                help="canonical height of a point"):
        p.add_argument("--map", required=True,
                       help='{"d":2,"U":[...],"V":[...]}')
        p.add_argument("--point", required=True)
        p.add_argument("--tol", type=positive_float, default=1e-8)
        p.add_argument("--method", choices=("global", "local", "both"),
                       default="both")
    if p := add("preperiodic", "dynamics",
                help="rational preperiodic points"):
        p.add_argument("--map", required=True)
    if p := add("goodred", "dynamics", help="good-reduction prime table"):
        p.add_argument("--map", required=True)
    if p := add("julia-sample", "green",
                help="filled-Julia membership on a grid (CSV)"):
        p.add_argument("--map", required=True)
        p.add_argument("--re0", type=finite_float, default=-2.0)
        p.add_argument("--re1", type=finite_float, default=2.0)
        p.add_argument("--im0", type=finite_float, default=-2.0)
        p.add_argument("--im1", type=finite_float, default=2.0)
        p.add_argument("--nx", type=positive_int, default=41)
        p.add_argument("--ny", type=positive_int, default=41)
        p.add_argument("--tol", type=positive_float, default=1e-9)
        p.add_argument("--out")
    if p := add("tdiam", "green",
                help="transfinite diameter via Fekete points"):
        p.add_argument("--map", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--restarts", type=int, default=32,
                       help="restarts + 1 pools of backward-orbit points; "
                            "power maps need none (the n-th roots of unity "
                            "are exact)")
        p.add_argument("--tol", type=positive_float, default=1e-10)
    if p := add("discrepancy", "green",
                help="archimedean discrepancy; full identity for power maps"):
        p.add_argument("--poly", required=True)
        p.add_argument("--map")
        p.add_argument("--power-d", type=int, dest="power_d")
        p.add_argument("--tol", type=positive_float, default=1e-12)
    if p := add("baker", "green", help="mean pairwise G statistic"):
        p.add_argument("--map", required=True)
        points = p.add_mutually_exclusive_group(required=True)
        points.add_argument("--points-file", dest="points_file")
        points.add_argument("--roots-of-unity", dest="roots_of_unity",
                            type=int)
        p.add_argument("--tol", type=positive_float, default=1e-10)
    if p := add("bilu", "green", help="monomial moments of an orbit family"):
        p.add_argument("--family", required=True,
                       help='"primitive:N" (the phi(N) primitive N-th roots '
                       'of unity), "all:N" or "poly:<coeffs>"')
        p.add_argument("--exponents", default="1,2,3,4,5")
        p.add_argument("--out")
    if p := add("energy", "green", help="discrete energy of a point cloud"):
        p.add_argument("--map", required=True)
        p.add_argument("--cloud", required=True, help='CSV of "re,im" rows')
        p.add_argument("--tol", type=positive_float, default=1e-10)
    if p := add("annulus", "algebraic", help="annulus mass lemma check"):
        p.add_argument("--poly", required=True)
        p.add_argument("--r", type=positive_float, required=True)
    if p := add("torus", "torus", help="torus height subsuite"):
        ops = p.add_subparsers(dest="torus_op", required=True)
        coords = dict(required=True, help="JSON coordinate descriptors")
        ops.add_parser("height").add_argument("--coords", **coords)
        q = ops.add_parser("push")
        q.add_argument("--coords", **coords)
        q.add_argument("--exp", required=True,
                       help="comma-separated exponents")
        q = ops.add_parser("subadd")
        q.add_argument("--alpha", required=True)
        q.add_argument("--beta", required=True)

    if only is not None and not sub.choices:   # `only` names no command
        return _parser(None)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    t0 = time.time()
    try:
        module, name = args.func
        payload = getattr(import_module(f".commands.{module}", __package__),
                          name)(args)
        text = _dumps(payload)
        if args.manifest:
            _write_manifest(args.manifest, argv, args, t0, payload)
    except (InvalidInputError, ValueError, ArithmeticError, OSError,
            RuntimeError) as exc:
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
