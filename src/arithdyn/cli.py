"""Command-line front end with JSON/CSV output and run manifests.

Every subcommand prints a JSON result on stdout (floats at 17 significant
digits, each numeric output next to its certified error bound where one
exists) and exits 0; domain errors, exceeded resource caps and non-finite
results print a JSON error object and exit 1; usage errors print the same
JSON error object and exit 2.  `--manifest PATH` additionally records the
command, arguments, seed, versions and wall time.  Given the same `--seed`,
CSV outputs are bit-identical across runs.

Each subcommand imports the layers it runs in its own body, so a process
that runs this module as a script (`python -m arithdyn.cli <cmd>`, or the
`arithdyn` script through `arithdyn.__main__`) loads only those: `height`
loads `projective`, `polyforms`, `numutil` and `errors`, and only the
commands that find roots or evaluate zeta load mpmath.  `csv` is imported
only by the commands that read or write CSV, and `build_parser` builds only
the subparser of the command that the command line names: the other
subparsers cost several ms of each process and parse nothing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .errors import (InconsistentResultError, InvalidInputError,
                     ResourceLimitError)

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


def _fmt(x):
    """17-significant-digit float formatting for reproducible output."""
    if isinstance(x, float):
        return float(f"{x:.17g}")
    return x


def _jsonable(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):   # not a NamedTuple record
        return [_jsonable(v) for v in obj]
    return obj


def parse_point(s):
    """'a/b' -> [a:b], 'inf' -> [1:0], 'a:b:c' -> P^k point."""
    from .projective import ProjPointQ
    s = s.strip()
    if s == "inf":
        return ProjPointQ((1, 0))
    if ":" in s:
        return ProjPointQ(tuple(s.split(":")))
    if "/" in s:
        a, b = s.split("/")
        return ProjPointQ((int(a), int(b)))
    return ProjPointQ((int(s), 1))


def parse_poly(s):
    from .polyforms import IntPoly
    return IntPoly(tuple(int(t) for t in s.split(",")))


def parse_map(s):
    """'{"d": 2, "U": [...], "V": [...]}' -> RationalMap, every key checked."""
    from .dynamics import RationalMap
    data = json.loads(s)
    if not isinstance(data, dict) or any(k not in data for k in "dUV"):
        raise InvalidInputError('a map is a JSON object with keys "d", "U", "V"')
    if not _is_int(data["d"]) or not all(
            isinstance(data[k], list) and all(_is_int(c) for c in data[k])
            for k in "UV"):
        raise InvalidInputError('"d" must be an integer, "U" and "V" integer '
                                'lists')
    return RationalMap.from_json(data)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _write_manifest(path, command, args_ns, t0, outputs):
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "arguments": {k: _jsonable(v) for k, v in vars(args_ns).items()
                      if k not in ("func",)},
        "seed": getattr(args_ns, "seed", None),
        "tolerances": {k: getattr(args_ns, k) for k in ("tol",)
                       if hasattr(args_ns, k)},
        "versions": {"arithdyn": __version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": _fmt(time.time() - t0),
        "outputs": _jsonable(outputs),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dumps(payload):
    """One line of strict JSON; a NaN or infinite value raises ValueError."""
    return json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

HEIGHT_PREC = 80   # the enclosure of log H is taken at scale 2^-80


def _log_error(H, h):
    """The least float >= |h - log H| for a float h."""
    from .numutil import error_around, log_bounds
    return error_around(h, *log_bounds(((1, H),), HEIGHT_PREC))


def cmd_height(args):
    x = parse_point(args.point)
    H, h = x.H(), x.height()
    return {"point": str(x), "H": H, "h": h, "error_bound": _log_error(H, h)}


def cmd_enumerate(args):
    import csv

    from .numutil import float_up
    from .projective import enumerate_points
    pts = enumerate_points(args.k, args.B)
    rows = [[*(str(c) for c in p.coords), str(p.H()), f"{p.height():.17g}"]
            for p in pts]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow([*(f"x{i}" for i in range(args.k + 1)), "H", "h"])
            w.writerows(rows)
    # the h column is math.log(H) written to 17 digits: bound the distance
    # of that decimal to log H, over the distinct H listed
    err = 0.0
    for H in {p.H() for p in pts}:
        h = math.log(H)
        written = abs(Fraction(f"{h:.17g}") - Fraction(h))
        err = max(err, float_up(Fraction(_log_error(H, h)) + written))
    return {"k": args.k, "B": args.B, "count": len(pts),
            "csv": args.out, "error_bound": err}


def cmd_schanuel(args):
    from .projective import schanuel_ratio
    ratio = schanuel_ratio(args.k, args.B)
    # one rounding to nearest of a value known to 30 digits
    return {"k": args.k, "B": args.B, "ratio": ratio,
            "error_bound": math.ulp(ratio)}


def cmd_mahler(args):
    from .algebraic import mahler_measure
    res = mahler_measure(parse_poly(args.poly), args.tol)
    measure, measure_error = res.measure, res.measure_error
    if not (math.isfinite(measure) and math.isfinite(measure_error)):
        measure = measure_error = None   # M beyond floats; log M still fits
    return {"measure": measure, "measure_error": measure_error,
            "log_measure": res.log_measure, "error_bound": res.error_bound,
            "archimedean_part": res.archimedean_part,
            "leading_coeff": res.leading_coeff}


def cmd_algheight(args):
    from .algebraic import (AlgebraicNumber, local_height_breakdown,
                            mahler_measure)
    from .numutil import float_up
    xi = AlgebraicNumber(parse_poly(args.poly))
    res = mahler_measure(xi.minpoly, args.tol)
    places = local_height_breakdown(xi, args.tol)
    d = xi.degree
    h = res.log_measure / d
    # the division rounds: add its error, exactly, to error_bound / d
    err = float_up(Fraction(res.error_bound) / d
                   + abs(Fraction(h) - Fraction(res.log_measure) / d))
    return {"minpoly": list(xi.minpoly.coeffs),
            "height": h,
            "mahler": res.measure if math.isfinite(res.measure) else None,
            "places": {str(k): v for k, v in places.items()},
            "error_bound": err}


def cmd_rou(args):
    from .algebraic import AlgebraicNumber, is_root_of_unity
    verdict = is_root_of_unity(AlgebraicNumber(parse_poly(args.poly)))
    return {"is_root_of_unity": verdict.is_root_of_unity,
            "order": verdict.order, "reason": verdict.reason}


def cmd_canheight(args):
    from .dynamics import canonical_height_global, canonical_height_local
    f = parse_map(args.map)
    x = parse_point(args.point)
    out = {"map": f.to_json(), "point": str(x), "tol": args.tol}
    if args.method in ("global", "both"):
        g = canonical_height_global(f, x, args.tol)
        out["global"] = {"value": g.value, "error": g.error,
                         "n_used": g.n_used,
                         "budget_exhausted": g.budget_exhausted}
    if args.method in ("local", "both"):
        led = canonical_height_local(f, x, args.tol)
        out["local"] = led.to_json()
    if args.method == "both":
        g, loc = out["global"], out["local"]
        out["gap"] = abs(g["value"] - loc["total"])
        # decided exactly: two disjoint certified enclosures prove a defect
        if abs(Fraction(g["value"]) - Fraction(loc["total"])) > \
                Fraction(g["error"]) + Fraction(loc["total_error"]):
            raise InconsistentResultError(
                f"the global enclosure {g['value']!r} +- {g['error']!r} and "
                f"the local one {loc['total']!r} +- {loc['total_error']!r} "
                "are disjoint")
    return out


def cmd_preperiodic(args):
    from .dynamics import preperiodic_points_rational
    f = parse_map(args.map)
    pts = preperiodic_points_rational(f)
    return {"map": f.to_json(),
            "points": [str(p) for p in pts], "count": len(pts)}


def cmd_goodred(args):
    from .dynamics import good_reduction_at
    f = parse_map(args.map)
    table = [{"p": p, "good": good_reduction_at(f, p)} for p in f.bad_primes]
    extra = [p for p in (2, 3, 5, 7, 11, 13) if p not in f.bad_primes]
    table += [{"p": p, "good": True} for p in extra]
    table.sort(key=lambda r: r["p"])
    return {"map": f.to_json(), "resultant": str(f.res),
            "bad_primes": list(f.bad_primes), "table": table}


JULIA_GRID_CAP = 2 ** 20  # largest julia-sample grid, nx * ny points


def cmd_julia_sample(args):
    import csv

    import numpy as np

    from .green import EscapeRateField, filled_julia_memberships
    if args.nx * args.ny > JULIA_GRID_CAP:
        raise ResourceLimitError(JULIA_GRID_CAP, f"a {args.nx} x {args.ny} "
                                 f"grid exceeds {JULIA_GRID_CAP} points")
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    res = [args.re0 + (args.re1 - args.re0) * j / max(args.nx - 1, 1)
           for j in range(args.nx)]
    ims = [args.im0 + (args.im1 - args.im0) * i / max(args.ny - 1, 1)
           for i in range(args.ny)]
    grid = np.empty((args.ny, args.nx), dtype=complex)  # row i has im[i]
    grid.real = res
    grid.imag = np.array(ims)[:, None]
    # a span that overflows makes coordinates nan; a modulus can overflow
    with np.errstate(over="ignore"):
        finite = np.all(np.isfinite(np.abs(grid)))
    if not finite:
        raise InvalidInputError("the grid's coordinates and their moduli "
                                "must be finite")
    labels = filled_julia_memberships(field, grid.ravel(), np.ones(grid.size))
    if args.out:
        points = itertools.product([f"{im:.17g}" for im in ims],
                                   [f"{re:.17g}" for re in res])
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["re", "im", "membership"])
            w.writerows([re, im, label]
                        for (im, re), label in zip(points, labels))
    return {"grid": [args.nx, args.ny], "counts": Counter(labels),
            "csv": args.out, "margin": field.certified_error()}


def cmd_tdiam(args):
    from .green import EscapeRateField, transfinite_diameter
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    res = transfinite_diameter(field, args.n, restarts=args.restarts,
                               seed=args.seed)
    return {"n": res.n, "delta_n": res.delta_n,
            "formula_value": res.formula_value,
            "converged": res.converged}


def cmd_discrepancy(args):
    from .algebraic import AlgebraicNumber
    from .green import (EscapeRateField, discrepancy,
                        height_discrepancy_terms)
    xi = AlgebraicNumber(parse_poly(args.poly))
    if args.map is None and args.power_d is None:
        raise InvalidInputError("give either --map or --power-d")
    if args.power_d is not None:
        d_inf, lhs, rhs, gap = height_discrepancy_terms(xi, args.power_d,
                                                        args.tol)
        return {"D_inf": d_inf, "lhs_height": lhs,
                "rhs_half_sum": rhs, "gap": gap, "power_d": args.power_d}
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    return {"D_inf": discrepancy(field, xi), "map": f.to_json()}


def _load_cloud(path):
    """Affine points of a CSV file of `re,im` rows; empty rows, and a
    header on line 1 (first field `re` or `x`), are skipped.  Any other row
    that does not hold two finite numbers raises InvalidInputError naming
    its line, and reading stops at the first point beyond PAIR_POINT_CAP."""
    import csv

    from .green import PAIR_POINT_CAP
    pts = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            for row in rows:
                if not row or (rows.line_num == 1 and
                               row[0].strip().lower() in ("re", "x")):
                    continue
                try:
                    re, im = map(float, row)
                except ValueError:   # not a number, or not two columns
                    re = im = math.nan
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise InvalidInputError(
                        f"{path} line {rows.line_num}: "
                        f"{','.join(row)[:40]!r} is not two finite numbers")
                pts.append(complex(re, im))
                if len(pts) > PAIR_POINT_CAP:
                    raise ResourceLimitError(
                        PAIR_POINT_CAP, f"{path} holds more than "
                        f"{PAIR_POINT_CAP} points, the point cap")
        except csv.Error as exc:
            raise InvalidInputError(
                f"{path} line {rows.line_num}: {exc}") from None
    return pts


def _pair_mean(mean, points):
    """(mean pairwise G or None, duplicates) for a payload: a repeated point
    makes the mean +inf, which is reported as null."""
    if len(set(points)) < len(points):
        return None, True
    if not math.isfinite(mean):
        raise InvalidInputError("the mean pairwise G of these points is "
                                "not finite in floats")
    return mean, False


def cmd_baker(args):
    from .green import EmpiricalMeasure, EscapeRateField, baker_mean_pairing
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    if args.roots_of_unity is not None:
        nu = EmpiricalMeasure.roots_of_unity(args.roots_of_unity)
        points = list(nu.points)
    else:
        points = _load_cloud(args.points_file)
    mean, duplicates = _pair_mean(baker_mean_pairing(field, points), points)
    n = len(points)
    # comparison constant c = 5 in -c log n / n, as in the Fekete check
    bound = -5 * math.log(n) / n
    return {"test": "baker", "n": n, "statistic": mean,
            "mean_pairwise_G": mean, "bound": bound,
            "pass": mean is not None and mean >= bound,
            "duplicates": duplicates}


def cmd_bilu(args):
    import csv

    from .algebraic import AlgebraicNumber
    from .green import EmpiricalMeasure, bilu_moment_test
    kind, _, spec = args.family.partition(":")
    if kind == "primitive":
        nu = EmpiricalMeasure.primitive_roots_of_unity(int(spec))
    elif kind == "all":
        nu = EmpiricalMeasure.roots_of_unity(int(spec))
    elif kind == "poly":
        nu = EmpiricalMeasure.from_algebraic(AlgebraicNumber(parse_poly(spec)))
    else:
        raise InvalidInputError(f"unknown family {args.family!r}")
    exps = [int(t) for t in args.exponents.split(",")]
    rep = bilu_moment_test(nu, exps)
    rows = [[str(a), f"{rep.moments[a]:.17g}"] for a in exps]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["exponent", "moment_magnitude"])
            w.writerows(rows)
    return {"family": args.family, "n": rep.n,
            "moments": {str(a): rep.moments[a] for a in exps},
            "excluded_points": rep.excluded, "csv": args.out}


def cmd_energy(args):
    from .green import EmpiricalMeasure, EscapeRateField, discrete_energy
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    pts = _load_cloud(args.cloud)
    nu = EmpiricalMeasure(pts)
    e, duplicates = _pair_mean(discrete_energy(field, nu), pts)
    return {"test": "energy", "n": len(nu), "statistic": e, "energy": e,
            "duplicates": duplicates}


def cmd_annulus(args):
    from .algebraic import AlgebraicNumber, mahler_measure
    from .green import annulus_mass_bound
    from .numutil import log_dyadic
    xi = AlgebraicNumber(parse_poly(args.poly))
    obs, bound = annulus_mass_bound(xi, args.r)
    # outside / d <= 2 max(log M, 0) / (d log r), times d 2^64 on exact
    # rationals: the count, the upper end of log M, an integer <= 2^64 log r
    m = mahler_measure(xi.minpoly, 1e-10)
    num, den = args.r.as_integer_ratio()
    ok = (Fraction(obs).limit_denominator(xi.degree) * xi.degree
          * log_dyadic(num, 1 - den.bit_length(), 64)[0]
          <= max(Fraction(m.log_measure) + Fraction(m.error_bound), 0) * 2 ** 65)
    return {"test": "annulus", "n": xi.degree, "r": args.r,
            "statistic": obs, "observed_outside_mass": obs, "bound": bound,
            "pass": ok, "satisfied": ok}


def _torus_coord_ok(item):
    if not isinstance(item, dict):
        return False
    if "rational" in item:
        return isinstance(item["rational"], str) or _is_int(item["rational"])
    cs = item.get("minpoly")
    return isinstance(cs, list) and all(map(_is_int, cs))


def _parse_torus_coords(s):
    from .algebraic import AlgebraicNumber
    from .polyforms import IntPoly
    from .torus import TorusPoint
    items = json.loads(s)
    if not isinstance(items, list) or not all(map(_torus_coord_ok, items)):
        raise InvalidInputError('coordinates are a JSON list of {"rational": '
                                '"a/b" or integer} or {"minpoly": [integers]} '
                                'objects')
    return TorusPoint([item["rational"] if "rational" in item
                       else AlgebraicNumber(IntPoly(item["minpoly"]))
                       for item in items])


def cmd_torus(args):
    from .algebraic import AlgebraicNumber
    from .torus import monomial_pushforward, subadditivity_check, torus_height
    if args.torus_op == "height":
        x = _parse_torus_coords(args.coords)
        return {"height": torus_height(x)}
    if args.torus_op == "push":
        x = _parse_torus_coords(args.coords)
        exps = [int(t) for t in args.exp.split(",")]
        res = monomial_pushforward(x, exps)
        return {"rational": None if res.rational is None else str(res.rational),
                "minpoly": res.minpoly and list(res.minpoly.coeffs),
                "height": res.height, "bound": res.bound,
                "cloud_size": None if res.cloud is None else len(res.cloud)}
    if args.torus_op == "subadd":
        def coord(s):
            if "," in s:
                return AlgebraicNumber(parse_poly(s))
            return s
        rep = subadditivity_check(coord(args.alpha), coord(args.beta))
        return {"h_alpha": rep.h_alpha, "h_beta": rep.h_beta,
                "h_product": rep.h_product, "holds": rep.holds,
                "note": rep.note}
    raise InvalidInputError(f"unknown torus op {args.torus_op!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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

    def add(name, fn, **kw):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    if p := add("height", cmd_height, help="naive height of a point"):
        p.add_argument("--point", required=True)

    if p := add("enumerate", cmd_enumerate,
                help="points of bounded height (CSV)"):
        p.add_argument("--k", type=_nonnegative_int, required=True)
        p.add_argument("--B", type=nonnegative_float, required=True,
                       help="log-height bound (H <= e^B)")
        p.add_argument("--out")

    if p := add("schanuel", cmd_schanuel, help="Schanuel count ratio"):
        p.add_argument("--k", type=_nonnegative_int, required=True)
        p.add_argument("--B", type=positive_float, required=True,
                       help="exponential height bound")

    if p := add("mahler", cmd_mahler, help="certified Mahler measure"):
        p.add_argument("--poly", required=True,
                       help="integer coefficients, low degree first, comma "
                            "separated (use --poly=-1,2 for a leading minus)")
        p.add_argument("--tol", type=positive_float, default=1e-12)

    if p := add("algheight", cmd_algheight,
                help="height with place breakdown"):
        p.add_argument("--poly", required=True)
        p.add_argument("--tol", type=positive_float, default=1e-12)

    if p := add("rou", cmd_rou,
                help="root-of-unity verdict with witness order"):
        p.add_argument("--poly", required=True)

    if p := add("canheight", cmd_canheight,
                help="canonical height of a point"):
        p.add_argument("--map", required=True,
                       help='{"d":2,"U":[...],"V":[...]}')
        p.add_argument("--point", required=True)
        p.add_argument("--tol", type=positive_float, default=1e-8)
        p.add_argument("--method", choices=("global", "local", "both"),
                       default="both")

    if p := add("preperiodic", cmd_preperiodic,
                help="rational preperiodic points"):
        p.add_argument("--map", required=True)

    if p := add("goodred", cmd_goodred, help="good-reduction prime table"):
        p.add_argument("--map", required=True)

    if p := add("julia-sample", cmd_julia_sample,
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

    if p := add("tdiam", cmd_tdiam,
                help="transfinite diameter via Fekete points"):
        p.add_argument("--map", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--restarts", type=int, default=32,
                       help="restarts + 1 pools of backward-orbit points; "
                            "power maps need none (the n-th roots of unity "
                            "are exact)")
        p.add_argument("--tol", type=positive_float, default=1e-10)

    if p := add("discrepancy", cmd_discrepancy,
                help="archimedean discrepancy; full identity for power maps"):
        p.add_argument("--poly", required=True)
        p.add_argument("--map")
        p.add_argument("--power-d", type=int, dest="power_d")
        p.add_argument("--tol", type=positive_float, default=1e-12)

    if p := add("baker", cmd_baker, help="mean pairwise G statistic"):
        p.add_argument("--map", required=True)
        points = p.add_mutually_exclusive_group(required=True)
        points.add_argument("--points-file", dest="points_file")
        points.add_argument("--roots-of-unity", dest="roots_of_unity",
                            type=int)
        p.add_argument("--tol", type=positive_float, default=1e-10)

    if p := add("bilu", cmd_bilu, help="monomial moments of an orbit family"):
        p.add_argument("--family", required=True,
                       help='"primitive:101", "all:64" or "poly:<coeffs>"')
        p.add_argument("--exponents", default="1,2,3,4,5")
        p.add_argument("--out")

    if p := add("energy", cmd_energy, help="discrete energy of a point cloud"):
        p.add_argument("--map", required=True)
        p.add_argument("--cloud", required=True, help='CSV of "re,im" rows')
        p.add_argument("--tol", type=positive_float, default=1e-10)

    if p := add("annulus", cmd_annulus, help="annulus mass lemma check"):
        p.add_argument("--poly", required=True)
        p.add_argument("--r", type=positive_float, required=True)

    if p := add("torus", cmd_torus, help="torus height subsuite"):
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
    args = build_parser(argv).parse_args(argv)
    t0 = time.time()
    try:
        payload = args.func(args)
        text = _dumps(payload)
    except (InvalidInputError, ValueError, ArithmeticError, OSError,
            RuntimeError) as exc:
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    print(text)
    if args.manifest:
        _write_manifest(args.manifest, args.command, args, t0, payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
