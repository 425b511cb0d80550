"""`julia-sample`, `tdiam`, `discrepancy`, `baker`, `bilu`, `energy`."""

import itertools
import math
from collections import Counter

from ..errors import InvalidInputError, ResourceLimitError
from . import parse_map, parse_poly

JULIA_GRID_CAP = 2 ** 20  # largest julia-sample grid, nx * ny points


def cmd_julia_sample(args):
    import csv

    import numpy as np

    from ..green import EscapeRateField, filled_julia_memberships
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
    from ..green import EscapeRateField, transfinite_diameter
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    res = transfinite_diameter(field, args.n, restarts=args.restarts,
                               seed=args.seed)
    return {"n": res.n, "delta_n": res.delta_n,
            "formula_value": res.formula_value,
            "converged": res.converged}


def cmd_discrepancy(args):
    from ..algebraic import AlgebraicNumber
    from ..green import (EscapeRateField, discrepancy,
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

    from ..green import PAIR_POINT_CAP
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
    from ..green import EmpiricalMeasure, EscapeRateField, baker_mean_pairing
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

    from ..algebraic import AlgebraicNumber
    from ..green import EmpiricalMeasure, bilu_moment_test
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
            csv.writer(fh).writerows([["exponent", "moment_magnitude"], *rows])
    return {"family": args.family, "n": rep.n,
            "moments": {str(a): rep.moments[a] for a in exps},
            "excluded_points": rep.excluded, "csv": args.out}


def cmd_energy(args):
    from ..green import EmpiricalMeasure, EscapeRateField, discrete_energy
    f = parse_map(args.map)
    field = EscapeRateField(f, args.tol)
    pts = _load_cloud(args.cloud)
    nu = EmpiricalMeasure(pts)
    e, duplicates = _pair_mean(discrete_energy(field, nu), pts)
    return {"test": "energy", "n": len(nu), "statistic": e, "energy": e,
            "duplicates": duplicates}
