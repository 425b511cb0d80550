"""`mahler`, `algheight`, `rou` and `annulus`: algebraic numbers."""

import math
from fractions import Fraction

from . import parse_poly


def cmd_mahler(args):
    from ..algebraic import mahler_measure
    res = mahler_measure(parse_poly(args.poly), args.tol)
    measure, measure_error = res.measure, res.measure_error
    if not (math.isfinite(measure) and math.isfinite(measure_error)):
        measure = measure_error = None   # M beyond floats; log M still fits
    return {"measure": measure, "measure_error": measure_error,
            "log_measure": res.log_measure, "error_bound": res.error_bound,
            "archimedean_part": res.archimedean_part,
            "leading_coeff": res.leading_coeff}


def cmd_algheight(args):
    from ..algebraic import (AlgebraicNumber, local_height_breakdown,
                             mahler_measure)
    from ..numutil import float_up
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
    from ..algebraic import AlgebraicNumber, is_root_of_unity
    verdict = is_root_of_unity(AlgebraicNumber(parse_poly(args.poly)))
    return {"is_root_of_unity": verdict.is_root_of_unity,
            "order": verdict.order, "reason": verdict.reason}


def cmd_annulus(args):
    from ..algebraic import AlgebraicNumber, mahler_measure
    from ..green import annulus_mass_bound
    from ..numutil import log_dyadic
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
