"""`height`, `enumerate` and `schanuel`: naive heights on P^k(Q)."""

import math
from fractions import Fraction

from . import parse_point

HEIGHT_PREC = 80   # the enclosure of log H is taken at scale 2^-80


def _log_error(H, h):
    """The least float >= |h - log H| for a float h."""
    from ..numutil import error_around, log_bounds
    return error_around(h, *log_bounds(((1, H),), HEIGHT_PREC))


def cmd_height(args):
    x = parse_point(args.point)
    H, h = x.H(), x.height()
    return {"point": str(x), "H": H, "h": h, "error_bound": _log_error(H, h)}


def cmd_enumerate(args):
    import csv

    from ..numutil import float_up
    from ..projective import enumerate_points
    pts = enumerate_points(args.k, args.B)
    rows = [[*(str(c) for c in p.coords), str(p.H()), f"{p.height():.17g}"]
            for p in pts]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [[*(f"x{i}" for i in range(args.k + 1)), "H", "h"], *rows])
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
    from ..projective import schanuel_ratio
    ratio = schanuel_ratio(args.k, args.B)
    # the float nearest an enclosure far narrower than an ulp
    return {"k": args.k, "B": args.B, "ratio": ratio,
            "error_bound": math.ulp(ratio)}
