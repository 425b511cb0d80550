"""`canheight`, `preperiodic` and `goodred`: rational maps of P^1."""

from fractions import Fraction

from ..errors import InconsistentResultError
from . import parse_map, parse_point


def cmd_canheight(args):
    from ..dynamics import canonical_height_global, canonical_height_local
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
    from ..dynamics import preperiodic_points_rational
    f = parse_map(args.map)
    pts = preperiodic_points_rational(f)
    return {"map": f.to_json(),
            "points": [str(p) for p in pts], "count": len(pts)}


def cmd_goodred(args):
    from ..dynamics import good_reduction_at
    f = parse_map(args.map)
    table = [{"p": p, "good": good_reduction_at(f, p)} for p in f.bad_primes]
    extra = [p for p in (2, 3, 5, 7, 11, 13) if p not in f.bad_primes]
    table += [{"p": p, "good": True} for p in extra]
    table.sort(key=lambda r: r["p"])
    return {"map": f.to_json(), "resultant": str(f.res),
            "bad_primes": list(f.bad_primes), "table": table}
