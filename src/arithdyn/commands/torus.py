"""`torus height`, `torus push` and `torus subadd`: heights on G_m^k."""

import json

from ..errors import InvalidInputError
from . import _is_int, parse_poly


def _torus_coord_ok(item):
    if not isinstance(item, dict):
        return False
    if "rational" in item:
        return isinstance(item["rational"], str) or _is_int(item["rational"])
    cs = item.get("minpoly")
    return isinstance(cs, list) and all(map(_is_int, cs))


def _parse_torus_coords(s):
    from ..algebraic import AlgebraicNumber
    from ..polyforms import IntPoly
    from ..torus import TorusPoint
    items = json.loads(s)
    if not isinstance(items, list) or not all(map(_torus_coord_ok, items)):
        raise InvalidInputError('coordinates are a JSON list of {"rational": '
                                '"a/b" or integer} or {"minpoly": [integers]} '
                                'objects')
    return TorusPoint([item["rational"] if "rational" in item
                       else AlgebraicNumber(IntPoly(item["minpoly"]))
                       for item in items])


def cmd_torus(args):
    from ..algebraic import AlgebraicNumber
    from ..torus import monomial_pushforward, subadditivity_check, torus_height
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
            return AlgebraicNumber(parse_poly(s)) if "," in s else s
        rep = subadditivity_check(coord(args.alpha), coord(args.beta))
        return {"h_alpha": rep.h_alpha, "h_beta": rep.h_beta,
                "h_product": rep.h_product, "holds": rep.holds,
                "note": rep.note}
    raise InvalidInputError(f"unknown torus op {args.torus_op!r}")
