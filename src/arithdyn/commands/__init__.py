"""The CLI subcommand bodies, one module per layer, and their shared input
parsers.  The bodies import their layers when they run, so they call what
in-process callers (the benchmark's traced runs) wrapped there.  Nothing
here imports `arithdyn.cli`, which `python -m arithdyn.cli` runs as
`__main__`: it would compile again and, as a library, load every layer."""

import json

from ..errors import InvalidInputError


def parse_point(s):
    """'a/b' -> [a:b], 'inf' -> [1:0], 'a:b:c' -> P^k point."""
    from ..projective import ProjPointQ
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
    from ..polyforms import IntPoly
    return IntPoly(tuple(int(t) for t in s.split(",")))


def parse_map(s):
    """'{"d": 2, "U": [...], "V": [...]}' -> RationalMap, every key checked."""
    from ..dynamics import RationalMap
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
