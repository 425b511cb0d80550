"""Heights on the split torus and monomial pushforwards.

A torus point is a tuple of nonzero coordinates, each an exact rational or
an AlgebraicNumber; its height is the sum of coordinate heights.  Monomial
maps z -> z_1^a_1 ... z_k^a_k push rational points forward exactly; for
algebraic coordinates the image is returned as the complex cloud of
conjugate products, with an exact product polynomial (built from
resultants) when the combined degree stays at or below 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebraic import AlgebraicNumber, height_algebraic
from .errors import InvalidInputError, ResourceLimitError
from .polyforms import IntPoly, resultant_univariate

if TYPE_CHECKING:   # only clouds of algebraic pushforwards need green
    from .green import EmpiricalMeasure

EXACT_PRODUCT_DEGREE_CAP = 16
CLOUD_POINT_CAP = 2 ** 20   # conjugate products in one pushforward cloud


def coordinate_height(c):
    if isinstance(c, AlgebraicNumber):
        return height_algebraic(c)
    q = Fraction(c)
    if q == 0:
        raise InvalidInputError("torus coordinates must be nonzero")
    return math.log(max(abs(q.numerator), q.denominator))


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple  # Fractions and/or AlgebraicNumbers, all nonzero

    def __init__(self, coords):
        clean = []
        for c in coords:
            if isinstance(c, AlgebraicNumber):
                if c.minpoly(0) == 0:
                    raise InvalidInputError("torus coordinates must be nonzero")
                clean.append(c)
            else:
                q = Fraction(c)
                if q == 0:
                    raise InvalidInputError("torus coordinates must be nonzero")
                clean.append(q)
        if not clean:
            raise InvalidInputError("torus point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(clean))

    @property
    def dim(self):
        return len(self.coords)


def torus_height(x: TorusPoint):
    """Sum of the coordinate heights."""
    return sum(coordinate_height(c) for c in x.coords)


# ---------------------------------------------------------------------------
# exact product polynomials via resultants
# ---------------------------------------------------------------------------

def _resultant_in_x(P, deg, q_at):
    """Res_y(P(y), q_at(x)(y)) as a polynomial in x of known degree `deg`.

    Evaluated at x = 0..deg and interpolated by Newton divided differences.
    """
    c = [Fraction(resultant_univariate(P, q_at(x))) for x in range(deg + 1)]
    for k in range(1, deg + 1):
        for i in range(deg, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / k
    poly = IntPoly((c[deg],))
    for i in range(deg - 1, -1, -1):
        poly = poly * IntPoly((-i, 1)) + IntPoly((c[i],))
    return poly


def _product_polynomial(coords, exponents):
    """Exact integer polynomial annihilating prod coord_i^a_i.

    alpha^a (a >= 2) is a root of Res_y(P(y), x - y^a), 1/alpha of the
    reversed P, and alpha beta of Res_y(P(y), y^n Q(x/y)); each resultant
    has known degree in x and a nonzero leading coefficient because torus
    coordinates are nonzero.  The result annihilates the value but may be
    reducible or non-squarefree; callers take the squarefree part.
    """
    acc = None
    for c, a in zip(coords, exponents):
        if a == 0:
            continue
        if isinstance(c, AlgebraicNumber):
            P = c.minpoly
        else:
            q = Fraction(c)
            P = IntPoly((-q.numerator, q.denominator))
        if a < 0:
            P, a = P.reversed(), -a
        if a > 1:
            P = _resultant_in_x(
                P, P.degree, lambda x: IntPoly((x,) + (0,) * (a - 1) + (-1,)))
        if acc is None:
            acc = P
        else:
            n = P.degree
            acc = _resultant_in_x(
                acc, acc.degree * n,
                lambda x: IntPoly([P[k] * x ** k for k in range(n, -1, -1)]))
    return acc.primitive()


@dataclass
class PushforwardResult:
    rational: Fraction | None       # exact value when all coordinates rational
    cloud: EmpiricalMeasure | None  # conjugate-product cloud otherwise
    minpoly: IntPoly | None         # exact annihilating polynomial if computed
    height: float | None            # exact/certified height when available
    bound: float                    # sum |a_i| max_i h(x_i)


def monomial_pushforward(x: TorusPoint, exponents):
    """Image of x under z -> prod z_i^(a_i), with the height bound report.

    Rational coordinates give the exact product; algebraic ones give the
    complex cloud of conjugate products (all mixed conjugate choices) plus,
    when the combined degree is at most 16, an exact annihilating
    polynomial whose squarefree part certifies the height.  The cloud has
    the product of the degrees as its size; ResourceLimitError when that
    exceeds CLOUD_POINT_CAP, before anything is computed.
    """
    a = tuple(int(e) for e in exponents)
    if len(a) != x.dim or all(e == 0 for e in a):
        raise InvalidInputError("exponent tuple must be nonzero, length k")
    total_deg = math.prod(c.degree for c, e in zip(x.coords, a)
                          if e and isinstance(c, AlgebraicNumber))
    if total_deg > CLOUD_POINT_CAP:
        raise ResourceLimitError(total_deg, f"a cloud of {total_deg} "
                                 f"conjugate products exceeds {CLOUD_POINT_CAP}")
    bound = sum(abs(e) for e in a) * max(coordinate_height(c) for c in x.coords)
    if all(isinstance(c, Fraction) for c in x.coords):
        val = Fraction(1)
        for c, e in zip(x.coords, a):
            val *= Fraction(c) ** e
        h = math.log(max(abs(val.numerator), val.denominator))
        return PushforwardResult(val, None, None, h, bound)

    # complex cloud over all conjugate combinations
    from .green import EmpiricalMeasure
    clouds = []
    for c, e in zip(x.coords, a):
        if e == 0:
            continue
        if isinstance(c, AlgebraicNumber):
            vals = [rt.value ** e for rt in c.conjugates()]
        else:
            vals = [complex(Fraction(c)) ** e]
        clouds.append(vals)
    prods = [1 + 0j]
    for vals in clouds:
        prods = [p * v for p in prods for v in vals]
    cloud = EmpiricalMeasure(prods)

    if total_deg <= EXACT_PRODUCT_DEGREE_CAP:
        poly = _product_polynomial(x.coords, a).squarefree_part()
        xi = AlgebraicNumber(poly)
        return PushforwardResult(None, cloud, poly, height_algebraic(xi), bound)
    return PushforwardResult(None, cloud, None, None, bound)


@dataclass
class SubadditivityReport:
    h_alpha: float
    h_beta: float
    h_product: float | None
    holds: bool | None
    note: str


def subadditivity_check(alpha, beta):
    """Check h(alpha beta) <= h(alpha) + h(beta).

    Exact for rationals; via the exact product polynomial for algebraic
    inputs of combined degree <= 16; skipped with a notice beyond that.
    """
    pt = TorusPoint((alpha, beta))
    ha = coordinate_height(pt.coords[0])
    hb = coordinate_height(pt.coords[1])
    res = monomial_pushforward(pt, (1, 1))
    if res.height is None:
        return SubadditivityReport(ha, hb, None, None,
                                   "combined degree exceeds the exact cap")
    slack = 1e-9
    return SubadditivityReport(ha, hb, res.height,
                               res.height <= ha + hb + slack, "checked")
