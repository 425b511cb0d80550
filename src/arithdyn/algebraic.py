"""Heights of algebraic numbers via Mahler measure and exact finite places.

An algebraic number is represented by its primitive squarefree minimal
polynomial; the height is (1/d) log M(P) with M evaluated by the Jensen
root-product formula on certified roots.  Finite-place contributions are
exact valuations of the leading coefficient, so the place decomposition sums
to the height up to the certified archimedean error alone.

The root-of-unity test is exact: integer remainders of X^m modulo the
minpoly, no roots (Kronecker).  Irreducibility is NOT verified (there is deliberately no factorization
engine here).  All formulas are evaluated on the full root multiset of the
given polynomial, which equals the intended quantity exactly when the input
is irreducible; shipped inputs are known irreducibles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidInputError, RepeatedRootError
from .numutil import Value, factorize, is_prime, log_bounds, reported
from .polyforms import IntPoly, check_root_tol, complex_roots, cyclotomic

DEFAULT_TOL = 1e-12


class AlgebraicNumber(Value):
    """Galois orbit of algebraic numbers, given by a primitive squarefree minpoly."""

    _fields = ("minpoly",)

    def __init__(self, minpoly):
        p = minpoly.primitive()
        if p.degree < 1:
            raise InvalidInputError("minimal polynomial must be nonconstant")
        if not p.is_squarefree():
            raise RepeatedRootError(
                "minimal polynomial must be squarefree; use squarefree_part()")
        object.__setattr__(self, "minpoly", p)

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls(IntPoly((-q.numerator, q.denominator)))

    @property
    def degree(self):
        return self.minpoly.degree

    def is_algebraic_integer(self):
        return abs(self.minpoly.lead) == 1

    def conjugates(self, tol=DEFAULT_TOL):
        """Certified complex roots of the minimal polynomial."""
        return complex_roots(self.minpoly, tol)


class MahlerResult(NamedTuple):
    measure: float
    log_measure: float
    error_bound: float        # of log_measure
    archimedean_part: float   # sum of log max(1, |root|)
    leading_coeff: int
    measure_error: float


MAHLER_PREC = 128  # scale 2^-128 of the products and of their logs


def mahler_measure(P: IntPoly, tol=DEFAULT_TOL):
    """M(P) = |a_0| prod max(1, |xi_i|) with certified error bounds.

    The roots are those of P's primitive part; a_0 = `leading_coeff` is
    P's own, so M(c P) = |c| M(P).  Each root's factor lies in
    [max(1, |g| - r), max(1, |g| + r)] for its inclusion disk about the
    exact centre g = (X + i Y) / 2^P of radius r, with |g| from the integer
    square root of X^2 + Y^2.  The products of these ends, taken on
    integers at the scale 2^-MAHLER_PREC and rounded down and up, enclose
    the archimedean product; times |a_0|, exactly, they enclose M, and
    `numutil.log_bounds` encloses the logs of both ends on integers.
    `measure` and `log_measure` each come with the least float that bounds
    their distance to their enclosure (`numutil.reported`).  The disks have
    radii below min(tol / 100, 1e-13); a tol for which `check_root_tol`
    refuses that bound raises InvalidInputError before any other work.
    """
    root_tol = min(tol * 1e-2, 1e-13)
    check_root_tol(tol, root_tol)
    if P.is_zero():
        raise InvalidInputError("zero polynomial has no Mahler measure")
    Q = P.primitive()
    if Q.degree and not Q.is_squarefree():
        raise RepeatedRootError(
            "non-squarefree input; take squarefree_part() first so root "
            "multiplicities are explicit")
    bits, centres, radii = Q.certified_roots(root_tol) \
        if Q.degree else (0, (), ())
    prec = MAHLER_PREC
    one = 1 << prec
    lo = hi = one
    for (x, y), radius in zip(centres, radii):
        # |g| 2^prec = sqrt(n) 2^-bits: down and up are its floor and its
        # ceiling, and the float radius 2^prec is exact
        n = (x * x + y * y) << 2 * prec
        s = math.isqrt(n)
        down, up = s >> bits, -(-(s + (s * s < n)) >> bits)
        r = math.ceil(math.ldexp(radius, prec))
        lo = lo * max(one, down - r) >> prec
        hi = -(-hi * max(one, up + r) >> prec)
    lead = abs(P.lead)
    arch = log_bounds((), prec, (lo, hi), prec)
    # for |a_0| = 1 the logs of M are those of the archimedean product
    log_m, err = reported(*(arch if lead == 1 else log_bounds(
        (), prec, (lo * lead, hi * lead), prec)))
    measure, measure_err = reported(Fraction(lo * lead, one),
                                    Fraction(hi * lead, one))
    return MahlerResult(measure, log_m, err, reported(*arch)[0],
                        P.lead, measure_err)


def height_algebraic(xi: AlgebraicNumber, tol=DEFAULT_TOL):
    """h(xi) = (1/d) log M(minpoly)."""
    res = mahler_measure(xi.minpoly, tol)
    return res.log_measure / xi.degree


def local_height_breakdown(xi: AlgebraicNumber, tol=DEFAULT_TOL):
    """Per-place heights: h_p = (1/d) v_p(a_0) log p, h_inf from Mahler.

    Keys are primes (ints) and the string "inf"; values sum to h(xi) within
    the certified archimedean tolerance (the finite parts are exact).
    """
    d = xi.degree
    a0 = abs(xi.minpoly.lead)
    res = mahler_measure(xi.minpoly, tol)
    places = {p: e * math.log(p) / d for p, e in factorize(a0).items()}
    places["inf"] = res.archimedean_part / d
    return places


@lru_cache(maxsize=None)
def _phi_inverse(d):
    """All m with phi(m) = d, ascending.

    phi(m) is the product of p^(k-1) (p - 1) over the prime powers p^k || m,
    so every prime p dividing such an m has (p - 1) | d.  The m are built
    from those primes, each taken once in ascending order with every power
    whose phi still divides what is left of d.
    """
    small = [k for k in range(1, math.isqrt(d) + 1) if d % k == 0]
    divisors = sorted({*small, *(d // k for k in small)})
    primes = [k + 1 for k in divisors if is_prime(k + 1)]
    out = []

    def extend(m, rest, start):       # phi(m) * rest = d
        if rest == 1:
            out.append(m)
        for i in range(start, len(primes)):
            p = primes[i]
            if rest % (p - 1):
                continue
            q, pk = rest // (p - 1), p
            while True:
                extend(m * pk, q, i + 1)
                if q % p:
                    break
                q, pk = q // p, pk * p

    extend(1, d, 0)
    return tuple(sorted(out))


class RootOfUnityVerdict(NamedTuple):
    is_root_of_unity: bool
    order: int | None
    reason: str


def is_root_of_unity(xi: AlgebraicNumber):
    """Decide exactly whether xi is a root of unity; returns the order.

    A root of unity of order m is an algebraic integer of degree phi(m), so
    xi is one iff X^m = 1 modulo its monic minpoly for an m with phi(m) =
    deg(xi).  One pass of integer remainders X^k mod P serves every such m;
    no root is computed.
    """
    if not xi.is_algebraic_integer():
        return RootOfUnityVerdict(False, None, "not an algebraic integer")
    d = xi.degree
    low = xi.minpoly.coeffs[:-1]   # P = X^d + sum low[i] X^i (primitive: lead 1)
    one = [1] + [0] * (d - 1)
    rem, k = one, 0                # rem = X^k mod P, low degree first
    for m in _phi_inverse(d):
        while k < m:               # X rem, with X^d replaced by -low
            top = rem[-1]
            rem = [r - top * c for r, c in zip([0] + rem[:-1], low)]
            k += 1
        if rem == one:
            return RootOfUnityVerdict(True, m, f"minpoly divides X^{m} - 1")
    return RootOfUnityVerdict(False, None,
                              "no m with phi(m) = d gives divisibility")


def lehmer_bounds(d, c=None, eps=None):
    """Elementary lower bound 1/(4 e d^3) plus a Dobrowolski-shaped comparator.

    The second value is c / d^(1+eps) for caller-supplied (c, eps); no
    constant is claimed when they are omitted.
    """
    if d < 1:
        raise InvalidInputError("degree must be >= 1")
    elementary = 1.0 / (4 * math.e * d ** 3)
    dob = None
    if c is not None and eps is not None:
        dob = c / d ** (1 + eps)
    return elementary, dob


def cyclotomic_number(n):
    """The Galois orbit of primitive n-th roots of unity."""
    return AlgebraicNumber(cyclotomic(n))
