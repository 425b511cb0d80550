"""Heights of algebraic numbers via Mahler measure and exact finite places.

An algebraic number is represented by its primitive squarefree minimal
polynomial; the height is (1/d) log M(P) with M evaluated by the Jensen
root-product formula on certified roots.  Finite-place contributions are
exact valuations of the leading coefficient, so the place decomposition sums
to the height up to the certified archimedean error alone.

Irreducibility is NOT verified (there is deliberately no factorization
engine here).  All formulas are evaluated on the full root multiset of the
given polynomial, which equals the intended quantity exactly when the input
is irreducible; shipped inputs are known irreducibles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mpm

from .errors import InvalidInputError, RepeatedRootError
from .numutil import factorize
from .polyforms import MP_PRECISION_LOCK, IntPoly, cyclotomic, euler_phi

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraicNumber:
    """Galois orbit of algebraic numbers, given by a primitive squarefree minpoly."""

    minpoly: IntPoly

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
        from .polyforms import complex_roots
        return complex_roots(self.minpoly, tol)


@dataclass(frozen=True)
class MahlerResult:
    measure: float
    log_measure: float
    error_bound: float
    archimedean_part: float  # sum of log max(1, |root|)
    leading_coeff: int


def mahler_measure(P: IntPoly, tol=DEFAULT_TOL):
    """M(P) = |a_0| prod max(1, |xi_i|) with a certified error bound.

    The error bound covers the root inclusion radii; log-max factors are
    bracketed by [max(1, |z|-r), max(1, |z|+r)] per root.
    """
    if P.is_zero():
        raise InvalidInputError("zero polynomial has no Mahler measure")
    P = P.primitive()
    if P.degree == 0:
        return MahlerResult(1.0, 0.0, 0.0, 0.0, 1)
    if not P.is_squarefree():
        raise RepeatedRootError(
            "non-squarefree input; take squarefree_part() first so root "
            "multiplicities are explicit")
    work = P
    root_tol = min(tol * 1e-2, 1e-13)
    zz, radii = work.certified_roots(root_tol)
    with MP_PRECISION_LOCK, mpm.workdps(40):
        lo = mpm.mpf(0)
        hi = mpm.mpf(0)
        for z, r in zip(zz, radii):
            a = abs(z)
            lo += mpm.log(max(1, a - r))
            hi += mpm.log(max(1, a + r))
        arch = (lo + hi) / 2
        err = float((hi - lo) / 2) + 1e-15
        log_m = mpm.log(abs(work.lead)) + arch
        return MahlerResult(float(mpm.exp(log_m)), float(log_m), err,
                            float(arch), int(work.lead))


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

    Complete because phi(m) >= sqrt(m/2) for every m, so phi(m) = d forces
    m <= 2 d^2.
    """
    return tuple(m for m in range(1, 2 * d * d + 1) if euler_phi(m) == d)


@dataclass(frozen=True)
class RootOfUnityVerdict:
    is_root_of_unity: bool
    order: int | None
    reason: str


def is_root_of_unity(xi: AlgebraicNumber, tol=DEFAULT_TOL):
    """Decide whether xi is a root of unity; returns the order as witness.

    Procedure: reject non algebraic integers, then certified root moduli
    must all be 1, then exact division of X^m - 1 by the minpoly for the
    finitely many m with phi(m) = deg(xi).
    """
    if not xi.is_algebraic_integer():
        return RootOfUnityVerdict(False, None, "not an algebraic integer")
    roots = xi.conjugates(min(tol, 1e-10))
    for rt in roots:
        if abs(abs(rt.value) - 1) > rt.radius + 1e-12:
            return RootOfUnityVerdict(False, None,
                                      "a conjugate has modulus != 1")
    d = xi.degree
    p = xi.minpoly if xi.minpoly.lead > 0 else -xi.minpoly
    for m in _phi_inverse(d):
        xm1 = IntPoly((-1,) + (0,) * (m - 1) + (1,))
        _, rem = xm1.divmod(p)
        if rem.is_zero():
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
