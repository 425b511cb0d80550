"""Exact integer polynomial arithmetic and the entry points of the certified
root finder.

Univariate polynomials are dense tuples of ints, low degree first; their
gcds, resultants and discriminants come from one subresultant sequence over
Z, whose every division is exact.  Binary forms of degree d store the
coefficient of X^(d-i) Y^i at index i; their resultant and Nullstellensatz
cofactors are the determinant and adjugate columns of the Sylvester matrix,
from one fraction-free (Bareiss) elimination.  `certified_roots_mp` and
`complex_roots` hand their work to the module `roots` (Aberth-Ehrlich
iteration and Weierstrass inclusion disks), imported on the first solve: the
exact arithmetic loads neither it, nor numpy, nor mpmath.  The per-instance
memo and Horner's rule come from `numutil`, the layer below.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DegenerateMapError, InvalidInputError, RepeatedRootError
from .numutil import Value, horner, kept_on_instance


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly(Value):
    """Dense univariate polynomial over Z, coefficients low degree first.

    Coefficients are ints (InvalidInputError otherwise); exact constructors
    normalize nothing beyond trimming trailing zeros, so `primitive()` must
    be called where content-1 / positive-leading-coefficient form is
    required.  The squarefree test and the certified roots, once computed,
    are kept on the instance, outside `_fields`: equality, hashing and repr
    depend on the coefficients only.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = _trim(coeffs)
        if not all(isinstance(c, int) for c in coeffs):
            raise InvalidInputError("IntPoly coefficients must be integers")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k <= self.degree else 0

    @property
    def lead(self):
        if self.is_zero():
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        return horner(self.coeffs, x)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[k] + other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def content(self):
        """gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs)

    def primitive(self):
        """Content-1 integer polynomial with positive leading coefficient.

        Returns `self` when it already is one, so its kept roots carry over.
        """
        c = self.content()
        if self.coeffs and self.coeffs[-1] < 0:
            c = -c
        return self if c in (0, 1) else IntPoly([x // c for x in self.coeffs])

    def exact_div(self, other):
        """The quotient in Z[X], by integer long division; by Gauss's lemma
        it exists when a primitive `other` divides self over Q.  Raises
        InvalidInputError when other does not divide self in Z[X], even
        where it does over Q (2X + 4 by 4)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r, b, q = list(self.coeffs), other.coeffs, []
        for k in range(len(r) - len(b), -1, -1):    # the X^k term of q
            c, m = divmod(r[k + len(b) - 1], b[-1])
            if m:
                break
            q.append(c)
            r[k:k + len(b)] = [x - c * y for x, y in zip(r[k:], b)]
        if any(r):
            raise InvalidInputError("division is not exact in Z[X]")
        return IntPoly(q[::-1])

    def gcd(self, other):
        """The primitive part of the last nonzero subresultant remainder."""
        return IntPoly(_subresultants(self.coeffs, other.coeffs)[1]).primitive()

    @kept_on_instance
    def is_squarefree(self):
        return self.gcd(self.derivative()).degree == 0

    def squarefree_part(self):
        return self.exact_div(self.gcd(self.derivative())).primitive()

    def certified_roots(self, tol):
        """(P, centres, radii) of `certified_roots_mp`, kept on self: the
        exact centres as integer pairs (X, Y) at the scale 2^-P, and the
        float radii of their disks.

        A kept solve serves every request whose tolerance exceeds its
        largest radius, the test `certified_roots_mp` applies before it
        returns; a tighter request solves again and keeps the tighter
        result.  Two threads may both solve; either result is valid.
        """
        kept = self.__dict__.get("_roots")
        if kept is not None and max(kept[2], default=0.0) < tol:
            return kept
        P, centres, radii = certified_roots_mp(
            [Fraction(c) for c in self.coeffs], tol)
        solved = (P, tuple(centres), tuple(radii))
        kept = self.__dict__.get("_roots")
        if kept is None or max(radii, default=0.0) < max(kept[2], default=0.0):
            object.__setattr__(self, "_roots", solved)
        return solved

    def reversed(self):
        """X^d P(1/X); same Mahler measure as P."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def naive_height(self):
        return max(abs(c) for c in self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("X" if k == 1 else f"X^{k}")
            cs = "" if (abs(c) == 1 and k > 0) else str(abs(c))
            parts.append(("-" if c < 0 else ("+" if parts else "")) + cs + mono)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

class BinaryForm(Value):
    """Homogeneous form of degree d in X, Y; coeffs[i] multiplies X^(d-i) Y^i."""

    _fields = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise InvalidInputError("coefficient count must be degree + 1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __call__(self, x, y):
        """sum c_i x^(d-i) y^i from power tables of x and y, skipping zero
        coefficients; x, y may be ints, Fractions, mpmath numbers or
        numpy arrays."""
        d = self.degree
        xp, yp = [1], [1]
        for _ in range(d):
            xp.append(xp[-1] * x)
            yp.append(yp[-1] * y)
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * xp[d - i] * yp[i]
        return acc

    def content(self):
        nz = [abs(int(c)) for c in self.coeffs]
        return math.gcd(*nz) if nz else 0

    def compose(self, F, G):
        """Substitute X -> F, Y -> G; result has degree d*deg(F)."""
        if F.degree != G.degree:
            raise InvalidInputError("substituted forms must share a degree")
        d, e = self.degree, F.degree
        acc = None
        fp = [BinaryForm(0, (1,))]
        gp = [BinaryForm(0, (1,))]
        for _ in range(d):
            fp.append(_form_mul(fp[-1], F))
            gp.append(_form_mul(gp[-1], G))
        for i, c in enumerate(self.coeffs):
            term = _form_scale(_form_mul(fp[d - i], gp[i]), c)
            acc = term if acc is None else _form_add(acc, term)
        return acc

    def dehomogenized(self):
        """U(t, 1) as IntPoly (variable t = X/Y), low degree first."""
        return IntPoly(tuple(reversed(self.coeffs)))


def _form_mul(a, b):
    d = a.degree + b.degree
    out = [0] * (d + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return BinaryForm(d, out)


def _form_add(a, b):
    if a.degree != b.degree:
        raise InvalidInputError("cannot add forms of different degrees")
    return BinaryForm(a.degree, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def _form_scale(a, c):
    return BinaryForm(a.degree, tuple(c * x for x in a.coeffs))


# ---------------------------------------------------------------------------
# determinants, resultants, cofactors
# ---------------------------------------------------------------------------

def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an n x (n+e) integer matrix.

    Returns (det, cols): det is the determinant of the square part M and,
    when it is nonzero, cols[j] = adj(M) times extra column j (None when it
    is zero).  Every division is exact: after step k each entry is a
    (k+1) x (k+1) minor.  With no extra columns only the rows below the
    pivot are cleared, which is plain Bareiss.
    """
    m = [list(r) for r in rows]
    n, width = len(m), len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0, None
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, rk = m[k][k], m[k]
        for i in (range(n) if width > n else range(k + 1, n)):
            if i == k:
                continue
            ri, f = m[i], m[i][k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
        prev = pk
    # the square part is now prev * I and the extra columns are
    # prev * M^-1 b, where prev = sign * det(M)
    return sign * prev, [[sign * m[i][j] for i in range(n)]
                         for j in range(n, width)]


def _sylvester(p, q):
    """Matrix of (A, B) -> A U + B V on pairs of forms of degree d-1, for the
    coefficients p, q of forms U, V of degree d, monomial bases: row j holds
    the coefficient of X^(2d-1-j) Y^j, columns i and d + i the shifts of p
    and q by i."""
    d = len(p) - 1
    mat = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for k in range(d + 1):
            mat[i + k][i], mat[i + k][d + i] = p[k], q[k]
    return mat


def _check_equal_degrees(U, V):
    if U.degree != V.degree or U.degree < 1:
        raise InvalidInputError("resultant needs two forms of equal degree >= 1")


def resultant(U, V):
    """Sylvester-map determinant; zero iff U, V share a projective root."""
    _check_equal_degrees(U, V)
    return _bareiss(_sylvester(U.coeffs, V.coeffs))[0]


def nullstellensatz_cofactors(U, V):
    """Integer cofactors with A U + B V = Res(U,V) X^(2d-1) (and Y^(2d-1)).

    Returns (A_X, B_X, A_Y, B_Y, r).  By Cramer's rule the solution of the
    Sylvester system against r e_j is the adjugate column adj(M) e_j, so one
    fraction-free elimination of [M | e_0 | e_(2d-1)] gives r and both pairs.
    """
    _check_equal_degrees(U, V)
    d = U.degree
    n = 2 * d
    rows = [row + [int(i == 0), int(i == n - 1)]
            for i, row in enumerate(_sylvester(U.coeffs, V.coeffs))]
    r, cols = _bareiss(rows)
    if r == 0:
        raise DegenerateMapError("zero resultant: forms share a projective root")
    (ax, bx), (ay, by) = ((BinaryForm(d - 1, c[:d]), BinaryForm(d - 1, c[d:]))
                          for c in cols)
    return ax, bx, ay, by, r


def _prem(a, b):
    """The pseudo-remainder lead(b)^(deg a - deg b + 1) a mod b, for lists
    of ints low degree first with deg a >= deg b >= 1."""
    r = list(a)
    for _ in range(len(a) - len(b) + 1):
        c, off = r.pop(), len(r) - len(b) + 1
        r[:off] = [x * b[-1] for x in r[:off]]
        r[off:] = [x * b[-1] - c * y for x, y in zip(r[off:], b)]
    return list(_trim(r))


def _subresultants(a, b):
    """(Res(a, b), last nonzero remainder) of the subresultant PRS of int
    tuples a, b, low degree first; the remainder is a multiple of gcd(a, b).
    Each pseudo-remainder divides exactly by g h^delta; s and t carry the
    signs of the swaps and the contents (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971; Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 3.3.7)."""
    if not a or not b:
        return 0, a or b
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    A, B = [x // ca for x in a], [x // cb for x in b]
    s = 1
    if len(A) < len(B):
        A, B, s = B, A, (-1) ** ((len(A) - 1) * (len(B) - 1))
    g = h = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        s = -s if (len(A) - 1) * (len(B) - 1) % 2 else s
        div = g * h ** delta
        A, B = B, [x // div for x in _prem(A, B)]
        g = A[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    dA = len(A) - 1
    if dA:
        h = (B[-1] if B else 0) ** dA // h ** (dA - 1)
    return s * t * h, tuple(B or A)


def resultant_univariate(P, Q):
    """Classical Sylvester resultant of two IntPolys, by subresultants."""
    return _subresultants(P.coeffs, Q.coeffs)[0]


def discriminant(P):
    """Exact discriminant: (-1)^(d(d-1)/2) Res(P, P') / lead(P)."""
    d = P.degree
    if d < 2:
        raise InvalidInputError("discriminant needs degree >= 2")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant_univariate(P, P.derivative()) // P.lead


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def euler_phi(n):
    out, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n by exact division of X^n - 1 by Phi_m over proper divisors m | n."""
    if n < 1:
        raise InvalidInputError("cyclotomic index must be >= 1")
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for m in range(1, n):
        if n % m == 0:
            num = num.exact_div(cyclotomic(m))
    if num.degree != euler_phi(n):
        raise RuntimeError(f"Phi_{n} has degree {num.degree}, not phi({n})")
    return num


# ---------------------------------------------------------------------------
# p-adic valuations
# ---------------------------------------------------------------------------

def vp(q, p):
    """p-adic valuation of a rational; vp(0) is +infinity (not an error)."""
    if p < 2:
        raise InvalidInputError("p must be a prime")
    q = Fraction(q)
    if q == 0:
        return math.inf
    n = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        n += 1
    while den % p == 0:
        den //= p
        n -= 1
    return n


class PadicValuation(NamedTuple):
    """Typed (prime, valuation) pair; value None encodes +infinity."""

    prime: int
    value: object  # int or math.inf

    @classmethod
    def of(cls, q, p):
        return cls(p, vp(q, p))

    @property
    def is_infinite(self):
        return self.value == math.inf

    def absolute_value(self):
        return 0.0 if self.is_infinite else float(self.prime) ** (-self.value)


# ---------------------------------------------------------------------------
# certified complex roots
# ---------------------------------------------------------------------------

class CertifiedRoot(NamedTuple):
    value: complex
    radius: float


def check_root_tol(tol, radius_tol=None):
    """InvalidInputError unless `tol` is a positive number and the radius
    bound `radius_tol` it sets (tol itself by default) is finite and above
    2^-1074.  A certified radius is a float below that bound, so a bound at
    or below the least positive float could only be met by radius 0."""
    bound = tol if radius_tol is None else radius_tol
    if not tol > 0:
        raise InvalidInputError(f"tolerance {tol!r} is not a positive number")
    if not bound < math.inf:
        raise InvalidInputError(f"tolerance {tol!r} is not finite")
    if not bound > 2.0 ** -1074:
        raise InvalidInputError(
            f"tolerance {tol!r} asks for root radii below {bound!r}, which "
            "only radius 0 meets: the least positive float is 2^-1074")


def certified_roots_mp(coeffs, tol):
    """Aberth-Ehrlich with a posteriori Weierstrass disks.

    `coeffs` are exact Fractions low->high of a squarefree polynomial.
    Returns (P, centres, radii): the exact centre (X + i Y) / 2^P of each
    disk as the integer pair (X, Y), and its float radius rounded up.  The
    union of the disks contains all roots and the disks are pairwise
    disjoint, so each contains exactly one.  The solver lives in `roots`,
    loaded here on the first solve; `IntPoly.certified_roots` calls it
    through this name.  A tolerance that `check_root_tol` refuses raises
    InvalidInputError before any solve.
    """
    check_root_tol(tol)
    from . import roots
    return roots.certified_roots_mp(coeffs, tol)


def complex_roots(P, tol=1e-12):
    """Certified complex roots of a squarefree IntPoly, as `CertifiedRoot`
    records whose disks cover the float conversion (`roots.complex_roots`).

    Raises RepeatedRootError for non-squarefree input (deflate with
    P.exact_div(P.gcd(P.derivative())) and retry), and InvalidInputError
    first for a tolerance that `check_root_tol` refuses.
    """
    check_root_tol(tol)
    from . import roots
    return roots.complex_roots(P, tol)
