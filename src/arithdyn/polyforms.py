"""Exact integer/rational polynomial arithmetic and a certified root finder.

Univariate polynomials are dense coefficient tuples, low degree first, over
Python ints or Fractions.  Binary forms of degree d store the coefficient of
X^(d-i) Y^i at index i.  Resultants are Sylvester-map determinants and the
Nullstellensatz cofactors adjugate columns of the same matrix, both from one
fraction-free (Bareiss) elimination, so every resultant and cofactor is an
exact integer.  The root finder runs one Aberth-Ehrlich sweep function
twice: a float pass on Python complex numbers, from a circle, until its
corrections fall below a few ulps, then an mp pass on mpmath numbers from
the float pass's iterates (from the Cauchy circle when a coefficient does
not fit a float or the float iterates end non-finite or coincident).  The
mp pass doubles precision until a posteriori Weierstrass inclusion disks,
widened by a bound on the rounding of p(z), are pairwise disjoint and
smaller than the requested tolerance.  No numpy, and mpmath only inside the
mp pass (`certified_roots_mp` and its helpers import it), so resultants,
cofactors and the other exact arithmetic load neither.  The mpmath lock,
the per-instance memo, Horner's rule and the upward rounding come from
`numutil`, the layer below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateMapError, InvalidInputError, RepeatedRootError
from .numutil import MP_PRECISION_LOCK, float_up, horner, kept_on_instance


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial, coefficients low degree first.

    Coefficients may be ints or Fractions; exact constructors normalize
    nothing beyond trimming trailing zeros, so `primitive()` must be called
    where content-1 / positive-leading-coefficient form is required.  The
    squarefree test and the certified roots, once computed, are kept on the
    instance (not fields).
    """

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

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
        if isinstance(other, (int, Fraction)):
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
        """gcd of the coefficients (of numerators/denominators for Fractions)."""
        if self.is_zero():
            return 0
        if any(isinstance(c, Fraction) for c in self.coeffs):
            den = math.lcm(*(Fraction(c).denominator for c in self.coeffs))
            num = math.gcd(*(int(Fraction(c) * den) for c in self.coeffs))
            return Fraction(num, den)
        return math.gcd(*(abs(int(c)) for c in self.coeffs))

    def primitive(self):
        """Content-1 integer polynomial with positive leading coefficient.

        Returns `self` when it already is one, so its kept roots carry over.
        """
        if self.is_zero():
            return self
        if (all(type(c) is int for c in self.coeffs) and self.coeffs[-1] > 0
                and math.gcd(*self.coeffs) == 1):
            return self
        c = self.content()
        cs = [Fraction(x) / c for x in self.coeffs]
        if any(f.denominator != 1 for f in cs):
            raise RuntimeError("content does not divide every coefficient")
        cs = [int(f) for f in cs]
        if cs[-1] < 0:
            cs = [-x for x in cs]
        return IntPoly(cs)

    def divmod(self, other):
        """Exact division with remainder over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(self.degree - other.degree + 1, 1)
        r = [Fraction(c) for c in self.coeffs]
        db, lb = other.degree, Fraction(other.lead)
        while len(r) - 1 >= db and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < db:
                break
            t = r[-1] / lb
            k = len(r) - 1 - db
            q[k] = t
            for i, b in enumerate(other.coeffs):
                r[k + i] -= t * Fraction(b)
        return IntPoly(q), IntPoly(r)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InvalidInputError("division is not exact")
        return IntPoly([int(c) if Fraction(c).denominator == 1 else c
                        for c in q.coeffs])

    def gcd(self, other):
        """Monic gcd over Q, returned as a primitive integer polynomial."""
        a, b = self, other
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r
        if a.is_zero():
            return a
        den = math.lcm(*(Fraction(c).denominator for c in a.coeffs))
        return IntPoly([int(Fraction(c) * den) for c in a.coeffs]).primitive()

    @kept_on_instance
    def is_squarefree(self):
        if self.degree <= 0:
            return not self.is_zero()
        return self.gcd(self.derivative()).degree == 0

    def squarefree_part(self):
        g = self.gcd(self.derivative())
        if g.degree == 0:
            return self.primitive()
        return self.exact_div(g).primitive()

    def certified_roots(self, tol):
        """(mpc values, float radii) of `certified_roots_mp`, kept on self.

        A kept solve serves every request whose tolerance exceeds its
        largest radius, the test `certified_roots_mp` applies before it
        returns; a tighter request solves again and keeps the tighter
        result.  Two threads may both solve; either result is valid.
        """
        kept = self.__dict__.get("_roots")
        if kept is not None and max(kept[1], default=0.0) < tol:
            return kept
        zz, radii = certified_roots_mp([Fraction(c) for c in self.coeffs], tol)
        solved = (tuple(zz), tuple(radii))
        kept = self.__dict__.get("_roots")
        if kept is None or max(radii, default=0.0) < max(kept[1], default=0.0):
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

@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of degree d in X, Y; coeffs[i] multiplies X^(d-i) Y^i."""

    degree: int
    coeffs: tuple

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
        zero = BinaryForm(0, (0,))
        acc = None
        fp = [BinaryForm(0, (1,))]
        gp = [BinaryForm(0, (1,))]
        for _ in range(d):
            fp.append(_form_mul(fp[-1], F))
            gp.append(_form_mul(gp[-1], G))
        for i, c in enumerate(self.coeffs):
            term = _form_scale(_form_mul(fp[d - i], gp[i]), c)
            acc = term if acc is None else _form_add(acc, term)
        if acc.degree != d * e:
            acc = BinaryForm(d * e, tuple(acc.coeffs) + (0,) * (d * e - acc.degree))
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
    """Sylvester matrix of high-first coefficient lists of degrees m and n.

    Row j holds the coefficient of X^(m+n-1-j) (times Y^j for forms);
    columns 0..n-1 hold the shifts of p, columns n..n+m-1 those of q.  For
    forms U, V of degree d this is the matrix of (A, B) -> A U + B V on
    pairs of degree d-1, monomial bases.
    """
    m, n = len(p) - 1, len(q) - 1
    mat = [[0] * (m + n) for _ in range(m + n)]
    for i in range(n):
        for k, c in enumerate(p):
            mat[i + k][i] = c
    for i in range(m):
        for k, c in enumerate(q):
            mat[i + k][n + i] = c
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


def resultant_univariate(P, Q):
    """Classical Sylvester resultant of two IntPolys (exact integer)."""
    m, n = P.degree, Q.degree
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return P.lead ** n
    if n == 0:
        return Q.lead ** m
    return _bareiss(_sylvester(P.coeffs[::-1], Q.coeffs[::-1]))[0]


def discriminant(P):
    """Exact discriminant: (-1)^(d(d-1)/2) Res(P, P') / lead(P)."""
    d = P.degree
    if d < 2:
        raise InvalidInputError("discriminant needs degree >= 2")
    res = resultant_univariate(P, P.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val = Fraction(sign * res, P.lead)
    return int(val) if val.denominator == 1 else val


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


@dataclass(frozen=True)
class PadicValuation:
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

@dataclass(frozen=True)
class CertifiedRoot:
    value: complex
    radius: float


ABERTH_SWEEPS = 120   # sweeps per Aberth pass, float or mp


def _circle(d):
    """d unit complex numbers at angles 2 pi (k + 1/4) / d."""
    return [complex(math.cos(2 * math.pi * (k + 0.25) / d),
                    math.sin(2 * math.pi * (k + 0.25) / d)) for k in range(d)]


def _aberth(cs, zz, eps, stall):
    """Aberth-Ehrlich sweeps on the monic polynomial with coefficients `cs`
    (low degree first), updating the iterates `zz` in place, in whatever
    arithmetic they carry: Python complex or mpc.

    Each sweep updates the iterates one at a time, p and p' from one Horner
    loop.  An iterate is left where it is, its last correction not applied,
    once that correction is at most eps (1 + |z|), or at most
    stall (1 + |z|) without having halved since the sweep before: an
    ill-conditioned root that stalls at rounding noise.  The pass ends when
    every iterate is left, or after ABERTH_SWEEPS sweeps.  Returns p at each
    final iterate, None for those still moving when the sweeps ran out.
    """
    lead, head = cs[-1], cs[-2::-1]
    values = [None] * len(zz)
    last = [math.inf] * len(zz)
    live = range(len(zz))
    for _ in range(ABERTH_SWEEPS):
        moving = []
        for i in live:
            z = zz[i]
            p, dp = lead, 0
            for c in head:
                dp = dp * z + p
                p = p * z + c
            if dp == 0:   # step off a critical point
                zz[i] = z + eps * (1 + abs(z))
                moving.append(i)
                continue
            nwt = p / dp
            s = 0
            for w in zz[:i]:
                s += 1 / (z - w)
            for w in zz[i + 1:]:
                s += 1 / (z - w)
            den = 1 - nwt * s
            corr = nwt if den == 0 else nwt / den
            step = abs(corr)
            if step > eps:
                scale = 1 + abs(z)
                if step > eps * scale and (step > stall * scale
                                           or 2 * step < last[i]):
                    zz[i] = z - corr
                    last[i] = step
                    moving.append(i)
                    continue
            values[i] = p
        if not moving:
            break
        live = moving
    return values


def _float_start(monic):
    """The float Aberth pass: iterates in Python complex, from the circle of
    radius |a_0|^(1/d) (the roots' geometric mean modulus) until the
    corrections fall below four ulps.  None, for the Cauchy circle instead,
    when a coefficient of the monic `monic` (Fractions) does not fit a float
    or the iterates end non-finite or coincident."""
    d = len(monic) - 1
    try:
        cs = [float(c) for c in monic]
        radius = abs(cs[0]) ** (1 / d) or 1.0
        zz = [radius * w for w in _circle(d)]
        _aberth(cs, zz, 2.0 ** -50, 2.0 ** -25)
    except (OverflowError, ZeroDivisionError):
        return None
    if all(map(cmath.isfinite, zz)) and len(set(zz)) == d:
        return zz
    return None


def _mpc_poly(coeffs):
    import mpmath as mpm
    return [mpm.mpf(c.numerator) / mpm.mpf(c.denominator) for c in coeffs]


MODULUS_BITS = 64   # fixed-point scale 2^P of _modulus_sum_up


def _fixed_up(x, P):
    """ceil(x 2^P) for a raw libmp mpf x >= 0."""
    _, man, exp, _ = x
    return man << (exp + P) if exp + P >= 0 else -(-man >> -(exp + P))


def _modulus_sum_up(moduli, z):
    """An mpf >= sum_k |c_k| |z|^k for moduli[k] = _fixed_up(|c_k|, P),
    low degree first: Horner on integers at the scale 2^P, P =
    MODULUS_BITS, each step rounded up."""
    import mpmath as mpm
    from mpmath.libmp import mpf_add, mpf_mul
    P = MODULUS_BITS
    re, im = z._mpc_
    n = _fixed_up(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), 2 * P)
    r = math.isqrt(n)
    r += r * r < n        # r >= |z| 2^P
    acc = 0
    for m in reversed(moduli):
        acc = -(-acc * r >> P) + m
    return mpm.ldexp(acc, -P)


def certified_roots_mp(coeffs, tol):
    """Aberth-Ehrlich with a posteriori Weierstrass disks.

    `coeffs` are exact Fractions low->high of a squarefree polynomial.
    Returns (list of mpc, list of float radii rounded up); union of the
    returned disks contains all roots and disks are pairwise disjoint, so
    each contains exactly one.  The mp pass starts from the float pass of
    `_float_start`, or from the Cauchy circle when that has none, and each
    rung of the precision ladder from the iterates of the one before.
    """
    import mpmath as mpm
    from mpmath.libmp import mpf_abs
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    zz = _float_start(monic)
    dps = max(30, int(-math.log10(tol)) + 15)
    for _ in range(8):
        with MP_PRECISION_LOCK, mpm.workdps(dps):
            cs = _mpc_poly(monic)
            if zz is None:   # the Cauchy circle
                radius = 1 + max(abs(c) for c in cs[:-1])
                zz = [radius * w for w in _circle(d)]
            zz = [mpm.mpc(w) for w in zz]
            bits = int((dps - 6) * math.log2(10))   # eps = 10^(6 - dps)
            values = _aberth(cs, zz, mpm.ldexp(1, -bits),
                             mpm.ldexp(1, -bits // 2))

            # Horner's rounding of p(z) and that of the coefficients stay
            # below gamma sum |c_k| |z|^k; one more factor 1 + gamma covers
            # the roundings of the product and the quotient, and one the
            # roundings of the disjointness test (Higham, Accuracy and
            # Stability of Numerical Algorithms, 2nd ed., 5.1)
            gamma = mpm.ldexp(64 * (d + 1), 1 - mpm.mp.prec)
            grow = d * (1 + 2 * gamma)
            moduli = [_fixed_up(mpf_abs(c._mpf_), MODULUS_BITS) for c in cs]
            radii = []
            for i in range(d):
                den = mpm.mpc(1)
                for j in range(d):
                    if j != i:
                        den *= zz[i] - zz[j]
                if den == 0:
                    radii = None
                    break
                value = values[i] if values[i] is not None \
                    else horner(cs, zz[i])
                num = abs(value) + gamma * _modulus_sum_up(moduli, zz[i])
                radii.append(num / abs(den) * grow)
            if radii is not None:
                disjoint = all(abs(zz[i] - zz[j]) > radii[i] + radii[j]
                               for i in range(d) for j in range(i + 1, d))
                if disjoint and max(radii, default=mpm.mpf(0)) < tol:
                    return zz, [float_up(Fraction(r.man) * Fraction(2) ** r.exp)
                                for r in radii]
        dps *= 2
    raise RepeatedRootError(
        "root certification failed; inputs may be non-squarefree or "
        "ill-conditioned beyond the precision ladder")


def complex_roots(P, tol=1e-12):
    """Certified complex roots of a squarefree IntPoly.

    Raises RepeatedRootError for non-squarefree input (deflate with
    P.exact_div(P.gcd(P.derivative())) and retry).  The returned multiset is
    closed under conjugation up to tol.
    """
    if P.degree < 1:
        raise InvalidInputError("need degree >= 1")
    if not P.is_squarefree():
        raise RepeatedRootError(
            "polynomial has a repeated root; deflate by gcd(P, P') first")
    zz, radii = P.certified_roots(tol)
    roots = []
    for z, r in zip(zz, radii):
        # each part of z rounds within 2^-53 of itself (2^-1075 if subnormal):
        # |complex(z) - z| <= 2^-52 |complex(z)| + 2^-1074, sums rounded up
        w = complex(z)
        conv = math.nextafter(abs(w) * 2.0 ** -52 + 2.0 ** -1074, math.inf)
        roots.append(CertifiedRoot(w, math.nextafter(r + conv, math.inf)))
    # conjugation closure sanity (real coefficients force it)
    for rt in roots:
        if abs(rt.value.imag) > tol:
            if not any(abs(o.value - rt.value.conjugate()) <= 4 * (o.radius + rt.radius) + tol
                       for o in roots):
                raise RepeatedRootError("conjugate symmetry violated beyond tol")
    return roots
