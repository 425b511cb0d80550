"""Naive heights on P^k(Q): normalization, enumeration, counting, identities.

Points carry coprime integer homogeneous coordinates with the first nonzero
coordinate positive, so equality of points is equality of tuples.  The
exponential height H is the max absolute coordinate; h = log H.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import (DegenerateMapError, IndeterminacyError, InvalidInputError,
                     ResourceLimitError)
from .numutil import Value, log_up, parse_rational, reported, zeta_dyadic

ENUMERATION_CAP = 5_000_000  # points; guards accidental huge materializations
COUNT_CAP = 10_000_000       # Hmax of count_points; its sieve holds Hmax entries


def _normalize_coords(coords):
    fracs = [parse_rational(c) if c.__class__ is str else Fraction(c)
             for c in coords]
    if all(f == 0 for f in fracs):
        raise InvalidInputError("projective coordinates cannot all vanish")
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


class ProjPointQ(Value):
    """Point of P^k(Q) in normalized coprime-integer coordinates."""

    _fields = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", _normalize_coords(coords))

    @property
    def dim(self):
        return len(self.coords) - 1

    def H(self):
        """Exponential height (an integer)."""
        return max(abs(c) for c in self.coords)

    def height(self):
        return math.log(self.H())

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def height(x: ProjPointQ):
    """h(x) = log max |x_i| over normalized coordinates."""
    return x.height()


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

def _mobius_sieve(n):
    mu = [1] * (n + 1)
    primes = []
    comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def count_points(k, Hmax):
    """Exact number of points of P^k(Q) with exponential height <= Hmax.

    Mobius count of coprime tuples in the box [-Hmax, Hmax]^(k+1), halved
    for the sign identification.  Raises ResourceLimitError when Hmax
    exceeds COUNT_CAP, before the sieve is allocated.
    """
    if Hmax < 1:
        return 0
    if Hmax > COUNT_CAP:
        raise ResourceLimitError(
            Hmax, f"counting to H = {Hmax} exceeds the cap {COUNT_CAP}")
    mu = _mobius_sieve(Hmax)
    total = 0
    for g in range(1, Hmax + 1):
        if mu[g]:
            side = 2 * (Hmax // g) + 1
            total += mu[g] * (side ** (k + 1) - 1)
    return total // 2


def _hmax_from_log_bound(B):
    # H <= e^B with an epsilon so integral boundaries are kept
    if B > math.log(COUNT_CAP):  # beyond every cap, and math.exp may overflow
        raise ResourceLimitError(
            B, f"log-height bound {B} exceeds the cap log {COUNT_CAP}")
    return int(math.floor(math.exp(B) * (1 + 1e-12) + 1e-9))


def points_on_shell(k, m):
    """Normalized points of P^k(Q) with H(x) exactly m.

    Shells partition the bounded-height sets, so they can be produced on
    separate workers and merged in shell order deterministically.  Tuples
    are generated by the first position attaining |c| = m, so only the
    shell boundary is walked.
    """
    if m < 1:
        return
    inner = range(-(m - 1), m)
    full = range(-m, m + 1)
    for i in range(k + 1):
        ranges = [inner] * i + [(-m, m)] + [full] * (k - i)
        for tup in product(*ranges):
            first = next(c for c in tup if c != 0)
            if first < 0:
                continue
            if math.gcd(*(abs(c) for c in tup)) != 1:
                continue
            yield ProjPointQ(tup)


def enumerate_points(k, B):
    """All points of P^k(Q) with H(x) <= e^B, normalized, lexicographic.

    B is the *logarithmic* height bound.  Raises ResourceLimitError with the
    exact count when the output would exceed the enumeration cap.
    """
    if B < 0:
        raise InvalidInputError("height bound must be >= 0")
    Hmax = _hmax_from_log_bound(B)
    n = count_points(k, Hmax)
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(n, f"{n} points exceed the enumeration cap")
    pts = []
    for m in range(1, Hmax + 1):
        pts.extend(points_on_shell(k, m))
    pts.sort(key=lambda p: p.coords)
    if len(pts) != n:
        raise RuntimeError(f"enumerated {len(pts)} points, Mobius count {n}")
    return pts


def schanuel_ratio(k, B):
    """N(B) / (2^k B^(k+1) / zeta(k+1)) with B an *exponential* height bound.

    N(B) / (2^k B^(k+1)) is an exact rational; its products with the ends
    of `numutil.zeta_dyadic`'s enclosure of zeta(k+1), at scale 2^-128,
    enclose the ratio, and the result is the float nearest their midpoint,
    within one ulp of the true ratio.  The constant needs k >= 1 (zeta(1)
    is a pole)."""
    if not k >= 1:
        raise InvalidInputError(f"need k >= 1 (--k), got {k}")
    if not B >= 2:
        raise InvalidInputError("need B >= 2")
    if B > COUNT_CAP:
        raise ResourceLimitError(B, f"B = {B} exceeds the cap {COUNT_CAP}")
    Hmax = int(B)
    n = count_points(k, Hmax)
    q = Fraction(n) / (2 ** k * Fraction(B) ** (k + 1))
    lo, hi = zeta_dyadic(k + 1, 128)
    return reported(q * lo / 2 ** 128, q * hi / 2 ** 128)[0]


# ---------------------------------------------------------------------------
# height identities
# ---------------------------------------------------------------------------

def segre(x: ProjPointQ, y: ProjPointQ):
    """Segre image with coordinates x_i y_j in lexicographic (i, j) order."""
    coords = [a * b for a in x.coords for b in y.coords]
    return ProjPointQ(coords)


def _monomials(k, d):
    """Exponent tuples (d_0..d_k) with sum d, lexicographically decreasing d_0 first."""
    if k == 0:
        yield (d,)
        return
    for d0 in range(d, -1, -1):
        for rest in _monomials(k - 1, d - d0):
            yield (d0,) + rest


def veronese(x: ProjPointQ, d):
    """Veronese image of degree d; h(V_d(x)) = d h(x) exactly."""
    if d < 1:
        raise InvalidInputError("Veronese degree must be >= 1")
    coords = []
    for expo in _monomials(x.dim, d):
        m = 1
        for c, e in zip(x.coords, expo):
            m *= c ** e
        coords.append(m)
    return ProjPointQ(coords)


def linear_projection(x: ProjPointQ, m):
    """Drop coordinates after index m; undefined on the center."""
    if not 0 <= m < x.dim:
        raise InvalidInputError("target dimension must satisfy 0 <= m < k")
    head = x.coords[: m + 1]
    if all(c == 0 for c in head):
        raise IndeterminacyError(x, "point lies on the projection center")
    return ProjPointQ(head)


# ---------------------------------------------------------------------------
# morphisms of projective spaces
# ---------------------------------------------------------------------------

class HomForm(NamedTuple):
    """Homogeneous integer polynomial in k+1 variables as {exponents: coeff}."""

    nvars: int
    degree: int
    terms: tuple  # tuple of (exponent tuple, int coeff)

    @classmethod
    def from_dict(cls, nvars, terms):
        clean = []
        deg = None
        for expo, c in sorted(terms.items()):
            if c == 0:
                continue
            if len(expo) != nvars:
                raise InvalidInputError("exponent arity mismatch")
            d = sum(expo)
            if deg is None:
                deg = d
            elif d != deg:
                raise InvalidInputError("polynomial is not homogeneous")
            clean.append((tuple(expo), int(c)))
        if deg is None:
            raise InvalidInputError("zero form not allowed here")
        return cls(nvars, deg, tuple(clean))

    def __call__(self, coords):
        acc = 0
        for expo, c in self.terms:
            m = c
            for x, e in zip(coords, expo):
                m *= x ** e
            acc += m
        return acc

    def abs_coeff_sum(self):
        return sum(abs(c) for _, c in self.terms)

    def is_unit_monomial(self):
        return len(self.terms) == 1 and abs(self.terms[0][1]) == 1


class HomMorphism(Value):
    """Rational map P^k -> P^m given by m+1 forms of common degree d.

    `base_point_free` is decided by exact elimination when the source is
    P^1 (a common projective zero over C is a common binary-form factor);
    for k >= 2 it stays a caller assertion, with exact zero detection at
    runtime either way.
    """

    _fields = ("forms", "base_point_free")

    def __init__(self, forms, base_point_free=False):
        """`forms` is a tuple of HomForm instances."""
        degs = {f.degree for f in forms}
        if len(degs) != 1:
            raise InvalidInputError("all forms must share a degree")
        if forms[0].nvars == 2:
            base_point_free = not _binary_common_zero(forms)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "base_point_free", base_point_free)

    @property
    def source_dim(self):
        return self.forms[0].nvars - 1

    @property
    def target_dim(self):
        return len(self.forms) - 1

    @property
    def degree(self):
        return self.forms[0].degree

    @classmethod
    def power_map(cls, k, d):
        forms = []
        for i in range(k + 1):
            expo = tuple(d if j == i else 0 for j in range(k + 1))
            forms.append(HomForm.from_dict(k + 1, {expo: 1}))
        return cls(tuple(forms), base_point_free=True)


def apply_morphism(f: HomMorphism, x: ProjPointQ):
    """Exact image point; raises IndeterminacyError when all forms vanish."""
    if x.dim != f.source_dim:
        raise InvalidInputError("point dimension does not match the morphism")
    vals = [form(x.coords) for form in f.forms]
    if all(v == 0 for v in vals):
        raise IndeterminacyError(x)
    return ProjPointQ(vals)


def unit_power_pair(U, V):
    """True for the binary forms [±X^d : ±Y^d] and [±Y^d : ±X^d], d >= 1."""
    x_d = (1,) + (0,) * U.degree
    ends = {tuple(map(abs, F.coeffs)) for F in (U, V)}
    return U.degree == V.degree >= 1 and ends == {x_d, x_d[::-1]}


def binary_constants(U, V):
    """(c_upper, c_lower, max|cofactor coefficient|) of [U : V] on P^1, for
    d h(x) - c_lower <= h(f(x)) <= d h(x) + c_upper, both rounded up.

    c_upper = log max(sum |U_i|, sum |V_i|) (triangle inequality).  The
    cofactor identity A U + B V = Res X^(2d-1) (and Y^(2d-1)) gives |Res|
    max^(2d-1) <= 2d max|cof| max^(d-1) max(|U|, |V|), and the gcd of (U, V)
    at a coprime point divides Res, which re-absorbs log|Res|: c_lower =
    log(2d max|cof|).  Unit power pairs map coprime points to coprime
    points with max^d, so (0, 0, 1) without a solve (their cofactors are
    ±X^(d-1), ±Y^(d-1) and 0).  DegenerateMapError when Res(U, V) = 0.
    """
    if unit_power_pair(U, V):
        return 0.0, 0.0, 1
    from .polyforms import nullstellensatz_cofactors
    ax, bx, ay, by, _ = nullstellensatz_cofactors(U, V)
    max_cofactor = max(max(abs(c) for c in g.coeffs) for g in (ax, bx, ay, by))
    c_upper = log_up(max(sum(abs(c) for c in U.coeffs),
                         sum(abs(c) for c in V.coeffs)))
    return c_upper, log_up(2 * U.degree * max_cofactor), max_cofactor


def functoriality_constants(f: HomMorphism):
    """(c_upper, c_lower) with d h(x) - c_lower <= h(f(x)) <= d h(x) + c_upper.

    c_upper = log max_i sum |coefficients of f_i| (triangle inequality),
    rounded up.  On P^1 both come from `binary_constants` (c_lower is None
    when the forms share a root).  For k >= 2, c_lower is exact (zero) for
    permuted-coordinate unit power maps and None otherwise (reported
    unavailable rather than estimated).
    """
    c_upper = log_up(max(form.abs_coeff_sum() for form in f.forms))
    if f.source_dim == 1 and f.target_dim == 1:
        try:
            return binary_constants(*map(_homform_to_binary, f.forms))[:2]
        except DegenerateMapError:
            return c_upper, None
    # unit monomial maps on any P^k: coordinates map to x_sigma(i)^d, the
    # image of a coprime tuple is coprime and the max is max^d, so c = 0.
    if all(form.is_unit_monomial() for form in f.forms) \
            and f.source_dim == f.target_dim:
        expos = [form.terms[0][0] for form in f.forms]
        support = [tuple(i for i, e in enumerate(expo) if e) for expo in expos]
        if all(len(s) == 1 for s in support) \
                and sorted(s[0] for s in support) == list(range(f.source_dim + 1)):
            return 0.0, 0.0
    return c_upper, None


def _homform_to_binary(form: HomForm):
    from .polyforms import BinaryForm
    d = form.degree
    coeffs = [0] * (d + 1)
    for expo, c in form.terms:
        coeffs[expo[1]] = c  # X^(d-i) Y^i at index i
    return BinaryForm(d, coeffs)


def _binary_common_zero(forms):
    """Exact elimination on P^1: the forms share a projective zero iff they
    share the factor Y or their dehomogenizations share a root."""
    binaries = [_homform_to_binary(f) for f in forms]
    if all(b.coeffs[0] == 0 for b in binaries):  # all divisible by Y
        return True
    g = None
    for b in binaries:
        p = b.dehomogenized()
        g = p if g is None else g.gcd(p)
        if g.degree == 0:
            return False
    return g.degree >= 1
