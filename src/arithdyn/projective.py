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
from .numutil import (Value, log_dyadic, log_up, parse_rational, reported,
                      zeta_dyadic)

ENUMERATION_CAP = 5_000_000  # points; guards accidental huge materializations
COUNT_CAP = 10_000_000       # Hmax of count_points; bounds its time, about H^(3/4)
POWER_BITS_CAP = 1 << 17     # bits of (2 Hmax + 1)^(k+1), count_points' largest power
POWER_SUM_BITS_CAP = 1 << 25  # bits of count_points' distinct powers together


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

def _distinct_quotients(Hmax):
    """(q, lo, hi) for each distinct q = Hmax // g, g = 1..Hmax, decreasing
    in q, where [lo, hi] is the block of g with that quotient; there are at
    most 2 sqrt(Hmax) of them."""
    g = 1
    while g <= Hmax:
        q = Hmax // g
        hi = Hmax // q
        yield q, g, hi
        g = hi + 1


def _mertens_on_quotients(Hmax):
    """{v: M(v)} for each v = Hmax // g, where M(v) = sum_{n <= v} mu(n).

    The pairs (g, n) with g n <= v are the pairs (m / n, n), n | m <= v, so
    sum_{g <= v} M(v // g) = sum_{m <= v} sum_{n | m} mu(n) = 1, and
    M(v) = 1 - sum_{g = 2..v} M(v // g): (hi - lo + 1) M(q) per block
    (q, lo, hi), lo >= 2, of `_distinct_quotients(v)`.  For v = Hmax // j,
    q = Hmax // (j g) is a smaller key, so the table, filled in increasing
    v, holds it: about Hmax^(3/4) steps and 2 sqrt(Hmax) entries.
    """
    M = {}
    for v, _, _ in reversed(list(_distinct_quotients(Hmax))):
        M[v] = 1 - sum((hi - lo + 1) * M[q]
                       for q, lo, hi in _distinct_quotients(v) if lo > 1)
    return M


def count_points(k, Hmax):
    """Exact number of points of P^k(Q) with exponential height <= Hmax.

    Mobius count of coprime tuples in the box [-Hmax, Hmax]^(k+1), halved
    for the sign identification: the sum over g <= Hmax of
    mu(g) ((2 (Hmax // g) + 1)^(k+1) - 1).  The g with one quotient
    q = Hmax // g form a block [lo, hi], so the count takes one power per
    distinct q, at most 2 sqrt(Hmax) of them, weighted by the sum of mu over
    the block, M(hi) - M(lo - 1) from `_mertens_on_quotients` (hi and the
    previous block's hi, lo - 1, are quotients; M(0) = 0).  Raises
    ResourceLimitError, before the Mertens values, when Hmax exceeds
    COUNT_CAP, when the largest power (2 Hmax + 1)^(k+1) has more than
    POWER_BITS_CAP bits, or when the distinct powers have more than
    POWER_SUM_BITS_CAP bits together.
    """
    if Hmax < 1:
        return 0
    if Hmax > COUNT_CAP:
        raise ResourceLimitError(
            Hmax, f"counting to H = {Hmax} exceeds the cap {COUNT_CAP}")
    bits = (k + 1) * math.log2(2 * Hmax + 1)
    if bits > POWER_BITS_CAP:
        raise ResourceLimitError(
            bits, f"counting in P^{k} to H = {Hmax} takes a power of "
            f"{bits:.0f} bits, beyond the cap {POWER_BITS_CAP}")
    blocks = list(_distinct_quotients(Hmax))
    bits = (k + 1) * sum(math.log2(2 * q + 1) for q, _, _ in blocks)
    if bits > POWER_SUM_BITS_CAP:
        raise ResourceLimitError(
            bits, f"counting in P^{k} to H = {Hmax} takes powers of "
            f"{bits:.0f} bits together, beyond the cap {POWER_SUM_BITS_CAP}")
    M = _mertens_on_quotients(Hmax)
    total = 0
    for q, lo, hi in blocks:      # lo - 1 is the previous block's hi
        weight = M[hi] - M.get(lo - 1, 0)
        if weight:
            total += weight * ((2 * q + 1) ** (k + 1) - 1)
    return total // 2


def _log_at_most(m, B):
    """Whether log m <= B, for an int m >= 1 and a float B, decided on the
    enclosures of `numutil.log_dyadic` at rising precision.  B is a dyadic
    rational and log m is 0 (m = 1) or transcendental, so log m != B unless
    both are 0, and the enclosure leaves B behind at a finite precision."""
    n, den = B.as_integer_ratio()
    prec = 64
    while True:
        lo, hi = log_dyadic(m, 0, prec)
        if hi * den <= n << prec:
            return True
        if lo * den > n << prec:
            return False
        prec *= 2


def _hmax_from_log_bound(B):
    """The largest integer H with log H <= B (0 when B < 0), decided
    exactly: the candidates next to floor(exp(B)) are tested with
    `_log_at_most`."""
    if B > math.log(COUNT_CAP):  # beyond every cap, and math.exp may overflow
        raise ResourceLimitError(
            B, f"log-height bound {B} exceeds the cap log {COUNT_CAP}")
    H = int(math.exp(B))
    while _log_at_most(H + 1, B):
        H += 1
    while H >= 1 and not _log_at_most(H, B):
        H -= 1
    return H


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
    return ProjPointQ([math.prod(c ** e for c, e in zip(x.coords, expo))
                       for expo in _monomials(x.dim, d)])


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
