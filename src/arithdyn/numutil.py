"""The bottom layer, importing no arithdyn module but `errors`: the base of
the value types, the mpmath lock, the per-instance memo, rationals parsed
under a digit cap, Horner's rule, factorization, primality, floats rounded
upward, directed bounds on integer combinations of logarithms and integer
enclosures of zeta at integers (`zeta_dyadic`).

The logarithms are taken on Python integers (`log_dyadic`): an atanh series
on fixed-point integers with an error bound counted term by term (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, 4.4), so no function here
imports mpmath, which costs about 25 ms of a process, or takes the lock.
`log_bounds` adds such logs into exact `Fraction` ends, and `reported`
turns an enclosure into a float and the least float that bounds its
distance to the enclosure.  The lock is a plain `threading.RLock` held by
the one mpmath block left in arithdyn, the mp Aberth sweeps of
`roots.certified_roots_mp`; holding it needs no mpmath.

Miller-Rabin on the first 13 prime bases, deterministic below
psi_13 = 3317044064679887385961981 (about 3.3e24; Sorenson & Webster,
Math. Comp. 86, 2017), plus Brent's variant of Pollard rho under an
iteration budget, keeps resultants of desk-scale maps factorable without
external dependencies.  `factorize` refuses a cofactor that passes the test
at or above psi_13, since nothing proves it prime.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import wraps
from operator import attrgetter

from .errors import ResourceLimitError

# mpmath keeps its working precision in process-global contexts; the one
# block of arithdyn that sets it, the mp sweeps of the root finder, holds this
# lock, so concurrent callers neither see each other's precision nor leave a
# changed one behind.
MP_PRECISION_LOCK = threading.RLock()


class Value:
    """Base of the value types that check or normalize their fields in
    `__init__`: equality, hashing and repr over the fields named in
    `_fields`, as a frozen dataclass has them, with no code generated when a
    class is defined.  Instances of one class are equal when their fields
    are, hash as the tuple of their fields and print as
    `Name(field=value, ...)`; assigning or deleting an attribute raises
    AttributeError, so `__init__` sets the fields with `object.__setattr__`.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


RATIONAL_DIGIT_CAP = 4300   # digits of a parsed rational, as int() allows


def parse_rational(s):
    """Fraction(s) for a number or a string such as '-3/4' or '1.5e-3'.

    Fraction expands a decimal exponent in full, so '1e999999999' would
    build 10^999999999: a string whose digits plus |exponent| exceed
    RATIONAL_DIGIT_CAP is refused with ResourceLimitError first.
    """
    if isinstance(s, str):
        mantissa, e, exponent = s.lower().partition("e")
        try:
            shift = abs(int(exponent)) if e else 0
        except ValueError:      # not a number: Fraction says so below
            shift = 0
        size = sum(c.isdigit() for c in mantissa) + shift
        if size > RATIONAL_DIGIT_CAP:
            raise ResourceLimitError(
                RATIONAL_DIGIT_CAP, f"the rational {s[:40]!r} has {size} "
                f"digits, more than {RATIONAL_DIGIT_CAP}")
    return Fraction(s)


def kept_on_instance(method):
    """Make a no-argument method of a `Value` compute its result once and
    keep it in the instance dict, outside `_fields`, so equality, hashing
    and repr do not see it.  Two threads may both compute it; either stores
    the same value."""
    name = f"_kept_{method.__name__}"

    @wraps(method)
    def kept(self):
        try:
            return self.__dict__[name]
        except KeyError:
            value = method(self)
            object.__setattr__(self, name, value)
            return value
    return kept


def horner(cs, x):
    """sum cs[k] x^k (low degree first) in the arithmetic of x and the cs."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


RHO_BUDGET = 1 << 20    # polynomial steps per factorization, about 1 s
RHO_BATCH = 128         # differences multiplied together per gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
MR_DETERMINISTIC_BELOW = 3317044064679887385961981


def is_prime(n):
    """Strong probable-prime test to the bases _MR_BASES: exact for n below
    MR_DETERMINISTIC_BELOW, a probable-prime verdict above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n, budget):
    """(factor, steps): a nontrivial factor of the odd composite n by
    Brent's cycle finding (BIT 20, 1980), one gcd per RHO_BATCH products of
    differences; ResourceLimitError once more than `budget` steps are due."""
    steps = 0
    for c in range(1, 50):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            if steps > budget:
                raise ResourceLimitError(RHO_BUDGET, "factorization of a "
                                         f"{n.bit_length()}-bit number "
                                         f"exceeds {RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, RHO_BATCH):
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            steps += 2 * r
            r *= 2
        if g == n:   # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps
    raise ResourceLimitError(RHO_BUDGET, f"no rho polynomial splits {n}")


def factorize(n):
    """Prime factorization of |n| as {p: exponent}; 0 and ±1 give {}.

    ResourceLimitError when rho needs more than RHO_BUDGET steps, or when a
    cofactor of at least MR_DETERMINISTIC_BELOW passes is_prime, which then
    proves nothing."""
    n = abs(n)
    out = {}
    if n <= 1:
        return out
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = RHO_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            if m >= MR_DETERMINISTIC_BELOW:
                raise ResourceLimitError(
                    MR_DETERMINISTIC_BELOW, f"a {m.bit_length()}-bit cofactor "
                    "passes Miller-Rabin above its deterministic range and "
                    "is not proved prime")
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _brent_rho(m, budget)   # m is odd: 2 was divided out
        budget -= steps
        stack.extend([d, m // d])
    return out


def float_up(q):
    """The least float >= the rational q (an int, Fraction or float)."""
    return ratio_up(*q.as_integer_ratio())


def ratio_up(n, d):
    """The least float >= n / d for ints n and d > 0."""
    x = n / d              # correctly rounded
    xn, xd = x.as_integer_ratio()
    return x if xn * d >= n * xd else math.nextafter(x, math.inf)


def _atanh_sum(a, w):
    """(s, n): the sum s of the first n terms of 2^w atanh(a 2^-w), each
    truncated, for an int a with 0 <= a 2^-w <= 1/3; then

        0 <= 2^w atanh(a 2^-w) - s < 1.5 n.

    With tau = a 2^-w, p_0 = a, p_(j+1) = floor(p_j u 2^-w) for
    u = floor(a^2 2^-w), s sums floor(p_j / (2j + 1)) over the n terms
    before the first p_n = 0.  Each step truncates a nonnegative number, so
    p_j 2^-w <= tau^(2j+1) = x_j, and d_j = x_j - p_j 2^-w has d_0 = 0 and

        d_(j+1) < tau^2 d_j + p_j 2^-w (tau^2 - u 2^-w) + 2^-w
                < d_j / 9 + (1/3 + 1) 2^-w,   so  d_j < 1.5 2^-w.

    Term j >= 1 then falls short of x_j / (2j + 1) by less than d_j / 3 +
    2^-w < 1.5 2^-w, term 0 by nothing, and the terms left out, from x_n =
    d_n on, sum to less than x_n / (3 (1 - tau^2)) < 0.6 2^-w (n >= 1; for
    n = 0, a = 0 and s = 0 is exact).
    """
    u = a * a >> w
    s = n = 0
    p = a
    while p:
        s += p // (2 * n + 1)
        p = p * u >> w
        n += 1
    return s, n


# 2^w log 2 as (L, E) with |L - 2^w log 2| <= E, one entry per w; the value
# is a function of w alone, so a thread that finds no entry computes and
# stores the same one, and the dict needs no lock
_LN2 = {}


def _ln2(w):
    kept = _LN2.get(w)
    if kept is None:
        # log 2 = 2 atanh(1/3); floor(2^w / 3) 2^-w lies within 2^-w below
        # 1/3, where atanh' = 9/8, so 0 <= 2^w log 2 - 2 s < 3 n + 2.25
        s, n = _atanh_sum((1 << w) // 3, w)
        kept = _LN2[w] = (2 * s, 3 * n + 3)
    return kept


def log_dyadic(m, e, prec):
    """Integers (lo, hi) with lo <= 2^prec log(m 2^e) <= hi, for ints m > 0
    and e; hi - lo is a few units.

    With m 2^e = r 2^k, 1 <= r < 2, the log is log r + k log 2, taken at a
    working scale 2^-w, w = prec + g, and rounded outward to 2^-prec; the g
    guard bits grow with |k| and prec, so the bound E below stays under 2^g.
    Errors in units of 2^-w:

    * y = floor(r 2^w), halved when y >= sqrt(2) 2^w (then k += 1), so
      rho = y 2^-w lies in [1/sqrt 2, sqrt 2) up to 2^-w and log r (or
      log(r/2)) exceeds log rho by at most 2^-w / rho < 2 units.
    * h square roots y <- isqrt(y 2^w), h = floor(sqrt(prec)/4) - 2 (none
      below 144 bits), shorten the series at high precision: each root
      stays within 2^-w below the true root, which is at least 0.83, so
      log rho exceeds 2^h times the log of the last one by less than
      1.21 (2 + 4 + ... + 2^h) < 2.5 2^h units.
    * The last rho gives t = (rho - 1)/(rho + 1), |t| < 0.18, truncated
      to a = floor(|t| 2^w): atanh(|t|) exceeds atanh(a 2^-w) by at most
      2^-w / (1 - t^2) < 1.04 units, and the n-term sum s of `_atanh_sum`
      falls short of that by less than 1.5 n.  So 2^w log rho lies within
      2^h (2 (1.5 n + 1.04) + 2.5) < (3 n + 5) 2^h of sign(t) 2^(h+1) s.
    * k log 2 comes from `_ln2(w)`: |k| times its bound E_2 = 3 n_2 + 3.

    Altogether |L - 2^w log(m 2^e)| <= E = (3 n + 5) 2^h + 2 + |k| E_2 for
    L = sign(t) 2^(h+1) s + k L_2.  When m is a power of two, r = 1 and
    L = k L_2, E = |k| E_2 (so log 1 is exactly 0).  Returns
    floor((L - E) 2^-g) and ceil((L + E) 2^-g).
    """
    if m <= 0:
        raise ValueError(f"log of {m} * 2^{e}: need m > 0")
    b = m.bit_length()
    k = e + b - 1
    power = m & (m - 1) == 0          # r = 1
    h = 0 if power else max(math.isqrt(prec) // 4 - 2, 0)
    g = ((prec + 64) * ((1 << h) + abs(k))).bit_length() + 1
    w = prec + g
    if power:
        L = E = 0
    else:
        shift = w + 1 - b
        y = m << shift if shift >= 0 else m >> -shift
        if (y * y).bit_length() > 2 * w + 1:    # y >= sqrt(2) 2^w
            y >>= 1
            k += 1
        for _ in range(h):
            y = math.isqrt(y << w)
        one = 1 << w
        s, n = _atanh_sum((abs(y - one) << w) // (y + one), w)
        L = (s if y >= one else -s) << (h + 1)
        E = ((3 * n + 5) << h) + 2
    if k:
        L2, E2 = _ln2(w)
        L += k * L2
        E += abs(k) * E2
    return (L - E) >> g, -(-(L + E) >> g)


def zeta_dyadic(s, prec):
    """Integers (lo, hi) with lo <= 2^prec zeta(s) <= hi for an int s >= 2,
    a few units apart.  For s >= prec + 2, 0 < zeta(s) - 1 <= 2^-s (1 + 2 /
    (s - 1)) < 2^-prec.  Otherwise, by Euler-Maclaurin from N = w = prec + g
    (Graham, Knuth & Patashnik, Concrete Mathematics, 2nd ed., 9.5),
    zeta(s) = sum_(n<N) n^-s + N^(1-s)/(s-1) + N^-s/2 + T_1 + ... + T_m + R
    with T_j = a_j s (s+1) ... (s+2j-2) N^(1-s-2j), a_j = B_2j / (2j)!, and
    R between 0 and T_(m+1), as every even derivative of x^-s is positive.
    Each term is truncated at scale 2^-w, and the sum stops at the first T_j
    of at most one unit: 2^w zeta(s) lies in [L - 1, L + t + 1] for the sum
    L of the t terms.  |a_(j+1) / a_j| <= 1/(4 pi^2) makes |T_(j+1) / T_j| <
    1/8 while s + 2j <= 2N, so m < N/3 and t < 2^g.  The a_j solve
    sum_(i<=j) 4^i a_i / (2j-2i+1)! = 1/(2j)!, as (x/2) cosh(x/2) =
    sinh(x/2) sum a_j x^2j."""
    if s < 2:
        raise ValueError(f"zeta({s}): need s >= 2")
    if s >= prec + 2:
        return 1 << prec, (1 << prec) + 1
    g = (2 * prec).bit_length() + 1
    N = w = prec + g
    one, fact = 1 << w, math.factorial
    L = sum(one // n ** s for n in range(1, N)) \
        + one // ((s - 1) * N ** (s - 1)) + one // (2 * N ** s)
    t, a = N + 1, [Fraction(1)]
    rising, power = s, N ** (s + 1)     # of T_1
    while True:
        j = len(a)
        a.append((Fraction(1, fact(2 * j)) - sum(
            a[i] * 4 ** i / fact(2 * j - 2 * i + 1) for i in range(j))) / 4 ** j)
        T = a[j].numerator * rising * one // (a[j].denominator * power)
        if -1 <= T <= 0:
            return (L - 1) >> g, -(-(L + t + 1) >> g)
        L, t = L + T, t + 1
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power *= N * N


def log_bounds(terms, prec, m=(1, 1), P=0, tail=0.0, D=1):
    """Fractions (lo, hi) bounding

        (sum n_q log q + log x + [-tail, tail]) / D,   x in [m_lo, m_hi] / 2^P,

    for integer pairs (n_q, q > 0) in `terms`, integers 0 < m_lo <= m_hi,
    any integer P, a rational tail >= 0 and an integer D > 0.  Each log is
    enclosed by `log_dyadic` at scale 2^-prec; the ends are sums of those
    integers and of ceil(tail 2^prec), divided by D 2^prec once at the end,
    so each lies within a few units of 2^-prec times (1 + sum |n_q|) / D of
    the exact interval.
    """
    lo, hi = log_dyadic(m[0], -P, prec)
    if m[1] != m[0]:
        hi = log_dyadic(m[1], -P, prec)[1]
    for n, q in terms:
        q_lo, q_hi = log_dyadic(q, 0, prec)
        if n > 0:
            lo, hi = lo + n * q_lo, hi + n * q_hi
        else:
            lo, hi = lo + n * q_hi, hi + n * q_lo
    num, den = tail.as_integer_ratio()
    t = -((-num << prec) // den)      # ceil(tail 2^prec)
    den = D << prec
    return Fraction(lo - t, den), Fraction(hi + t, den)


LOG_UP_PREC = 64   # scale 2^-64 of the logs behind log_up


def log_up(q):
    """A float >= log q for a rational q > 0: the upper end of log of the
    numerator minus the lower end of log of the denominator, each from
    `log_dyadic` at scale 2^-LOG_UP_PREC, rounded up."""
    q = Fraction(q)
    hi = log_dyadic(q.numerator, 0, LOG_UP_PREC)[1] \
        - log_dyadic(q.denominator, 0, LOG_UP_PREC)[0]
    return ratio_up(hi, 1 << LOG_UP_PREC)


def error_around(v, lo, hi):
    """The least float >= max(hi - v, v - lo): the rational interval
    [lo, hi] lies in the float v +- it."""
    # on numerators and denominators: Fraction arithmetic would reduce
    # each difference by a gcd of integers of hundreds of bits
    a, b = v.as_integer_ratio()
    up = hi.numerator * b - a * hi.denominator, hi.denominator * b
    down = a * lo.denominator - lo.numerator * b, lo.denominator * b
    return ratio_up(*(up if up[0] * down[1] >= down[0] * up[1] else down))


def reported(lo, hi):
    """(v, e) for the rational interval [lo, hi]: v the float nearest its
    midpoint and e = error_around(v); (+-inf, inf) when the midpoint lies
    beyond the float range."""
    n = lo.numerator * hi.denominator + hi.numerator * lo.denominator
    try:
        v = n / (2 * lo.denominator * hi.denominator)   # correctly rounded
    except OverflowError:
        return (math.inf if n > 0 else -math.inf), math.inf
    return v, error_around(v, lo, hi)
