"""The bottom layer, importing no arithdyn module but `errors`: the mpmath
lock, the per-instance memo, Horner's rule, factorization, primality, floats
rounded upward and directed bounds on integer combinations of logarithms.

mpmath is imported by the functions that call `mpmath.libmp` (`log_bounds`,
`log_up`, `error_around`, `reported`), not by the module: importing mpmath
costs about 25 ms, and most CLI processes never take a logarithm.  They
import the package `libmp` alone, which costs a fraction of a microsecond
once mpmath is loaded, where importing each function by name costs several
on these hot paths.  The lock is a plain `threading.RLock`, so holding it
needs no mpmath.

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

from .errors import ResourceLimitError

# mpmath keeps its working precision in process-global contexts; every block
# of arithdyn that sets it holds this lock, so concurrent callers neither see
# each other's precision nor leave a changed one behind.
MP_PRECISION_LOCK = threading.RLock()


def kept_on_instance(method):
    """Make a no-argument method of an immutable value compute its result
    once and keep it in the instance dict (not a dataclass field).  Two
    threads may both compute it; either stores the same value."""
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
    x = float(q)           # correctly rounded
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def log_bounds(terms, prec, m=(1, 1), P=0, tail=0.0, D=1):
    """libmp mpfs (lo, hi), rounded outward at prec bits, bounding

        (sum n_q log q + log x + [-tail, tail]) / D,   x in [m_lo, m_hi] / 2^P,

    for integer pairs (n_q, q > 0) in `terms` and integers 0 < m_lo <= m_hi.

    libmp keeps log 2 in a module-level cache that it grows without
    synchronization (a reader can pair the old cache precision with the new
    value), so the logs are taken under MP_PRECISION_LOCK, which every other
    mpmath block of arithdyn holds too.
    """
    from mpmath import libmp
    UP, DOWN = libmp.round_ceiling, libmp.round_floor
    t = libmp.from_float(tail)
    with MP_PRECISION_LOCK:
        lo = libmp.mpf_sub(libmp.mpf_log(libmp.from_man_exp(m[0], -P), prec,
                                         DOWN), t, prec, DOWN)
        hi = libmp.mpf_add(libmp.mpf_log(libmp.from_man_exp(m[1], -P), prec,
                                         UP), t, prec, UP)
        for nq, q in terms:
            n, q = libmp.from_int(nq), libmp.from_int(q)
            logs = libmp.mpf_log(q, prec, DOWN), libmp.mpf_log(q, prec, UP)
            lo = libmp.mpf_add(lo, libmp.mpf_mul(n, logs[nq < 0], prec, DOWN),
                               prec, DOWN)
            hi = libmp.mpf_add(hi, libmp.mpf_mul(n, logs[nq >= 0], prec, UP),
                               prec, UP)
    den = libmp.from_int(D)
    return libmp.mpf_div(lo, den, prec, DOWN), libmp.mpf_div(hi, den, prec, UP)


def log_up(q):
    """A float >= log q for a rational q > 0, from q rounded up to 64 bits."""
    from mpmath import libmp
    q = Fraction(q)
    _, man, exp, _ = libmp.mpf_div(libmp.from_int(q.numerator),
                                   libmp.from_int(q.denominator), 64,
                                   libmp.round_ceiling)
    _, hi = log_bounds((), 64, (man, man), -exp)
    return libmp.to_float(hi, rnd=libmp.round_ceiling)


def error_around(v, lo, hi, prec):
    """The least float >= max(hi - v, v - lo): the libmp interval [lo, hi]
    lies in the float v +- it."""
    from mpmath import libmp
    UP, v_mpf = libmp.round_ceiling, libmp.from_float(v)
    return max(libmp.to_float(libmp.mpf_sub(hi, v_mpf, prec, UP), rnd=UP),
               libmp.to_float(libmp.mpf_sub(v_mpf, lo, prec, UP), rnd=UP))


def reported(lo, hi, prec):
    """(v, e): v the float (lo + hi)/2 rounds to and e = error_around(v)."""
    from mpmath import libmp
    NEAREST = libmp.round_nearest
    v = libmp.to_float(libmp.mpf_add(lo, hi, prec, NEAREST), rnd=NEAREST) / 2
    return v, error_around(v, lo, hi, prec)
