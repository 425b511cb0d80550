"""Factorization, primality, upward-rounded floats and logarithms enclosed
on integers."""

import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath as mpm
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn import numutil
from arithdyn.errors import ResourceLimitError
from arithdyn.numutil import (factorize, float_up, is_prime, log_bounds,
                              log_dyadic, log_up, reported, zeta_dyadic)

# Res(U, V) of the degree-4 map U = (-715337, 817236, -190296, -616583,
# 315427), V = (-676755, -348182, 905102, -521046, 715054)
HARD_RES = 471242863642419673079137355098071521665910992681
# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_factorize_round_trip():
    rng = random.Random(5)
    cases = [rng.randrange(2, 10 ** 18) for _ in range(200)]
    cases += [1000003 * 999983, 10000000019 * 10000000033 * 121, 2 ** 61 - 1,
              3 ** 40, 0, 1, -360]
    for n in cases:
        fac = factorize(n)
        assert all(is_prime(p) and e > 0 for p, e in fac.items())
        assert math.prod(p ** e for p, e in fac.items()) == max(abs(n), 1)


def test_factorize_budget_raises():
    with pytest.raises(ResourceLimitError):
        factorize(HARD_RES)


def test_strong_pseudoprime_to_bases_2_to_37_is_split():
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert not is_prime(PSI_12) and is_prime(41) and is_prime(43)


def test_probable_prime_beyond_the_deterministic_range_raises():
    # psi_13 passes every base up to 41, and nothing proves it prime
    assert is_prime(PSI_13)
    with pytest.raises(ResourceLimitError):
        factorize(PSI_13)


def test_float_up_and_log_up_bound_from_above():
    rng = random.Random(8)
    for _ in range(200):
        q = Fraction(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 20))
        x = float_up(q)
        assert Fraction(x) >= q and Fraction(math.nextafter(x, 0)) < q
        with mpm.workdps(50):
            exact = mpm.log(mpm.mpf(q.numerator) / q.denominator)
            y = log_up(q)
            assert mpm.mpf(y) >= exact
            assert mpm.mpf(math.nextafter(y, -math.inf)) < exact + 1e-15
    assert float_up(3) == 3.0 and log_up(1) == 0.0


def _exact(x):
    """An mpf as a Fraction, exactly."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


BIG = st.integers(1, 2 ** 10_000)


@settings(max_examples=100, deadline=None)
@given(W=st.integers(53, 4096), m_lo=BIG, spread=st.integers(0, 2 ** 80),
       P=st.integers(-300, 12_000),
       terms=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), BIG),
                      max_size=4),
       tail=st.one_of(st.just(0.0),
                      st.floats(0, 1e3, allow_nan=False, allow_subnormal=True)),
       D=st.integers(1, 10 ** 6))
def test_log_bounds_hold_a_reference_log(W, m_lo, spread, P, terms, tail, D):
    # ints up to 10^4 bits, dyadics m 2^-P on both sides of 1, mixed signs
    lo, hi = log_bounds(terms, W, (m_lo, m_lo + spread), P, tail, D)
    assert type(lo) is type(hi) is Fraction
    with mpm.workprec(3 * W):
        logs = [(n, mpm.log(q)) for n, q in terms]
        ends = [mpm.log(mpm.mpf(m) * mpm.ldexp(1, -P))
                for m in (m_lo, m_lo + spread)]
        mid = sum((n * x for n, x in logs), mpm.mpf(0))
        ref = [_exact((mid + ends[0] - tail) / D),
               _exact((mid + ends[1] + tail) / D)]
        size = sum(abs(n) * abs(x) for n, x in logs) + max(map(abs, ends))
        # each of these few roundings is within 2^(1 - 3W) relative
        slack = Fraction(2) ** (6 - 3 * W) \
            * (_exact(size) + Fraction(tail) + 1) / D
    assert lo <= ref[0] + slack and ref[1] - slack <= hi
    ulps = 1 + sum(abs(n) for n, _ in terms)
    assert hi - lo <= ref[1] - ref[0] + 2 * slack \
        + Fraction(2) ** (6 - W) * ulps / D


def test_atanh_series_error_within_its_bound():
    # 0 <= 2^w atanh(a 2^-w) - s < 1.5 n for 0 <= a 2^-w <= 1/3, which
    # log_dyadic's bound is built on
    rng = random.Random(17)
    for _ in range(300):
        w = rng.choice((20, 53, 64, 200, 1000))
        a = rng.randint(0, (1 << w) // 3)
        s, n = numutil._atanh_sum(a, w)
        with mpm.workprec(3 * w):
            gap = _exact(mpm.atanh(mpm.mpf(a) / 2 ** w) * 2 ** w) - s
        assert -Fraction(1, 2 ** w) <= gap < Fraction(3, 2) * n + (n == 0)


def test_logs_near_one_enclose_at_low_precision():
    # k = 0 or -1, the magnitudes that close the interval orbits: there the
    # guard bits are fewest, so an error bound that falls short shows
    rng = random.Random(19)
    for _ in range(3000):
        prec = rng.randint(20, 80)
        m = rng.getrandbits(rng.randint(2, 120)) | 1
        e = -m.bit_length() + rng.randint(0, 1)
        lo, hi = log_dyadic(m, e, prec)
        with mpm.workprec(3 * prec + 64):
            ref = _exact(mpm.log(mpm.mpf(m) * mpm.ldexp(1, e))
                         * mpm.ldexp(1, prec))
        assert lo <= ref <= hi and hi - lo <= 4


@pytest.mark.parametrize("m,e", [(1, 0), (1, 5), (2 ** 40, -45), (4, -2)])
def test_powers_of_two_are_multiples_of_log_2(m, e):
    k = m.bit_length() - 1 + e
    for prec in (53, 300):
        lo, hi = log_dyadic(m, e, prec)
        with mpm.workprec(4 * prec):
            exact = k * mpm.log(2) * mpm.ldexp(1, prec)
            assert lo <= exact <= hi and hi - lo <= 4
        if k == 0:
            assert (lo, hi) == (0, 0)


@pytest.mark.parametrize("m", [0, -3])
def test_log_of_a_nonpositive_number_raises(m):
    with pytest.raises(ValueError):
        log_dyadic(m, 0, 64)


@pytest.mark.parametrize("s", range(2, 10))
def test_zeta_encloses_the_50_digit_value(s):
    # k = 1..8 of schanuel_ratio's zeta(k + 1), at its scale and at others
    with mpm.workdps(50):
        z = mpm.zeta(s)
        for prec in (1, 8, 53, 128, 160):
            lo, hi = zeta_dyadic(s, prec)
            ref = _exact(z * mpm.ldexp(1, prec))
            assert lo <= ref <= hi and hi - lo <= 3, prec


@pytest.mark.parametrize("s", [10, 60, 127, 128, 129, 130, 131, 1000, 10 ** 6])
def test_zeta_at_large_s(s):
    # from s = prec + 2 on, zeta(s) lies within 2^-prec above 1
    with mpm.workdps(60):
        ref = _exact((mpm.zeta(s) - 1) * mpm.ldexp(1, 180))
    lo, hi = zeta_dyadic(s, 128)
    assert lo << 52 <= (1 << 180) + ref <= hi << 52 and hi - lo <= 3


def test_zeta_of_one_raises():
    with pytest.raises(ValueError):
        zeta_dyadic(1, 64)


def test_reported_rounds_the_midpoint_and_bounds_the_ends():
    lo, hi = Fraction(1, 3) - Fraction(1, 10 ** 30), Fraction(1, 3)
    v, e = reported(lo, hi)
    assert v == float((lo + hi) / 2) == 1 / 3
    assert Fraction(v) - Fraction(e) <= lo and hi <= Fraction(v) + Fraction(e)
    assert Fraction(math.nextafter(e, 0)) < max(hi - Fraction(v),
                                                 Fraction(v) - lo)
    # beyond the float range, as a Mahler measure of about 1e320
    assert reported(Fraction(10 ** 320), Fraction(10 ** 320 + 1)) \
        == (math.inf, math.inf)
    assert reported(Fraction(-10 ** 320), Fraction(-10 ** 320)) \
        == (-math.inf, math.inf)


def _best_seconds(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def test_log_at_4096_bits_within_twice_libmp():
    # the ladder of dynamics._orbit_log_enclosure can reach such precisions;
    # libmp takes a log rounded down and one rounded up
    from mpmath import libmp
    rng = random.Random(11)
    ms = [rng.getrandbits(4096) | 1 for _ in range(6)]
    xs = [libmp.from_man_exp(m, -4096) for m in ms]

    def ours():
        for m in ms:
            log_dyadic(m, -4096, 4096)

    def theirs():
        for x in xs:
            libmp.mpf_log(x, 4096, libmp.round_floor)
            libmp.mpf_log(x, 4096, libmp.round_ceiling)

    ours()
    theirs()          # both caches of log 2 filled
    assert _best_seconds(ours) <= 2 * _best_seconds(theirs)


def test_logs_ignore_a_concurrent_libmp_cache_race(monkeypatch):
    # libmp grows its cache of log 2 without synchronization; logs taken on
    # integers while another thread grows it, and while other threads fill
    # numutil's own cache of log 2, equal the single-thread results
    from mpmath import libmp
    rng = random.Random(13)
    cases = [([(rng.randint(-99, 99), rng.randrange(2, 10 ** 12))
               for _ in range(3)], prec, (m, m + rng.randrange(10)), P,
              0.5, rng.randint(1, 99))
             for prec in (53, 117, 300, 1100)
             for m, P in ((rng.getrandbits(prec + 9) | 1, prec),
                          (rng.randrange(1, 999), -3))]
    expected = [log_bounds(*c) for c in cases]
    monkeypatch.setattr(numutil, "_LN2", {})
    stop = threading.Event()

    def grow():
        prec = 53
        while not stop.is_set():
            libmp.mpf_log(libmp.from_int(3), prec, libmp.round_floor)
            prec += 61

    results = []

    def work():
        results.append([log_bounds(*c) for c in cases])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    grower = threading.Thread(target=grow)
    workers = [threading.Thread(target=work) for _ in range(3)]
    try:
        grower.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(120)
    finally:
        stop.set()
        grower.join(120)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (grower, *workers))
    assert len(results) == 3 and all(r == expected for r in results)
