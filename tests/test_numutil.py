"""Factorization, primality and upward-rounded floats."""

import math
import random
from fractions import Fraction

import mpmath as mpm
import pytest

from arithdyn.errors import ResourceLimitError
from arithdyn.numutil import factorize, float_up, is_prime, log_up

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
