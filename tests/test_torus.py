"""Torus heights, monomial pushforwards, subadditivity."""

import math
import random
from fractions import Fraction

import mpmath as mpm
import pytest

from arithdyn.algebraic import AlgebraicNumber, cyclotomic_number
from arithdyn.errors import InvalidInputError
from arithdyn.green import bilu_moment_test
from arithdyn.polyforms import IntPoly
from arithdyn.torus import (TorusPoint, _product_polynomial,
                            monomial_pushforward, subadditivity_check,
                            torus_height)

SQRT2 = AlgebraicNumber(IntPoly((-2, 0, 1)))
CBRT2 = AlgebraicNumber(IntPoly((-2, 0, 0, 1)))


class TestTorusHeight:
    def test_roots_of_unity(self):
        x = TorusPoint((cyclotomic_number(5), cyclotomic_number(7)))
        assert torus_height(x) == pytest.approx(0.0, abs=1e-11)

    def test_two_and_half(self):
        x = TorusPoint((Fraction(2), Fraction(1, 2)))
        assert torus_height(x) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_mixed(self):
        x = TorusPoint((CBRT2, Fraction(3)))
        assert torus_height(x) == pytest.approx(math.log(2) / 3 + math.log(3),
                                                abs=1e-11)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(InvalidInputError):
            TorusPoint((Fraction(0), Fraction(2)))
        with pytest.raises(InvalidInputError):
            TorusPoint((AlgebraicNumber(IntPoly((0, 1))),))

    def test_permutation_and_inversion_invariance(self):
        rng = random.Random(1)
        for _ in range(100):
            coords = [Fraction(rng.randint(1, 40), rng.randint(1, 40))
                      for _ in range(3)]
            x = TorusPoint(coords)
            perm = list(coords)
            rng.shuffle(perm)
            assert torus_height(TorusPoint(perm)) == pytest.approx(
                torus_height(x), abs=1e-12)
            inv = [1 / c for c in coords]
            assert torus_height(TorusPoint(inv)) == pytest.approx(
                torus_height(x), abs=1e-12)

    def test_inversion_algebraic(self):
        # h(a) = h(1/a): the reversed minimal polynomial represents 1/a
        from arithdyn.algebraic import height_algebraic
        p = IntPoly((-3, 1, 2))
        q = p.reversed()
        assert height_algebraic(AlgebraicNumber(p)) == pytest.approx(
            height_algebraic(AlgebraicNumber(q)), abs=1e-11)


class TestPushforward:
    def test_rational_quotient(self):
        res = monomial_pushforward(TorusPoint((Fraction(2), Fraction(3))),
                                   (1, -1))
        assert res.rational == Fraction(2, 3)
        assert res.height == pytest.approx(math.log(3), abs=1e-14)
        assert res.height <= res.bound + 1e-12

    def test_zeta8_product(self):
        zeta8 = cyclotomic_number(8)
        res = monomial_pushforward(TorusPoint((zeta8, zeta8)), (1, 1))
        assert res.minpoly is not None
        # products of two primitive 8th roots are 4th roots of unity
        assert res.height == pytest.approx(0.0, abs=1e-10)
        vals = sorted(round(abs(x / y), 9) for x, y in res.cloud.points)
        assert all(v == 1.0 for v in vals)

    def test_identity_output(self):
        res = monomial_pushforward(TorusPoint((Fraction(4), Fraction(2))),
                                   (1, -2))
        assert res.rational == 1 and res.height == 0.0

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            monomial_pushforward(TorusPoint((Fraction(2), Fraction(3))), (0, 0))

    def test_bound_on_random_rational_points(self):
        rng = random.Random(9)
        for _ in range(1000):
            k = rng.randint(1, 4)
            coords = [Fraction(rng.randint(1, 60), rng.randint(1, 60))
                      for _ in range(k)]
            a = [rng.randint(-5, 5) for _ in range(k)]
            if all(e == 0 for e in a):
                a[0] = 1
            res = monomial_pushforward(TorusPoint(coords), a)
            assert res.height <= res.bound + 1e-9

    def test_algebraic_exact_minpoly(self):
        res = monomial_pushforward(TorusPoint((SQRT2, SQRT2)), (1, 1))
        # sqrt2 * sqrt2 = +/-2 over conjugate pairs
        assert res.minpoly is not None
        assert res.height == pytest.approx(math.log(2), abs=1e-11)

    def test_zero_exponent_coordinate_not_counted_toward_cap(self):
        # degrees 2 * 2 of the used coordinates are under the cap; the
        # degree-5 coordinate has exponent 0 and must not count
        golden = AlgebraicNumber(IntPoly((-1, -1, 1)))
        fifth = AlgebraicNumber(IntPoly((-2, 0, 0, 0, 0, 1)))
        res = monomial_pushforward(TorusPoint((golden, SQRT2, fifth)),
                                   (1, 1, 0))
        assert res.minpoly == IntPoly((4, 0, -6, 0, 1))
        assert res.height == pytest.approx(0.413892707669788, abs=1e-12)

    def test_large_degree_cloud_only(self):
        big = AlgebraicNumber(IntPoly((-2, 0, 0, 0, 0, 1)))  # degree 5
        res = monomial_pushforward(TorusPoint((big, big, big)), (1, 1, 1))
        assert res.minpoly is None and res.height is None
        assert res.cloud is not None and len(res.cloud) == 125
        assert res.bound == pytest.approx(3 * math.log(2) / 5, abs=1e-12)


def _conjugates_60(c):
    """All conjugates of a coordinate from 60-digit mpmath.polyroots."""
    if not isinstance(c, AlgebraicNumber):
        return [mpm.mpf(Fraction(c).numerator) / Fraction(c).denominator]
    return mpm.polyroots(list(reversed(c.minpoly.coeffs)), maxsteps=200,
                         extraprec=200)


class TestProductPolynomial:
    GOLDEN = AlgebraicNumber(IntPoly((-1, -1, 1)))
    CASES = [
        ((SQRT2, Fraction(3, 2)), (2, -1)),
        ((GOLDEN, Fraction(-5, 7)), (3, 2)),
        ((SQRT2, GOLDEN), (-1, 2)),
        ((CBRT2, Fraction(2, 3), SQRT2), (2, 5, -3)),
        ((cyclotomic_number(5), CBRT2), (-2, 1)),
        ((GOLDEN, SQRT2, GOLDEN), (1, 0, -3)),
    ]

    @pytest.mark.parametrize("coords, exps", CASES)
    def test_vanishes_at_conjugate_products(self, coords, exps):
        poly = _product_polynomial(coords, exps)
        degree = 1
        for c, a in zip(coords, exps):
            if a and isinstance(c, AlgebraicNumber):
                degree *= c.degree
        assert poly.degree == degree
        assert all(type(c) is int for c in poly.coeffs) and poly.lead > 0
        with mpm.workdps(60):
            values = [mpm.mpf(1)]
            for c, a in zip(coords, exps):
                if a:
                    values = [v * z ** a for v in values
                              for z in _conjugates_60(c)]
            assert len(values) == degree
            for z in values:
                scale = sum(abs(c) * abs(z) ** k
                            for k, c in enumerate(poly.coeffs))
                assert abs(poly(z)) <= 1e-30 * scale

    def test_rational_power_and_inverse(self):
        # (sqrt2)^2 (3/2)^-1 = 4/3 from both conjugates: (3X - 4)^2
        assert _product_polynomial((SQRT2, Fraction(3, 2)), (2, -1)).coeffs \
            == (16, -24, 9)


class TestSubadditivity:
    def test_rational_equality_case(self):
        rep = subadditivity_check(Fraction(2), Fraction(3))
        assert rep.holds and rep.h_product == pytest.approx(math.log(6),
                                                            abs=1e-12)

    def test_rational_cancellation(self):
        rep = subadditivity_check(Fraction(2), Fraction(1, 2))
        assert rep.holds and rep.h_product == pytest.approx(0.0, abs=1e-12)

    def test_sqrt2_squared(self):
        rep = subadditivity_check(SQRT2, SQRT2)
        assert rep.holds
        assert rep.h_product == pytest.approx(math.log(2), abs=1e-11)
        assert rep.h_alpha + rep.h_beta == pytest.approx(math.log(2),
                                                         abs=1e-11)

    def test_too_large_skipped_with_notice(self):
        big = AlgebraicNumber(IntPoly((-2, 0, 0, 0, 1)))  # degree 4
        huge = AlgebraicNumber(IntPoly((-3, 0, 0, 0, 0, 1)))  # degree 5
        rep = subadditivity_check(big, huge)
        assert rep.holds is None and "cap" in rep.note


class TestMomentLemmaOnTuples:
    def test_roots_of_unity_coordinate_clouds(self):
        # the shipped family: coordinate clouds of torsion tuples obey the
        # monomial moment lemma
        from arithdyn.green import EmpiricalMeasure
        for p in (7, 13):
            xi = cyclotomic_number(p)
            cloud = EmpiricalMeasure.from_algebraic(xi)
            rep = bilu_moment_test(cloud, [1, 2, -1])
            for mag in rep.moments.values():
                assert mag == pytest.approx(1 / (p - 1), abs=1e-9)
