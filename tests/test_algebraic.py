"""Mahler measures, heights of algebraic numbers, root-of-unity detection."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import mpmath as mpm
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithdyn.algebraic import (AlgebraicNumber, _phi_inverse,
                                cyclotomic_number, height_algebraic,
                                is_root_of_unity, lehmer_bounds,
                                local_height_breakdown, mahler_measure)
from arithdyn.errors import InvalidInputError, RepeatedRootError
from arithdyn.numutil import log_bounds
from arithdyn.polyforms import IntPoly, complex_roots, cyclotomic, discriminant

LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
# frozen from the certified root finder at tol 1e-13; consistent with the
# classical value 1.176280818...
LEHMER_MEASURE = 1.1762808182599176


class TestMahler:
    def test_linear(self):
        assert mahler_measure(IntPoly((-2, 1))).measure == pytest.approx(2.0, abs=1e-14)

    def test_cyclotomic_is_one(self):
        for n in (1, 2, 3, 7, 12, 30, 47):
            res = mahler_measure(cyclotomic(n))
            assert res.measure == pytest.approx(1.0, abs=1e-12)

    def test_lehmer(self):
        res = mahler_measure(LEHMER, 1e-12)
        assert res.measure == pytest.approx(LEHMER_MEASURE, abs=1e-10)
        assert res.error_bound < 1e-10
        # the paper's remark: no known smaller measure above 1 ("eps < 0.176")
        assert 1 < res.measure < 1.177

    def test_error_bound_envelope(self):
        res = mahler_measure(IntPoly((-2, 0, 0, 1)))
        truth = 2.0
        assert abs(res.measure - truth) <= 10 * res.error_bound + 1e-13

    @staticmethod
    def log_mahler_at_60_digits(P):
        """log|a_d| + sum log max(1, |xi|) at 60 digits: numpy's companion
        eigenvalues, those of modulus >= 1/2 polished by Newton's method in
        mpmath (the others add nothing), checked distinct."""
        import numpy as np
        high = list(reversed(P.coeffs))
        roots = []
        with mpm.workdps(60):
            for w in np.roots(high):
                if abs(w) < 0.5:
                    continue
                z = mpm.mpc(complex(w))
                for _ in range(30):
                    p, dp = mpm.polyval(high, z, derivative=True)
                    z -= p / dp
                    if abs(p / dp) < mpm.mpf(10) ** -55 * (1 + abs(z)):
                        break
                else:
                    raise AssertionError(f"Newton stalls from {w}")
                roots.append(z)
            assert all(abs(roots[i] - roots[j]) > mpm.mpf(10) ** -40
                       for i in range(len(roots)) for j in range(i))
            return mpm.log(abs(P.lead)) + sum(mpm.log(abs(z)) for z in roots
                                              if abs(z) > 1)

    def test_enclosures_hold_the_60_digit_value(self):
        # log_measure +- error_bound and measure +- measure_error hold the
        # true values, with no slack, on random polynomials of degree 2-48
        # and on (10^20 X - 10^20 - 1)(X + 2), whose root 1 + 10^-20 lies
        # just outside the unit circle
        rng = random.Random(23)
        polys = [IntPoly((-10 ** 20 - 1, 10 ** 20)) * IntPoly((2, 1))]
        while len(polys) < 41:
            d = rng.randint(2, 48)
            P = IntPoly(tuple(rng.randint(-10, 10) for _ in range(d))
                        + (rng.randint(1, 3),))
            if P.is_squarefree():
                polys.append(P)
        for P in polys:
            want = self.log_mahler_at_60_digits(P)
            res = mahler_measure(P)
            with mpm.workdps(60):
                assert abs(res.log_measure - want) <= res.error_bound, P
                assert abs(res.measure - mpm.exp(want)) \
                    <= res.measure_error, P

    def test_root_product_matches_mahler(self):
        # internal consistency: |a0 prod max(1,|xi|) - M(P)| small
        rng = random.Random(41)
        for _ in range(20):
            cs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 6)]
            p = IntPoly(cs).primitive()
            if p.degree < 1 or not p.is_squarefree():
                continue
            res = mahler_measure(p, 1e-12)
            prod = abs(p.lead)
            for rt in complex_roots(p, 1e-13):
                prod *= max(1.0, abs(rt.value))
            assert abs(prod - res.measure) < 10 * 1e-12 * max(1.0, res.measure)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            mahler_measure(IntPoly(()))

    @pytest.mark.parametrize("cs,measure", [((2, 4), 4.0), ((5,), 5.0),
                                            ((-3,), 3.0), ((6, 0, -6), 6.0)])
    def test_content_counts(self, cs, measure):
        # M(P) = |a_d| prod max(1, |root|) of P itself, constants included
        res = mahler_measure(IntPoly(cs))
        assert abs(Fraction(res.measure) - Fraction(measure)) \
            <= Fraction(res.measure_error) < 1e-12
        assert res.leading_coeff == cs[-1]
        assert abs(Fraction(res.log_measure) - Fraction(math.log(measure))) \
            <= Fraction(res.error_bound) + Fraction(math.ulp(measure))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.integers(-60, 60).filter(bool))
    def test_scaling_by_a_constant(self, cs, c):
        # M(c P) = |c| M(P) and log M(c P) = log|c| + log M(P), each side
        # within its stated error, for every P with a squarefree primitive
        # part, constants included
        P = IntPoly(cs)
        assume(not P.is_zero())
        Q = P.primitive()
        assume(Q.degree == 0 or Q.is_squarefree())
        m, mc = mahler_measure(P), mahler_measure(P * c)
        assert mc.leading_coeff == c * m.leading_coeff == c * P.lead
        assert abs(Fraction(mc.measure) - abs(c) * Fraction(m.measure)) \
            <= Fraction(mc.measure_error) + abs(c) * Fraction(m.measure_error)
        lo, hi = log_bounds(((1, abs(c)),), 80)
        gap = Fraction(mc.log_measure) - Fraction(m.log_measure)
        slack = Fraction(mc.error_bound) + Fraction(m.error_bound)
        assert lo - slack <= gap <= hi + slack
        assert mc.archimedean_part == m.archimedean_part

    def test_reversed_polynomial_same_measure(self):
        # M is invariant under coefficient reversal (h(a) = h(1/a))
        for cs in ((3, 1, -2), (1, 1, 0, -1, 2), (-5, 3, 7)):
            p = IntPoly(cs).primitive()
            if not p.is_squarefree() or p.coeffs[0] == 0:
                continue
            m1 = mahler_measure(p).log_measure
            m2 = mahler_measure(p.reversed()).log_measure
            assert m1 == pytest.approx(m2, abs=1e-11)


class TestHeight:
    def test_one_half(self):
        xi = AlgebraicNumber.from_rational(Fraction(1, 2))
        assert height_algebraic(xi) == pytest.approx(math.log(2), abs=1e-12)

    def test_cube_root_2(self):
        xi = AlgebraicNumber(IntPoly((-2, 0, 0, 1)))
        assert height_algebraic(xi) == pytest.approx(math.log(2) / 3, abs=1e-12)

    def test_root_of_unity_height_zero(self):
        assert height_algebraic(cyclotomic_number(7)) == pytest.approx(0.0, abs=1e-12)

    def test_galois_invariance_by_representation(self):
        a = AlgebraicNumber(IntPoly((-2, 0, 0, 1)))
        b = AlgebraicNumber(IntPoly((-4, 0, 0, 2)))  # same primitive minpoly
        assert a.minpoly == b.minpoly
        assert height_algebraic(a) == height_algebraic(b)


class TestBreakdown:
    def test_one_half(self):
        places = local_height_breakdown(AlgebraicNumber.from_rational(Fraction(1, 2)))
        assert places[2] == pytest.approx(math.log(2), abs=1e-14)
        assert places["inf"] == pytest.approx(0.0, abs=1e-12)

    def test_cube_root_two_archimedean_only(self):
        places = local_height_breakdown(AlgebraicNumber(IntPoly((-2, 0, 0, 1))))
        assert set(places) == {"inf"}
        assert places["inf"] == pytest.approx(math.log(2) / 3, abs=1e-12)

    def test_six_x2(self):
        places = local_height_breakdown(AlgebraicNumber(IntPoly((1, -5, 6))))
        assert places[2] == pytest.approx(math.log(2) / 2, abs=1e-14)
        assert places[3] == pytest.approx(math.log(3) / 2, abs=1e-14)
        assert places["inf"] == pytest.approx(0.0, abs=1e-12)

    def test_sum_equals_height(self):
        rng = random.Random(9)
        for _ in range(25):
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
            p = IntPoly(cs).primitive()
            if p.degree < 1 or not p.is_squarefree():
                continue
            xi = AlgebraicNumber(p)
            places = local_height_breakdown(xi)
            assert sum(places.values()) == pytest.approx(
                height_algebraic(xi), abs=1e-9)


class TestRootOfUnity:
    def test_phi12(self):
        v = is_root_of_unity(cyclotomic_number(12))
        assert v.is_root_of_unity and v.order == 12

    def test_golden_like(self):
        v = is_root_of_unity(AlgebraicNumber(IntPoly((1, -3, 1))))
        assert not v.is_root_of_unity

    def test_one(self):
        v = is_root_of_unity(AlgebraicNumber(IntPoly((-1, 1))))
        assert v.is_root_of_unity and v.order == 1

    def test_non_integer(self):
        v = is_root_of_unity(AlgebraicNumber(IntPoly((-1, 2))))
        assert not v.is_root_of_unity
        assert "algebraic integer" in v.reason

    def test_every_cyclotomic_polynomial_to_120(self):
        for n in range(1, 121):
            v = is_root_of_unity(cyclotomic_number(n))
            assert v.is_root_of_unity and v.order == n, n

    @pytest.mark.parametrize("P", [LEHMER] + [
        IntPoly((-1, -1) + (0,) * (d - 2) + (1,)) for d in range(2, 17)],
        ids=["lehmer"] + [f"X^{d}-X-1" for d in range(2, 17)])
    def test_unit_circle_neighbours_are_not(self, P):
        # Lehmer's polynomial has eight of its ten roots on the unit circle,
        # and X^d - X - 1 has most of its roots near it for large d
        v = is_root_of_unity(AlgebraicNumber(P))
        assert not v.is_root_of_unity and v.order is None
        assert v.reason == "no m with phi(m) = d gives divisibility"

    def test_kronecker_exhaustive_sweep(self):
        """h = 0 iff root of unity or zero, degree <= 4, |coeffs| <= 3."""
        for d in range(1, 5):
            for cs in product(range(-3, 4), repeat=d):
                coeffs = cs + (1,)  # monic of degree d
                p = IntPoly(coeffs)
                if not p.is_squarefree():
                    continue
                xi = AlgebraicNumber(p)
                h = height_algebraic(xi, 1e-10)
                verdict = is_root_of_unity(xi)
                zero_root = p.coeffs[0] == 0 and d == 1  # minpoly X
                if verdict.is_root_of_unity or zero_root:
                    assert h <= 1e-8
                else:
                    # Kronecker: nonzero non-rou algebraic integers have h > 0;
                    # if any root leaves the unit circle the height is visibly
                    # positive at this scale, and X * cyclotomic products with
                    # zero height must contain a zero or unity root
                    if h <= 1e-8:
                        # reducible survivor like X(X-1) or X * Phi_n:
                        # every root is 0 or a root of unity
                        for rt in complex_roots(p, 1e-10):
                            assert abs(rt.value) < 1e-8 \
                                or abs(abs(rt.value) - 1) < 1e-8

    def test_phi_inverse_matches_a_totient_scan(self):
        # phi(m) >= sqrt(m/2), so every m with phi(m) <= 200 is at most
        # 2 * 200^2; a sieve of phi over that range lists them all
        top = 2 * 200 ** 2
        phi = list(range(top + 1))
        for p in range(2, top + 1):
            if phi[p] == p:   # p is prime: nothing below it divided it
                for m in range(p, top + 1, p):
                    phi[m] -= phi[m] // p
        scan = {}
        for m in range(1, top + 1):
            scan.setdefault(phi[m], []).append(m)
        for d in range(1, 201):
            assert _phi_inverse(d) == tuple(scan.get(d, ())), d

    def test_phi_inverse_of_400_is_fast(self):
        # the scan of every m <= 2 d^2 took seconds here, nearly all of
        # `rou` on Phi_401
        _phi_inverse.cache_clear()
        t0 = time.perf_counter()
        found = _phi_inverse(400)
        assert time.perf_counter() - t0 < 0.05
        assert found == (401, 451, 505, 802, 808, 825, 902, 1000, 1010, 1100,
                         1212, 1500, 1650)

    def test_nonmonic_sweep_positive_height(self):
        # |lead| >= 2 primitive polynomials have h >= log(2)/d > 0
        rng = random.Random(12)
        for _ in range(200):
            d = rng.randint(1, 4)
            cs = [rng.randint(-3, 3) for _ in range(d)] + [rng.choice((2, 3))]
            p = IntPoly(cs).primitive()
            if p.degree != d or abs(p.lead) < 2 or not p.is_squarefree():
                continue
            xi = AlgebraicNumber(p)
            assert height_algebraic(xi) >= math.log(abs(p.lead)) / d - 1e-9
            assert not is_root_of_unity(xi).is_root_of_unity


class TestExerciseBounds:
    def _corpus(self, count=1000, dmax=8, seed=77):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            d = rng.randint(2, dmax)
            cs = [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)]
            p = IntPoly(cs).primitive()
            if p.degree == d and p.is_squarefree() and p.coeffs[0] != 0:
                out.append(p)
        return out

    def test_mahler_hadamard(self):
        # |disc(P)| <= d^d M(P)^(2d-2)
        for p in self._corpus(1000):
            d = p.degree
            m = mahler_measure(p, 1e-10).measure
            assert abs(discriminant(p)) <= (d ** d) * m ** (2 * d - 2) * (1 + 1e-8)

    def test_height_vs_coefficient_height(self):
        # 2^-d H(P) <= M(P) <= sqrt(d+1) H(P), rephrased on h(xi)
        for p in self._corpus(1000, seed=78):
            d = p.degree
            xi = AlgebraicNumber(p)
            h = height_algebraic(xi, 1e-10)
            hp = math.log(p.naive_height())
            assert hp / d - math.log(2) <= h + 1e-9
            assert h <= hp / d + math.log(d + 1) / (2 * d) + 1e-9


class TestLehmerBounds:
    def test_formula_values(self):
        el, _ = lehmer_bounds(1)
        assert el == pytest.approx(1 / (4 * math.e), rel=1e-12)
        el10, _ = lehmer_bounds(10)
        assert el10 == pytest.approx(1 / (4000 * math.e), rel=1e-12)

    def test_dobrowolski_shape(self):
        _, dob = lehmer_bounds(10, c=0.25, eps=0.1)
        assert dob == pytest.approx(0.25 / 10 ** 1.1, rel=1e-12)

    def test_lehmer_polynomial_respects_bound(self):
        xi = AlgebraicNumber(LEHMER)
        h = height_algebraic(xi)
        assert h == pytest.approx(math.log(LEHMER_MEASURE) / 10, abs=1e-10)
        el, _ = lehmer_bounds(10)
        assert h >= el

    def test_invalid_degree(self):
        with pytest.raises(InvalidInputError):
            lehmer_bounds(0)


class TestAlgebraicNumberInvariants:
    def test_requires_squarefree(self):
        with pytest.raises(RepeatedRootError):
            AlgebraicNumber(IntPoly((1, -2, 1)))

    def test_normalizes_to_primitive(self):
        xi = AlgebraicNumber(IntPoly((-4, 0, 0, 2)))
        assert xi.minpoly.coeffs == (-2, 0, 0, 1)


class TestRootsKeptOnThePolynomial:
    """Certified roots are solved once per IntPoly and reused."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import arithdyn.polyforms as pf
        calls = []
        solve = pf.certified_roots_mp

        def counting(coeffs, tol):
            calls.append(tol)
            return solve(coeffs, tol)

        monkeypatch.setattr(pf, "certified_roots_mp", counting)
        return calls

    def test_one_solve_serves_every_consumer(self, solves):
        from arithdyn.green import annulus_mass_bound
        xi = AlgebraicNumber(IntPoly(LEHMER.coeffs))  # nothing kept yet
        m = mahler_measure(xi.minpoly)
        places = local_height_breakdown(xi)
        verdict = is_root_of_unity(xi)
        obs, bound = annulus_mass_bound(xi, 1.5)
        assert len(solves) == 1
        assert m.measure == LEHMER_MEASURE
        assert sum(places.values()) == pytest.approx(m.log_measure / 10,
                                                     abs=1e-12)
        assert not verdict.is_root_of_unity
        assert obs <= bound

    def test_primitive_polynomial_is_its_own_primitive_part(self):
        assert LEHMER.primitive() is LEHMER
        assert IntPoly((-4, 0, 2)).primitive() == IntPoly((-2, 0, 1))
        assert IntPoly((1, -1)).primitive() == IntPoly((-1, 1))

    def test_tighter_request_solves_again(self, solves):
        P = IntPoly((-1, -1, 0, 1))
        _, _, loose = P.certified_roots(1e-10)
        tol = max(loose) / 10
        solved = P.certified_roots(tol)
        radii = solved[2]
        assert len(solves) == 2 and max(radii) < tol
        # the tighter solve is kept and its error matches a fresh solve's
        _, _, fresh = IntPoly(P.coeffs).certified_roots(tol)
        assert max(radii) <= max(fresh)
        assert P.certified_roots(tol) == solved and len(solves) == 3
        assert mahler_measure(P, tol * 1e2).error_bound \
            <= mahler_measure(IntPoly(P.coeffs), tol * 1e2).error_bound
        assert len(solves) == 4
