"""Escape rates, G pairing, discrepancy, Fekete, energy, Bilu statistics."""

import cmath
import math
import random
import struct
from fractions import Fraction

import mpmath as mpm
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn import green
from arithdyn.algebraic import AlgebraicNumber, cyclotomic_number
from arithdyn.dynamics import RationalMap
from arithdyn.errors import (InvalidInputError, ResourceLimitError,
                             UnsupportedScopeError)
from arithdyn.green import (INF, PAIR_BLOCK, PAIR_POINT_CAP,
                            PAIR_PYTHON_POINTS, POWER_D_CAP,
                            EmpiricalMeasure, EscapeRateField,
                            _pairwise_mean_g, annulus_mass_bound,
                            baker_fit_constant, baker_mean_pairing,
                            bilu_moment_test, discrepancy, discrete_energy,
                            escape_rate, filled_julia_membership,
                            filled_julia_memberships, g_pairing,
                            height_discrepancy_check, height_discrepancy_terms,
                            transfinite_diameter, transfinite_diameter_sweep)
from arithdyn.polyforms import BinaryForm, IntPoly, cyclotomic, discriminant


def make_map(u, v):
    d = len(u) - 1
    return RationalMap(BinaryForm(d, u), BinaryForm(d, v))


POWER2 = make_map((1, 0, 0), (0, 0, 1))
POWER3 = make_map((1, 0, 0, 0), (0, 0, 0, 1))
Z2P1 = make_map((1, 0, 1), (0, 0, 1))
ZM1Z = make_map((1, 0, -1), (0, 1, 0))           # z - 1/z
Z2M1 = make_map((1, 0, -1), (0, 0, 1))
CUBIC = make_map((1, 0, 0, 1), (0, 2, 0, 0))     # (z^3 + 1) / (2 z^2)


def oracle_lambda_z2p1(x, y, K=40):
    """Independent oracle: raw high-precision iteration, no renormalization
    (mpmath exponents are unbounded, so the doubly exponential growth is
    harmless), then log max / d^K."""
    with mpm.workdps(60):
        X, Y = mpm.mpc(x), mpm.mpc(y)
        for _ in range(K):
            X, Y = X * X + Y * Y, Y * Y
        return float(mpm.log(max(abs(X), abs(Y))) / mpm.mpf(2) ** K)


def oracle_lambda_zm1z(z, K=40):
    """The same raw iteration for z - 1/z, (X, Y) -> (X^2 - Y^2, XY)."""
    with mpm.workdps(60):
        X, Y = mpm.mpc(z), mpm.mpc(1)
        for _ in range(K):
            X, Y = X * X - Y * Y, X * Y
        return float(mpm.log(max(abs(X), abs(Y))) / mpm.mpf(2) ** K)


class TestEscapeRate:
    def test_power_map_closed_form(self):
        field = EscapeRateField(POWER2)
        for x, y in ((0.5, 0.9), (2, 1), (3 + 4j, 1), (0, 2)):
            assert field.escape(x, y) == pytest.approx(
                math.log(max(abs(complex(x)), abs(complex(y)))), abs=1e-14)

    def test_z2p1_against_oracle(self):
        field = EscapeRateField(Z2P1, tol=1e-11)
        want = oracle_lambda_z2p1(0.0, 1.0)
        assert field.escape(0, 1) == pytest.approx(want, abs=1e-10)
        want2 = oracle_lambda_z2p1(0.5, 2.0)
        assert field.escape(0.5, 2.0) == pytest.approx(want2, abs=1e-10)

    def test_homogeneity(self):
        rng = random.Random(3)
        field = EscapeRateField(Z2P1, tol=1e-10)
        for _ in range(1000):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if x == 0 and y == 0:
                continue
            lam = rng.uniform(0.1, 9.0)
            got = field.escape(lam * x, lam * y)
            assert got == pytest.approx(field.escape(x, y) + math.log(lam),
                                        abs=3e-10)

    def test_functional_equation(self):
        rng = random.Random(4)
        for f in (Z2P1, make_map((1, 2, 0), (0, 1, 1))):
            field = EscapeRateField(f, tol=1e-10)
            for _ in range(1000):
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(x) + abs(y) < 1e-3:
                    continue
                ux, vy = f.U(x, y), f.V(x, y)
                assert field.escape(ux, vy) == pytest.approx(
                    f.degree * field.escape(x, y), abs=3e-9)

    def test_origin_rejected(self):
        with pytest.raises(InvalidInputError):
            escape_rate(EscapeRateField(POWER2), 0, 0)


class TestScalarAndArrayPaths:
    """`escape` (Python complex) and `escape_vec` (numpy arrays) run one
    recurrence; their values agree to rounding and their labels agree."""

    MAPS = [Z2P1, Z2M1, ZM1Z, CUBIC]

    @staticmethod
    def random_points(rng, k):
        xs, ys = [], []
        for _ in range(k):
            xs.append(complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)))
            # a quarter of the points are not affine-normalized
            ys.append(1.0 if rng.random() < 0.75 else
                      complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return xs, ys

    @pytest.mark.parametrize("f", MAPS, ids=["z^2+1", "z^2-1", "z-1/z",
                                             "cubic"])
    def test_values_and_labels_agree(self, f):
        # 3000 points over the four maps
        field = EscapeRateField(f, tol=1e-9)
        xs, ys = self.random_points(random.Random(12), 750)
        xs.append(1.0)
        ys.append(0.0)  # the point at infinity
        vec = field.escape_vec(xs, ys).tolist()
        for x, y, want in zip(xs, ys, vec):
            got = field.escape(x, y)
            assert abs(got - want) <= 8 * math.ulp(max(1.0, abs(want)))
        labels = filled_julia_memberships(field, xs, ys)
        assert [filled_julia_membership(field, x, y)
                for x, y in zip(xs, ys)] == labels
        assert {"inside", "outside"} <= set(labels)

    @pytest.mark.parametrize("f", MAPS, ids=["z^2+1", "z^2-1", "z-1/z",
                                             "cubic"])
    def test_non_finite_points(self, f):
        field = EscapeRateField(f, tol=1e-9)
        pts = [(complex(math.inf, 0), 1.0), (complex(0, -math.inf), 1.0),
               (complex(math.nan, 0), 1.0), (complex(1, math.nan), 1.0),
               (0.5, complex(math.inf, math.inf))]
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        with np.errstate(invalid="ignore"):
            assert all(math.isnan(v) for v in field.escape_vec(xs, ys))
            assert filled_julia_memberships(field, xs, ys) == \
                ["boundary-uncertain"] * len(pts)
        assert all(math.isnan(field.escape(x, y)) for x, y in pts)
        assert all(filled_julia_membership(field, x, y) == "boundary-uncertain"
                   for x, y in pts)

    def test_nan_in_either_coordinate(self):
        # Lambda = log max(|x|, |y|) for a power map: the maximum must
        # propagate NaN from either argument, as np.maximum does
        field = EscapeRateField(POWER2)
        for x, y in ((0.5, complex(math.nan, 0)), (complex(math.nan, 0), 0.5)):
            assert math.isnan(field.escape_vec([x], [y])[0])
            assert math.isnan(field.escape(x, y))

    def test_orbit_through_the_origin(self):
        # U(1, 1) = 0 exactly and V(1, 1) = 10^16 - (10^16 + 1) rounds to 0
        field = EscapeRateField(make_map((1, 0, -1),
                                         (10 ** 16, 0, -(10 ** 16 + 1))))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert math.isnan(field.escape_vec([1.0], [1.0])[0])
        assert math.isnan(field.escape(1.0, 1.0))
        assert filled_julia_membership(field, 1.0, 1.0) == "boundary-uncertain"

    def test_origin_rejected_on_both_paths(self):
        field = EscapeRateField(Z2P1)
        with pytest.raises(InvalidInputError):
            field.escape(0, 0)
        with pytest.raises(InvalidInputError):
            field.escape_vec([1, 0], [1, 0])

    def test_g_pairing_from_the_escape_rates(self):
        field = EscapeRateField(CUBIC, tol=1e-10)
        p1, p2 = 0.3 - 1.1j, (1.7, 0.5 + 0.2j)
        lam = field.escape_vec([p1, p2[0]], [1, p2[1]])
        want = (-math.log(abs(p1 * p2[1] - p2[0])) + lam[0] + lam[1]
                - field.res_term())
        assert g_pairing(field, p1, p2) == pytest.approx(want, rel=1e-14)


def two_call_lambda(field, x, y, log, max_abs):
    """The escape-rate recurrence with one BinaryForm call per form and
    step, each building its own power tables."""
    m = max_abs(x, y)
    acc = log(m)
    if field.map.is_unit_power_pair():
        return acc
    U, V, d = field.map.U, field.map.V, field.degree
    x, y = x / m, y / m
    w = 1.0
    for _ in range(field.depth):
        X, Y = U(x, y), V(x, y)
        m = max_abs(X, Y)
        w /= d
        acc = acc + w * log(m)
        x, y = X / m, Y / m
    return acc


def two_call_escape(field, x, y):
    try:
        return float(two_call_lambda(field, complex(x), complex(y),
                                     green._log, green._max_abs))
    except ZeroDivisionError:
        return math.nan


def two_call_escape_vec(field, xs, ys):
    return two_call_lambda(field, np.asarray(xs, dtype=complex),
                           np.asarray(ys, dtype=complex), np.log,
                           lambda a, b: np.maximum(abs(a), abs(b)))


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


class TestOnePowerTablePerStep:
    """`escape` and `escape_vec` evaluate U and V from one power table per
    step, with the products and sums of two BinaryForm calls: every value
    is that of the two-call recurrence, bit for bit."""

    MAPS = {"z^2": POWER2, "z^2+1": Z2P1, "z^2-1": Z2M1, "z-1/z": ZM1Z,
            "cubic": CUBIC,
            # a zero X^2 Y^2 coefficient in both forms
            "zero-middle": make_map((2, -1, 0, 3, 1), (1, 1, 0, -2, 4))}

    @staticmethod
    def points():
        rng = random.Random(24)
        pts = [(complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
                1.0 if rng.random() < 0.75 else
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
               for _ in range(200)]
        big, nan = 1.5e308 * (1 + 1j), math.nan
        # the NaN, inf and overflow points of TestPairwiseMeanG
        return pts + [(complex(nan, 0), 1.0), (1.0, complex(0, nan)),
                      (complex(math.inf, 1), 1.0), (big, 1.0), (big, big),
                      (1e308, 1.0), (-1e308, 1.0), (1.0, 0.0)]

    @pytest.mark.parametrize("name", MAPS)
    def test_bit_identical_to_two_form_calls(self, name):
        field = EscapeRateField(self.MAPS[name], tol=1e-10)
        pts = self.points()
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        with np.errstate(all="ignore"):
            got = field.escape_vec(xs, ys)
            want = two_call_escape_vec(field, xs, ys)
        assert got.tobytes() == want.tobytes()
        assert float_bits(field.escape(x, y) for x, y in pts) == \
            float_bits(two_call_escape(field, x, y) for x, y in pts)
        assert not np.isfinite(got[200:205]).any()


class TestMembership:
    def test_power_map_bidisk(self):
        field = EscapeRateField(POWER2)
        assert filled_julia_membership(field, 0.5, 0.9) == "inside"
        assert filled_julia_membership(field, 2, 1) == "outside"

    def test_z2p1_points(self):
        field = EscapeRateField(Z2P1, tol=1e-10)
        # oracle: the affine orbit of 0.1 escapes, so (0.1, 1) is outside
        assert oracle_lambda_z2p1(0.1, 1.0) > 0
        assert filled_julia_membership(field, 0.1, 1) == "outside"
        # a tiny pair iterates to zero in norm
        assert filled_julia_membership(field, 0.1, 0.2) == "inside"

    def test_boundary_uncertain(self):
        field = EscapeRateField(POWER2)
        assert filled_julia_membership(field, 1.0, 0.5) == "boundary-uncertain"


class TestGPairing:
    def test_power_map_antipodal(self):
        field = EscapeRateField(POWER2)
        assert g_pairing(field, (1, 1), (-1, 1)) == pytest.approx(
            -math.log(2), abs=1e-12)

    def test_diagonal_infinite(self):
        field = EscapeRateField(POWER2)
        assert g_pairing(field, (1, 1), (1, 1)) == math.inf
        assert g_pairing(field, (2, 2), (1, 1)) == math.inf

    def test_scaling_invariance(self):
        rng = random.Random(5)
        field = EscapeRateField(Z2P1, tol=1e-10)
        for _ in range(200):
            p1 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1)
            p2 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1)
            if p1[0] == p2[0]:
                continue
            base = g_pairing(field, p1, p2)
            lam = 7.0
            scaled = g_pairing(field, (lam * p1[0], lam), p2)
            assert scaled == pytest.approx(base, abs=3e-9)

    def test_symmetry(self):
        field = EscapeRateField(Z2P1, tol=1e-10)
        a, b = (0.3 + 0.4j, 1), (1.5, 1)
        assert g_pairing(field, a, b) == pytest.approx(
            g_pairing(field, b, a), abs=1e-12)

    def test_infinity_point(self):
        field = EscapeRateField(POWER2)
        # d((z,1),(1,0)) = 1 and Lambda(1,0) = 0 for the power map
        assert g_pairing(field, (1, 1), INF) == pytest.approx(0.0, abs=1e-12)


class TestDiscrepancy:
    def test_primitive_roots_against_discriminant(self):
        field = EscapeRateField(POWER2)
        for p in (5, 7, 11):
            xi = cyclotomic_number(p)
            m = xi.degree
            # oracle: sum log|zi - zj| = log|disc(Phi_p)| for monic Phi_p
            want = -math.log(abs(discriminant(cyclotomic(p)))) / (m * (m - 1))
            assert discrepancy(field, xi) == pytest.approx(want, abs=1e-10)

    def test_sqrt2(self):
        field = EscapeRateField(POWER2)
        xi = AlgebraicNumber(IntPoly((-2, 0, 1)))
        assert discrepancy(field, xi) == pytest.approx(-0.5 * math.log(2),
                                                       abs=1e-12)

    def test_degree_one_rejected(self):
        field = EscapeRateField(POWER2)
        with pytest.raises(InvalidInputError):
            discrepancy(field, AlgebraicNumber(IntPoly((-2, 1))))


class TestHeightDiscrepancyIdentity:
    @pytest.mark.parametrize("coeffs", [
        (-2, 0, 0, 0, 0, 1),            # X^5 - 2
        (-1, 0, 2),                     # 2X^2 - 1
        tuple(cyclotomic(7).coeffs),    # Phi_7
        (-1, -1, 1),                    # X^2 - X - 1
    ])
    def test_gap_small(self, coeffs):
        xi = AlgebraicNumber(IntPoly(coeffs))
        lhs, rhs, gap = height_discrepancy_check(xi, 2)
        assert gap <= 1e-6

    def test_x5_minus_2_value(self):
        xi = AlgebraicNumber(IntPoly((-2, 0, 0, 0, 0, 1)))
        lhs, rhs, gap = height_discrepancy_check(xi, 5)
        assert lhs == pytest.approx(math.log(2) / 5, abs=1e-12)

    def test_phi7_both_zero(self):
        lhs, rhs, gap = height_discrepancy_check(cyclotomic_number(7), 2)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-10

    def test_degree_one_rejected(self):
        with pytest.raises(InvalidInputError):
            height_discrepancy_check(AlgebraicNumber(IntPoly((-2, 1))), 2)

    def test_bad_power_rejected(self):
        with pytest.raises(UnsupportedScopeError):
            height_discrepancy_check(AlgebraicNumber(IntPoly((-2, 0, 1))), 1)

    def test_power_exponent_capped(self):
        # Lambda = log max(|x|, |y|) for every unit power map, so no term of
        # the identity depends on d; above the cap the 2d x 2d resultant of
        # the power map is not built
        xi = AlgebraicNumber(IntPoly((-2, 0, 1)))
        terms = height_discrepancy_terms(xi, 2)
        assert height_discrepancy_terms(xi, POWER_D_CAP) == terms
        assert height_discrepancy_check(xi, 2) == terms[1:]
        with pytest.raises(ResourceLimitError):
            height_discrepancy_check(xi, POWER_D_CAP + 1)


class TestBaker:
    def test_roots_of_unity_formula(self):
        field = EscapeRateField(POWER2)
        for n in range(2, 201):
            pts = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
            mean = baker_mean_pairing(field, pts)
            assert mean == pytest.approx(-math.log(n) / (n - 1), abs=1e-9)

    def test_two_points(self):
        field = EscapeRateField(POWER2)
        assert baker_mean_pairing(field, [(1, 1), (-1, 1)]) == pytest.approx(
            -math.log(2), abs=1e-12)

    def test_duplicates_infinite(self):
        field = EscapeRateField(POWER2)
        assert baker_mean_pairing(field, [1 + 0j, 1 + 0j, 2 + 0j]) == math.inf

    def test_fit_constant_excludes_duplicates(self):
        field = EscapeRateField(POWER2)
        fams = [[cmath.exp(2j * math.pi * k / n) for k in range(n)]
                for n in (4, 8, 16)]
        fams.append([1 + 0j, 1 + 0j])
        c, rows = baker_fit_constant(field, fams)
        assert c > 0
        assert sum(1 for _, m, dup in rows if dup) == 1

    def test_fekete_points_satisfy_baker(self):
        # spec example: 20 Fekete points for z^2+1 fit c < 5
        field = EscapeRateField(Z2P1, tol=1e-10)
        res = transfinite_diameter(field, 20, restarts=8, seed=1)
        mean = baker_mean_pairing(field, res.config)
        n = 20
        assert mean >= -5 * math.log(n) / n


class TestTransfiniteDiameter:
    def test_power_map_small_n(self):
        field = EscapeRateField(POWER2)
        res = transfinite_diameter(field, 3, restarts=8, seed=0)
        assert res.delta_n == pytest.approx(math.sqrt(3), abs=1e-6)
        res10 = transfinite_diameter(field, 10, restarts=8, seed=0)
        assert res10.delta_n == pytest.approx(10 ** (1 / 9), abs=1e-3)

    def test_formula_value(self):
        field = EscapeRateField(Z2P1)
        res = transfinite_diameter(field, 4, restarts=4, seed=0)
        assert res.formula_value == 1.0

    def test_monotone_decreasing_z2p1(self):
        field = EscapeRateField(Z2P1, tol=1e-10)
        sweep = transfinite_diameter_sweep(field, (5, 8, 12), restarts=10,
                                           seed=2)
        deltas = [sweep[n].delta_n for n in (5, 8, 12)]
        assert deltas[0] >= deltas[1] - 1e-3
        assert deltas[1] >= deltas[2] - 1e-3

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            transfinite_diameter(EscapeRateField(POWER2), 1)

    def test_reaches_julia_leja_reference_z2p1(self):
        # greedy Leja points among the 4096 depth-12 preimages of the
        # repelling fixed point (1 + i sqrt 3)/2 lie on the Julia set; their
        # value is a feasible delta_5 that the optimizer must match
        n = 5
        pts = np.array([(1 + 1j * math.sqrt(3)) / 2])
        for _ in range(12):
            r = np.sqrt(pts - 1)
            pts = np.concatenate([r, -r])
        sel = [int(np.argmax(np.abs(pts)))]
        acc = np.zeros(len(pts))
        while len(sel) < n:
            with np.errstate(divide="ignore"):
                acc += np.log(np.abs(pts - pts[sel[-1]]))
            acc[sel] = -np.inf
            sel.append(int(np.argmax(acc)))
        z = pts[sel]
        phi = sum(2 * math.log(abs(z[i] - z[j]))
                  for i in range(n) for j in range(i + 1, n))
        phi -= 2 * (n - 1) * sum(oracle_lambda_z2p1(w, 1) for w in z)
        ref = math.exp(phi / (n * (n - 1)))
        res = transfinite_diameter(EscapeRateField(Z2P1, tol=1e-10), n,
                                   restarts=4, seed=0)
        assert res.delta_n >= ref - 1e-3

    def test_reports_the_value_of_its_configuration(self):
        # z - 1/z, whose Lambda(z, 1) is not zero on its Julia set:
        # delta_12 must be the value of `config` under the raw-iteration
        # oracle, weights included
        n = 12
        res = transfinite_diameter(EscapeRateField(ZM1Z, tol=1e-10), n,
                                   restarts=2, seed=775654026)
        z = res.config
        phi = sum(2 * math.log(abs(z[i] - z[j]))
                  for i in range(n) for j in range(i + 1, n))
        phi -= 2 * (n - 1) * sum(oracle_lambda_zm1z(w) for w in z)
        assert res.delta_n == pytest.approx(math.exp(phi / (n * (n - 1))),
                                            rel=1e-8)

    def test_converged_describes_the_reported_configuration(self, monkeypatch):
        import arithdyn.green as green
        ends = []

        def recording(pool, lam, n):
            z = discrete_fekete(pool, lam, n)
            ends.append(z)
            return z

        discrete_fekete = green._discrete_fekete
        monkeypatch.setattr(green, "_discrete_fekete", recording)
        n = 20
        field = EscapeRateField(Z2P1, tol=1e-10)
        res = transfinite_diameter(field, n, restarts=4, seed=7)
        assert len(ends) == 5  # one exchange loop per pool
        assert any(np.array_equal(z, res.config) for z in ends)
        assert res.converged is True
        # that configuration comes from pool 1, which a single-pool run
        # with the same seed does not draw: given as a warm configuration
        # it wins there, though no exchange loop of that run ended in it
        ends.clear()
        warm = transfinite_diameter(field, n, restarts=0, seed=7,
                                    warm_configs=[res.config])
        assert len(ends) == 1
        assert not np.array_equal(ends[0], warm.config)
        assert warm.config == res.config and warm.delta_n == res.delta_n
        assert warm.converged is False

    def test_sweep_is_a_chain_of_warm_started_calls(self):
        field = EscapeRateField(ZM1Z, tol=1e-10)
        sweep = transfinite_diameter_sweep(field, (4, 9, 6), restarts=2,
                                           seed=1)
        assert list(sweep) == [9, 6, 4]
        assert not sweep[4].converged  # the shrunk delta_6 configuration wins
        warm = []
        for n in (9, 6, 4):
            res = transfinite_diameter(field, n, restarts=2, seed=1,
                                       warm_configs=warm)
            assert res == sweep[n]
            warm = [res.config]

    def test_pool_with_too_few_distinct_points(self, monkeypatch):
        import arithdyn.green as green
        # a pool of 10 distinct points cannot supply 12
        monkeypatch.setattr(green, "_julia_backward_samples",
                            lambda f, n, rng: np.resize(np.arange(10.0), n))
        with pytest.raises(ResourceLimitError):
            transfinite_diameter(EscapeRateField(Z2P1), 12, restarts=0)
        assert transfinite_diameter(EscapeRateField(Z2P1), 10,
                                    restarts=0).converged


CUBIC = make_map((1, 0, -1, 1), (0, 1, 0, 0))    # (X^3 - XY^2 + Y^3, X^2 Y)


def oracle_lambda_cubic(z, K=25):
    """The raw iteration of CUBIC, log max / 3^K."""
    with mpm.workdps(60):
        X, Y = mpm.mpc(z), mpm.mpc(1)
        for _ in range(K):
            X, Y = X ** 3 - X * Y * Y + Y ** 3, X * X * Y
        return float(mpm.log(max(abs(X), abs(Y))) / mpm.mpf(3) ** K)


def reference_deletions(lam, z, target):
    """Best single deletions down to `target` points, each scored by the
    full Fekete objective of the configuration it leaves (lam holds
    Lambda(z, 1), which does not depend on the other points).  Also says
    whether any step had two best scores within 1e-9."""
    idx, tie = list(range(len(z))), False
    while len(idx) > target:
        scores = []
        for s in range(len(idx)):
            rest = idx[:s] + idx[s + 1:]
            w, m = z[rest], len(rest)
            logs = np.log(np.abs(w[:, None] - w[None, :]) + np.eye(m))
            scores.append(np.sum(logs) - 2 * (m - 1) * np.sum(lam[rest]))
        top = sorted(scores, reverse=True)
        tie = tie or top[0] - top[1] <= 1e-9
        idx.pop(int(np.argmax(scores)))
    return z[idx], tie


class TestFeketePools:
    """Pools of backward-orbit points, drawn by 64 orbits at once, and the
    best-deletion shrinking of warm configurations."""

    @pytest.mark.parametrize("f", [Z2P1, ZM1Z, CUBIC])
    def test_orbits_run_backward(self, f):
        import arithdyn.green as green
        rng = np.random.default_rng(5)
        z = green._julia_backward_samples(f, green.FEKETE_POOL, rng)
        assert z.shape == (green.FEKETE_POOL,)
        # point k * 64 + i is step k of orbit i: f maps it to its previous
        w, prev = z[green.FEKETE_ORBITS:], z[:-green.FEKETE_ORBITS]
        u, v = f.U(w, np.ones(len(w))), f.V(w, np.ones(len(w)))
        assert np.all(np.abs(u - prev * v)
                      <= 1e-9 * (np.abs(u) + np.abs(prev * v)))

    def test_lost_orbits_restart_and_the_generator_use_is_fixed(self):
        # [Y^2 : X^2] sends infinity to 0: at w = 0 every orbit's equation
        # 1 - w z^2 = 0 has lost its leading coefficient
        import arithdyn.green as green

        class ZeroStart:
            """A generator whose orbits all start at 0."""

            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def normal(self, size):
                self.calls += 1
                return self.rng.normal(size=size) * (self.calls > 2)

            def integers(self, high, size):
                return self.rng.integers(high, size=size)

        zero = ZeroStart(5)
        z = green._julia_backward_samples(make_map((0, 0, 1), (1, 0, 0)),
                                          256, zero)
        assert np.all(np.isfinite(z))
        # an orbit restarted at w_0 has |z| = |w_0|^(+-2^-k) at step k; the
        # unused roots of the lost equations (+-i) would give |z| = 1
        assert np.max(np.abs(np.log(np.abs(z[:64])))) > 1e-14
        plain = np.random.default_rng(5)
        green._julia_backward_samples(Z2P1, 256, plain)
        assert zero.rng.bit_generator.state == plain.bit_generator.state

    def test_pool_points_lie_on_the_julia_set_z2p1(self):
        import arithdyn.green as green
        pool, _ = green._fekete_pools(EscapeRateField(Z2P1), 0, 3)[0]
        assert len(pool) == green.FEKETE_POOL
        assert max(oracle_lambda_z2p1(w, 1) for w in pool) <= 1e-8

    def test_pool_k_depends_only_on_seed_and_k(self):
        import arithdyn.green as green
        field = EscapeRateField(ZM1Z)
        (z0, lam0), = green._fekete_pools(field, 0, 11)
        z4, lam4 = green._fekete_pools(field, 4, 11)[0]
        assert z0.tobytes() == z4.tobytes()
        assert lam0.tobytes() == lam4.tobytes()

    def test_deletions_match_a_full_recompute(self):
        import arithdyn.green as green
        rng = np.random.default_rng(2024)
        fields = [EscapeRateField(Z2P1), EscapeRateField(ZM1Z)]
        compared = 0
        for k in range(200):
            field = fields[k % 2]
            n = int(rng.integers(3, 25))
            target = int(rng.integers(2, n))
            z = 1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            lam = field.escape_vec(z, np.ones(n))
            want, tie = reference_deletions(lam, z, target)
            got = green._greedy_delete(field, list(z), target)
            if not tie:
                compared += 1
                assert np.array_equal(np.array(got), want)
        assert compared >= 190
        # copies of a repeated point go first, then the best deletions
        z = np.array([3.0, 0.1, 3.0, 0.12, 3.0, -1 + 1j])
        got = green._greedy_delete(fields[0], list(z), 3)
        rest = z[[1, 3, 4, 5]]
        lam = fields[0].escape_vec(rest, np.ones(4))
        want, tie = reference_deletions(lam, rest, 3)
        assert not tie and np.array_equal(np.array(got), want)

    def test_degree_three_rational_map(self):
        n = 10
        res = transfinite_diameter(EscapeRateField(CUBIC, tol=1e-10), n,
                                   restarts=2, seed=0)
        assert res.formula_value == 1.0  # |Res| = U(0, 1)^2 U(1, 0) = 1
        assert res.delta_n >= res.formula_value
        z = res.config
        phi = sum(2 * math.log(abs(z[i] - z[j]))
                  for i in range(n) for j in range(i + 1, n))
        phi -= 2 * (n - 1) * sum(oracle_lambda_cubic(w) for w in z)
        assert res.delta_n == pytest.approx(math.exp(phi / (n * (n - 1))),
                                            rel=1e-8)


def weighted_fekete_value(z):
    """delta of a configuration under Lambda(z, 1) = log max(1, |z|), the
    weighted product formula (prod_(i != j) |z_i - z_j| /
    prod_i max(1, |z_i|)^(2(n-1)))^(1/(n(n-1))), taken in logs."""
    z = np.asarray(z, dtype=complex)
    n = len(z)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(z[:, None] - z[None, :]))
    s = np.sum(logs[~np.eye(n, dtype=bool)])
    s -= 2 * (n - 1) * np.sum(np.log(np.maximum(1.0, np.abs(z))))
    return math.exp(s / (n * (n - 1)))


def unit_power_pairs():
    """[X^d : Y^d], [-X^d : Y^d] and [Y^d : X^d] for d = 2, 3, by name."""
    out = {}
    for d in (2, 3):
        X, Y = (1,) + (0,) * d, (0,) * d + (1,)
        out[f"[X^{d}:Y^{d}]"] = make_map(X, Y)
        out[f"[-X^{d}:Y^{d}]"] = make_map((-1,) + X[1:], Y)
        out[f"[Y^{d}:X^{d}]"] = make_map(Y, X)
    return out


UNIT_POWER_PAIRS = unit_power_pairs()


class TestPowerMapFekete:
    """For Lambda = log max(|x|, |y|) the n-th roots of unity maximize the
    Fekete objective (Hadamard's inequality), so delta_n = n^(1/(n-1))."""

    @pytest.mark.parametrize("name", UNIT_POWER_PAIRS)
    def test_closed_form(self, name):
        field = EscapeRateField(UNIT_POWER_PAIRS[name])
        for n in (2, 3, 10, 64, 1000):
            res = transfinite_diameter(field, n, restarts=0)
            with mpm.workdps(60):
                want = float(mpm.mpf(n) ** (mpm.mpf(1) / (n - 1)))
            assert abs(res.delta_n - want) <= 4 * math.ulp(want)
            assert res.converged is True and len(res.config) == n
            assert np.allclose(np.array(res.config) ** n, 1.0, atol=1e-12)
            assert res.delta_n == pytest.approx(
                weighted_fekete_value(res.config), rel=1e-12)

    def test_sweep_and_pool_cap(self):
        field = EscapeRateField(POWER2)
        sweep = transfinite_diameter_sweep(field, (3, 10), restarts=0)
        assert sweep[3] == transfinite_diameter(field, 3, restarts=5, seed=9)
        assert transfinite_diameter(field, 4096).delta_n == pytest.approx(
            4096 ** (1 / 4095), rel=1e-15)
        with pytest.raises(ResourceLimitError):
            transfinite_diameter(field, 4097)
        with pytest.raises(InvalidInputError):
            transfinite_diameter(field, 3, restarts=-1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=2, max_size=12, unique=True))
    def test_no_configuration_beats_the_roots_of_unity(self, pts):
        n = len(pts)
        value = weighted_fekete_value([complex(x, y) for x, y in pts])
        assert value <= n ** (1 / (n - 1)) * (1 + 1e-9)


def naive_mean_g(field, points):
    """Mean of G over ordered distinct pairs by a double loop over the
    points, summed with math.fsum."""
    pairs = [(complex(x), complex(y)) for x, y in
             (p if isinstance(p, tuple) else (1, 0) if p == INF else (p, 1)
              for p in points)]
    lam = [field.escape(x, y) for x, y in pairs]
    terms = []
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, yj) in enumerate(pairs):
            if i != j:
                det = abs(xi * yj - xj * yi)
                if det == 0:
                    return math.inf
                terms.append(-math.log(det) + lam[i] + lam[j])
    n = len(pairs)
    return math.fsum(terms) / (n * (n - 1)) - field.res_term()


def mean_g_by_path(field, pairs, path, monkeypatch):
    """_pairwise_mean_g(field, pairs) with the sum over i < j taken in
    Python floats (path 'python') or with numpy (path 'numpy')."""
    cap = len(pairs) if path == "python" else len(pairs) - 1
    with monkeypatch.context() as m:
        m.setattr(green, "PAIR_PYTHON_POINTS", cap)
        return _pairwise_mean_g(field, pairs)


def block_rows(n):
    """Rows of one block of pairwise determinants for n points."""
    return min(n - 1, max(1, PAIR_BLOCK // n))


def block_boundaries():
    """Point counts at the row-count boundaries of the numpy blocks: the
    most that one block holds, the least that need two (the second holding
    one row), and, above those, the least whose last block is full and the
    least whose last block holds one row."""
    one = max(n for n in range(PAIR_PYTHON_POINTS + 1, 2 ** 10)
              if block_rows(n) == n - 1)
    full = next(n for n in range(one + 2, 2 ** 12)
                if (n - 1) % block_rows(n) == 0)
    single = next(n for n in range(one + 2, 2 ** 12)
                  if (n - 1) % block_rows(n) == 1)
    return [one, one + 1, full, single]


def same_value(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b,
                                                                   rel=1e-12)


class TestPairwiseMeanG:
    """The sums over i < j, in Python floats up to PAIR_PYTHON_POINTS points
    and in numpy row blocks above, against a double loop over i != j."""

    @pytest.mark.parametrize("n", [3, 64, 65])
    @pytest.mark.parametrize("f", [POWER2, Z2P1], ids=["z^2", "z^2+1"])
    def test_both_paths_agree_off_the_float_range(self, f, n, monkeypatch):
        field = EscapeRateField(f, tol=1e-10)
        circle = [(cmath.exp(2j * math.pi * k / n), 1.0) for k in range(n)]
        big = 1.5e308 * (1 + 1j)   # |big| overflows; abs(big) raises
        nan = math.nan
        cases = {   # name: (points, the mean on both paths)
            "nan": ([(complex(nan, 0), 1.0)] + circle[1:], nan),
            "nan-y": ([(1.0, complex(0, nan))] + circle[1:], nan),
            "inf": ([(complex(math.inf, 1), 1.0)] + circle[1:], nan),
            "modulus-overflow": ([(big, 1.0)] + circle[1:], nan),
            "scaled-overflow": ([(big, big)] + circle[1:], nan),
            "det-overflow": ([(1e308, 1.0), (-1e308, 1.0)] + circle[2:],
                             -math.inf),
            "repeat-and-nan": ([(complex(nan, 0), 1.0)] + circle[2:]
                               + [(2 * circle[-1][0], 2.0)], math.inf),
        }
        with np.errstate(all="ignore"):
            for name, (pairs, want) in cases.items():
                values = [mean_g_by_path(field, pairs, path, monkeypatch)
                          for path in ("python", "numpy")]
                assert all(same_value(v, want) for v in values), \
                    (name, values)

    @pytest.mark.parametrize("f", [POWER2, Z2P1], ids=["z^2", "z^2+1"])
    def test_escape_beyond_the_float_range(self, f):
        # abs raises OverflowError where np.abs gives inf; escape follows
        # escape_vec
        field = EscapeRateField(f)
        for x, y in ((1.5e308 * (1 + 1j), 1.0), (1.0, -1.5e308 * (1 - 1j))):
            with np.errstate(all="ignore"):
                want = field.escape_vec([x], [y])[0]
            assert same_value(field.escape(x, y), want)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 100, 257, 1000]
                             + block_boundaries())
    @pytest.mark.parametrize("f", [POWER2, Z2P1], ids=["z^2", "z^2+1"])
    def test_against_the_double_loop(self, f, n, monkeypatch):
        field = EscapeRateField(f, tol=1e-10)
        rng = random.Random(n)
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(n - 1)] + [INF]
        rng.shuffle(pts)
        want = naive_mean_g(field, pts)
        # every point also in scaled homogeneous coordinates (x s, y s)
        scales = [complex(rng.uniform(0.1, 10), rng.uniform(-10, 10))
                  for _ in pts]
        pairs = [(s * x, s * y)
                 for s, (x, y) in zip(scales, map(green.as_pair, pts))]
        with monkeypatch.context() as m:   # the count alone picks the path
            m.setattr(green, "_numpy_sums" if n <= PAIR_PYTHON_POINTS
                      else "_python_sums", None)
            assert baker_mean_pairing(field, pts) == pytest.approx(
                want, rel=1e-12)
            assert _pairwise_mean_g(field, pairs) == pytest.approx(
                want, rel=1e-12)
        for path in ("python", "numpy"):
            assert mean_g_by_path(field, pairs, path, monkeypatch) == \
                pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n,i,j", [(3, 0, 2), (64, 0, 63), (65, 63, 64),
                                       (257, 4, 250),
                                       (1000, 5, 900), (1000, 700, 999),
                                       (1000, 998, 999),
                                       # the last row of one block and the
                                       # first of the next
                                       (1000, block_rows(1000) - 1,
                                        block_rows(1000))])
    def test_a_duplicate_point_gives_infinity(self, n, i, j):
        field = EscapeRateField(Z2P1, tol=1e-10)
        pts = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        pts[j] = pts[i]
        assert baker_mean_pairing(field, pts) == math.inf
        # the same point in other coordinates coincides too
        pairs = [(z, 1.0) for z in pts]
        pairs[j] = (3 * pts[i], 3.0)
        assert _pairwise_mean_g(field, pairs) == math.inf

    def test_memory_is_bounded_by_the_block(self):
        import tracemalloc
        field = EscapeRateField(POWER2)
        pts = [cmath.exp(2j * math.pi * k / 2000) for k in range(2000)]
        # numpy's one-time state, from a set above the Python-float sum
        baker_mean_pairing(field, pts[:PAIR_PYTHON_POINTS + 1])
        tracemalloc.start()
        try:
            mean = baker_mean_pairing(field, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mean == pytest.approx(-math.log(2000) / 1999, rel=1e-12)
        # the n x n arrays of a full sum take more than 150 MB here, and
        # blocks of 2^18 determinants more than 8 MiB
        assert peak < 4 * 2 ** 20

    def test_point_count_capped(self):
        field = EscapeRateField(POWER2)
        n = PAIR_POINT_CAP + 1
        pts = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        with pytest.raises(ResourceLimitError):
            baker_mean_pairing(field, pts)
        with pytest.raises(ResourceLimitError):
            discrete_energy(field, EmpiricalMeasure(pts))
        with pytest.raises(ResourceLimitError):
            EmpiricalMeasure.roots_of_unity(n)
        with pytest.raises(ResourceLimitError):
            EmpiricalMeasure.primitive_roots_of_unity(n + 1)
        # the cap is checked before any point is built
        with pytest.raises(ResourceLimitError):
            EmpiricalMeasure.roots_of_unity(10 ** 12)
        assert len(EmpiricalMeasure.roots_of_unity(PAIR_POINT_CAP)) == \
            PAIR_POINT_CAP


class TestEnergy:
    def test_equispaced_circle(self):
        field = EscapeRateField(POWER2)
        nu = EmpiricalMeasure.roots_of_unity(64)
        assert discrete_energy(field, nu) == pytest.approx(
            -math.log(64) / 63, abs=1e-12)

    def test_clustered_large_positive(self):
        field = EscapeRateField(POWER2)
        rng = random.Random(6)
        pts = [1 + 1e-3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(64)]
        assert discrete_energy(field, EmpiricalMeasure(pts)) > 3.0

    def test_antipodal(self):
        field = EscapeRateField(POWER2)
        nu = EmpiricalMeasure([1 + 0j, -1 + 0j])
        assert discrete_energy(field, nu) == pytest.approx(-math.log(2),
                                                           abs=1e-12)

    def test_too_few_distinct(self):
        field = EscapeRateField(POWER2)
        with pytest.raises(InvalidInputError):
            discrete_energy(field, EmpiricalMeasure([1 + 0j, 1 + 0j]))

    @pytest.mark.parametrize("points", [
        [(1, 1), (2, 2)],
        [(1j, 2), (2j, 4), (-0.5j, -1)],
        [(3, 0), (-7.5, 0)],                      # [1:0] twice
        [0.1, (0.2, 2), (0.1 * 2 ** -40, 2 ** -40)],
    ], ids=["real-scaling", "complex-scaling", "infinity", "dyadic-scalings"])
    def test_one_point_in_several_scalings_is_one_point(self, points):
        # distinct points are counted up to scaling, exactly
        field = EscapeRateField(POWER2)
        with pytest.raises(InvalidInputError, match="two distinct points"):
            discrete_energy(field, EmpiricalMeasure(points))

    def test_points_one_ulp_apart_are_distinct(self):
        field = EscapeRateField(POWER2)
        x = math.nextafter(0.2, 1)
        nu = EmpiricalMeasure([(0.1, 1), (x, 2)])
        assert discrete_energy(field, nu) > 30
        # the pair [1:1], [2:2] with a third point: one pair coincides
        assert discrete_energy(field, EmpiricalMeasure(
            [(1, 1), (2, 2), (3, 1)])) == math.inf


def ramanujan_sum(n, a):
    """c_n(a) = sum over d | gcd(n, a) of mu(n / d) d."""
    def mu(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out
    g = math.gcd(n, a)
    return sum(mu(n // d) * d for d in range(1, g + 1) if g % d == 0)


class TestBiluMoments:
    def test_primitive_roots_of_any_order(self):
        # the mean of z^a over the primitive n-th roots is c_n(a) / phi(n)
        for n in range(1, 61):
            nu = EmpiricalMeasure.primitive_roots_of_unity(n)
            phi = sum(1 for k in range(n) if math.gcd(k, n) == 1)
            assert len(nu) == phi
            rep = bilu_moment_test(nu, range(1, 6))
            for a in range(1, 6):
                assert rep.moments[a] == pytest.approx(
                    abs(ramanujan_sum(n, a)) / phi, abs=1e-13), (n, a)

    def test_primitive_prime_roots_unchanged(self):
        # for a prime p, every root but 1, from the same cmath.exp calls
        for p in (2, 5, 11, 101):
            nu = EmpiricalMeasure.primitive_roots_of_unity(p)
            assert nu.points == EmpiricalMeasure(
                [cmath.exp(2j * math.pi * k / p) for k in range(1, p)]).points

    def test_primitive_prime_first_moment(self):
        for p in (5, 11, 101):
            nu = EmpiricalMeasure.primitive_roots_of_unity(p)
            rep = bilu_moment_test(nu, [1])
            assert rep.moments[1] == pytest.approx(1 / (p - 1), abs=1e-13)

    def test_full_roots_vanishing_moment(self):
        nu = EmpiricalMeasure.roots_of_unity(12)
        rep = bilu_moment_test(nu, [1, 5, 7, 11])
        for a, mag in rep.moments.items():
            assert mag < 1e-13

    def test_divisible_exponent(self):
        nu = EmpiricalMeasure.roots_of_unity(8)
        rep = bilu_moment_test(nu, [8])
        assert rep.moments[8] == pytest.approx(1.0, abs=1e-13)

    def test_exclusion_report(self):
        nu = EmpiricalMeasure([0 + 0j, 1 + 0j, INF])
        rep = bilu_moment_test(nu, [-1])
        assert rep.excluded == 2

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            bilu_moment_test(EmpiricalMeasure.roots_of_unity(4), [0])


class TestAnnulus:
    def test_cyclotomic_zero_mass(self):
        obs, bound = annulus_mass_bound(cyclotomic_number(101), 1.5)
        assert obs == 0.0 and bound == pytest.approx(0.0, abs=1e-9)

    def test_cube_root_two(self):
        obs, bound = annulus_mass_bound(AlgebraicNumber(IntPoly((-2, 0, 0, 1))),
                                        1.2)
        assert obs == 1.0
        assert bound == pytest.approx(2 * (math.log(2) / 3) / math.log(1.2),
                                      rel=1e-9)
        assert obs <= bound

    def test_one_half_inside(self):
        obs, bound = annulus_mass_bound(
            AlgebraicNumber.from_rational(Fraction(1, 2)), 3.0)
        assert obs == 0.0

    def test_r_must_exceed_one(self):
        with pytest.raises(InvalidInputError):
            annulus_mass_bound(cyclotomic_number(5), 1.0)
