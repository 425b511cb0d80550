"""Orbits, good reduction, canonical heights (both routes), preperiodicity."""

import math
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithdyn import dynamics
from arithdyn.dynamics import (RationalMap,
                               canonical_height_global,
                               canonical_height_local,
                               commuting_height_agreement, good_reduction_at,
                               iterate, northcott_bound, orbit_gcds,
                               padic_gcd_valuations,
                               preperiodic_points_rational)
from arithdyn.errors import DegenerateMapError, InvalidInputError
from arithdyn.polyforms import BinaryForm
from arithdyn.projective import ProjPointQ


def make_map(u, v):
    d = len(u) - 1
    return RationalMap(BinaryForm(d, u), BinaryForm(d, v))


def single_modulus_ledger(f, x, p, K):
    """The p-adic gcd ledger on the one modulus p^m, m = (R + 1)(K + 2) + 4,
    R = v_p(Res), that bounds every rung of `padic_gcd_valuations`: the
    oracle for its precision ladder."""
    R = dict(f.res_factors).get(p, 0)
    if R == 0:
        return [0] * K
    m = (R + 1) * (K + 2) + 4
    mod = p ** m
    a, b = x.coords
    a %= mod
    b %= mod
    vals = []

    def val_capped(n, cap):
        if n == 0:
            return cap
        v = 0
        while n % p == 0 and v < cap:
            n //= p
            v += 1
        return v

    for _ in range(K):
        A = f.U(a, b) % mod
        B = f.V(a, b) % mod
        v = min(val_capped(A, R + 1), val_capped(B, R + 1))
        assert v <= R
        vals.append(v)
        if v:
            m -= v
            mod = p ** m
            A //= p ** v
            B //= p ** v
        a, b = A % mod, B % mod
    return vals


POWER2 = make_map((1, 0, 0), (0, 0, 1))           # z^2
Z2P1 = make_map((1, 0, 1), (0, 0, 1))             # z^2 + 1
Z2M1 = make_map((1, 0, -1), (0, 0, 1))            # z^2 - 1
CHEB2 = make_map((1, 0, -2), (0, 0, 1))           # z^2 - 2
CHEB3 = make_map((1, 0, -3, 0), (0, 0, 0, 1))     # z^3 - 3z


def random_map(rng, d=2, cmax=9):
    while True:
        u = [rng.randint(-cmax, cmax) for _ in range(d + 1)]
        v = [rng.randint(-cmax, cmax) for _ in range(d + 1)]
        try:
            return make_map(u, v)
        except (InvalidInputError, DegenerateMapError):
            continue


class TestRationalMap:
    def test_joint_content_normalized(self):
        f = make_map((2, 0, 2), (0, 0, 2))
        assert f.U.coeffs == (1, 0, 1) and f.V.coeffs == (0, 0, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMapError):
            make_map((0, 1, 0), (0, 1, 0))

    def test_power_detection(self):
        assert POWER2.is_unit_power_pair()
        assert make_map((0, 0, 1), (1, 0, 0)).is_unit_power_pair()
        assert not Z2P1.is_unit_power_pair()
        assert not make_map((2, 0, 0), (0, 0, 1)).is_unit_power_pair()

    def test_json_round_trip(self):
        f = RationalMap.from_json({"d": 2, "U": [1, 0, 1], "V": [0, 0, 1]})
        assert f.to_json() == {"d": 2, "U": [1, 0, 1], "V": [0, 0, 1]}

    @pytest.mark.parametrize("coords", [(3,), (1, 2, 3)],
                             ids=["P^0", "P^2"])
    @pytest.mark.parametrize("f", [POWER2, Z2P1], ids=["power", "z^2+1"])
    def test_point_outside_p1_refused(self, f, coords):
        # the power map's global route used to return log 3 with error 0
        x = ProjPointQ(coords)
        for call in (f.apply, lambda x: iterate(f, x),
                     lambda x: canonical_height_global(f, x),
                     lambda x: canonical_height_local(f, x)):
            with pytest.raises(InvalidInputError,
                               match=rf"P\^{len(coords) - 1}\b"):
                call(x)


class TestGoodReduction:
    def test_power_map_everywhere(self):
        for p in (2, 3, 5, 97):
            assert good_reduction_at(POWER2, p)

    def test_z2_plus_1_everywhere(self):
        assert Z2P1.res == 1
        for p in (2, 3, 5, 7):
            assert good_reduction_at(Z2P1, p)

    def test_bad_prime_matches_resultant(self):
        f = make_map((1, 0, 0), (0, 0, 2))  # Res = 4
        assert abs(f.res) == 4
        assert not good_reduction_at(f, 2)
        assert good_reduction_at(f, 3)
        assert f.bad_primes == (2,)

    def test_random_maps_consistent(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_map(rng)
            for p in (2, 3, 5, 7, 11):
                assert good_reduction_at(f, p) == (f.res % p != 0)


class TestIterate:
    def test_power_map_cycle(self):
        rec = iterate(POWER2, ProjPointQ((1, -1)))
        assert rec.status == "cycle"
        assert rec.cycle_entry == 1 and rec.cycle_length == 1
        assert [p.coords for p in rec.points[:3]] == [(1, -1), (1, 1), (1, 1)]

    def test_z2_minus_1_two_cycle(self):
        rec = iterate(Z2M1, ProjPointQ((0, 1)))
        assert rec.status == "cycle"
        assert rec.cycle_entry == 0 and rec.cycle_length == 2
        # z = -1 normalizes to [1:-1] (first nonzero coordinate positive)
        assert [p.coords for p in rec.points] == [(0, 1), (1, -1), (0, 1)]

    def test_z2_plus_1_escapes(self):
        rec = iterate(Z2P1, ProjPointQ((0, 1)), height_cap=3.0)
        assert rec.status == "escaping"
        hs = [p.height() for p in rec.points]
        assert hs[1] == pytest.approx(0.0)       # 1
        assert hs[2] == pytest.approx(math.log(2))
        assert hs[3] == pytest.approx(math.log(5))

    def test_orbit_record_invariant(self):
        rng = random.Random(77)
        for _ in range(15):
            f = random_map(rng)
            x = ProjPointQ((rng.randint(-9, 9), rng.randint(1, 9)))
            rec = iterate(f, x, n_max=6, height_cap=80.0)
            for k in range(len(rec.gcds)):
                a, b = rec.points[k].coords
                a2, b2 = rec.points[k + 1].coords
                g = rec.gcds[k]
                # positive gcd; sign normalization may flip both coordinates
                assert (f.U(a, b), f.V(a, b)) in \
                    ((g * a2, g * b2), (-g * a2, -g * b2))
                assert math.gcd(abs(a2), abs(b2)) == 1

    def test_budget_exhausted(self):
        rec = iterate(Z2P1, ProjPointQ((3, 1)), n_max=100, height_cap=1e9,
                      digit_budget=10)
        assert rec.status == "budget-exhausted"
        # the step that would cross the budget is not taken: every point
        # recorded has at most 10 digits (3, 10, 101, 10202, 104080805)
        assert len(rec.points) == 5 == len(rec.gcds) + 1
        assert all(p.H() < 10 ** 10 for p in rec.points)


class TestPadicLedger:
    def test_matches_exact_gcds(self):
        rng = random.Random(13)
        checked = 0
        while checked < 12:
            f = random_map(rng)
            if abs(f.res) == 1:
                continue
            x = ProjPointQ((rng.randint(-9, 9), rng.randint(1, 9)))
            rec = iterate(f, x, n_max=7, height_cap=1e9)
            K = len(rec.gcds)
            if K < 3:
                continue
            assert orbit_gcds(f, x, K) == rec.gcds
            checked += 1

    def test_gcd_divides_resultant(self):
        rng = random.Random(14)
        for _ in range(10):
            f = random_map(rng)
            x = ProjPointQ((rng.randint(-20, 20), rng.randint(1, 20)))
            rec = iterate(f, x, n_max=6, height_cap=1e9)
            for g in rec.gcds:
                assert f.res % g == 0

    def test_good_reduction_gives_zeros(self):
        vals = padic_gcd_valuations(Z2P1, ProjPointQ((3, 5)), 7, 20)
        assert vals == [0] * 20

    def test_ladder_matches_single_modulus(self, monkeypatch):
        # every bad prime of random maps of degree 2-5 and of Lattes maps,
        # at orbit lengths up to 33; some ledgers climb past their first rung
        rungs = []
        rung = dynamics._ledger_rung

        def counted(f, x, p, K, R, m):
            vals = rung(f, x, p, K, R, m)
            rungs.append(vals is None)
            return vals

        monkeypatch.setattr(dynamics, "_ledger_rung", counted)
        rng = random.Random(22)
        maps = [random_map(rng, d) for d in (2, 3, 4, 5) * 15]
        maps += [lattes(a, b) for a, b in ((-16, 16), (0, 1), (-3024, 46224),
                                           (-2, 3), (5, -7))]
        calls = 0
        for f in maps:
            x = ProjPointQ((rng.randint(-50, 50), rng.randint(1, 50)))
            for K in (0, 1, 5, 20, 33):
                for p in f.bad_primes:
                    assert (padic_gcd_valuations(f, x, p, K)
                            == single_modulus_ledger(f, x, p, K)), (f, x, p, K)
                    calls += 1
        assert calls > 500 and any(rungs)

    def test_restart_on_a_second_rung(self, monkeypatch):
        # Res = -2^4 7559: from (45, 8) the 2-adic valuations alternate 1, 0,
        # so the first rung, m = 2(4 + 1) = 10, has fewer than R + 2 = 6
        # digits left after the fifth 1, and the ledger restarts at m = 20
        f = make_map((-8, -2, 7, -5), (-2, 2, -8, 4))
        assert f.res == -2 ** 4 * 7559
        moduli = []
        rung = dynamics._ledger_rung

        def counted(f, x, p, K, R, m):
            moduli.append(m)
            return rung(f, x, p, K, R, m)

        monkeypatch.setattr(dynamics, "_ledger_rung", counted)
        x = ProjPointQ((45, 8))
        vals = padic_gcd_valuations(f, x, 2, 15)
        assert vals == [1, 0] * 7 + [1] and sum(vals) == 8
        assert moduli == [10, 20]
        assert vals == single_modulus_ledger(f, x, 2, 15)
        assert padic_gcd_valuations(f, x, 7559, 15) == \
            single_modulus_ledger(f, x, 7559, 15)
        rec = iterate(f, x, n_max=6, height_cap=1e9)
        assert orbit_gcds(f, x, len(rec.gcds)) == rec.gcds


class TestCanonicalHeightGlobal:
    def test_power_map_exact(self):
        x = ProjPointQ((2, 3))
        res = canonical_height_global(POWER2, x, 1e-10)
        assert res.value == x.height() and res.error == 0.0 and res.n_used == 0

    def test_preperiodic_zero(self):
        res = canonical_height_global(Z2M1, ProjPointQ((0, 1)), 1e-10)
        assert res.value == 0.0 and res.error == 0.0

    def test_cross_check_z2p1(self):
        g = canonical_height_global(Z2P1, ProjPointQ((0, 1)), 1e-6)
        l = canonical_height_local(Z2P1, ProjPointQ((0, 1)), 1e-6)
        assert abs(g.value - l.total) <= g.error + l.total_error
        assert g.error <= 1e-6 and l.total_error <= 1e-6

    def test_tolerance_scaling(self):
        g1 = canonical_height_global(Z2P1, ProjPointQ((1, 2)), 1e-4)
        g2 = canonical_height_global(Z2P1, ProjPointQ((1, 2)), 1e-9)
        assert abs(g1.value - g2.value) <= g1.error + g2.error


class TestCanonicalHeightLocal:
    def test_power_map_ledger(self):
        led = canonical_height_local(POWER2, ProjPointQ((2, 3)), 1e-10)
        assert led.finite_places == {}
        assert led.archimedean == (math.log(3), 0.0)
        assert led.total == math.log(3) and led.total_error == 0.0

    def test_preperiodic_total_zero(self):
        led = canonical_height_local(Z2M1, ProjPointQ((1, 1)), 1e-9)
        assert abs(led.total) <= led.total_error + 1e-9

    def test_support_subset_bad_primes(self):
        rng = random.Random(23)
        for _ in range(8):
            f = random_map(rng)
            x = ProjPointQ((rng.randint(-9, 9), rng.randint(1, 9)))
            led = canonical_height_local(f, x, 1e-6)
            assert set(led.finite_places) <= set(f.bad_primes)

    def test_good_reduction_finite_part_zero(self):
        led = canonical_height_local(Z2P1, ProjPointQ((7, 5)), 1e-8)
        assert led.finite_places == {}

    def test_matches_global_random(self):
        rng = random.Random(37)
        for _ in range(10):
            f = random_map(rng, cmax=5)
            x = ProjPointQ((rng.randint(-7, 7), rng.randint(1, 7)))
            g = canonical_height_global(f, x, 1e-7)
            l = canonical_height_local(f, x, 1e-7)
            assert abs(g.value - l.total) <= g.error + l.total_error + 1e-12


class TestIndependentOracles:
    """Pin the interval machinery against raw high-precision iteration and
    pure exact-integer orbits.  The raw iteration sums the coefficients
    itself, independent of `BinaryForm.__call__`, which the interval
    kernels use."""

    def test_escape_rate_against_raw_iteration(self):
        import mpmath as mpm
        from arithdyn.dynamics import escape_rate_exact_pair
        for u, v, a, b in (((1, 0, 1), (0, 0, 1), 3, 5),
                           ((2, -1, 3), (1, 1, 1), 2, 7),
                           ((1, 2, 0), (0, 1, 1), -4, 3)):
            f = make_map(u, v)
            K = 30

            def form(F, X, Y):
                return sum(c * X ** (F.degree - i) * Y ** i
                           for i, c in enumerate(F.coeffs))

            with mpm.workdps(80):
                X, Y = mpm.mpf(a), mpm.mpf(b)
                for _ in range(K):
                    X, Y = form(f.U, X, Y), form(f.V, X, Y)
                raw = float(mpm.log(max(abs(X), abs(Y))) / mpm.mpf(2) ** K)
            val, err = escape_rate_exact_pair(f, a, b, 1e-10)
            tail = f.compacity_tail_constant() / 2 ** K
            assert abs(val - raw) <= err + tail + 1e-12

    def test_local_total_against_exact_orbit(self):
        # |hhat - d^-n h(x_n)| <= c_max/(d^n (d-1)) with exact integers only
        f = make_map((2, -1, 3), (1, 1, 1))
        x = ProjPointQ((1, 2))
        n = 16
        rec = iterate(f, x, n_max=n, height_cap=1e9, digit_budget=10 ** 6)
        assert len(rec.points) == n + 1
        approx = rec.points[n].height() / f.degree ** n
        c_up, c_lo = f.functoriality_constants()
        budget = max(c_up, c_lo) / (f.degree ** n * (f.degree - 1))
        led = canonical_height_local(f, x, 1e-10)
        assert abs(led.total - approx) <= budget + led.total_error + 1e-12

    def test_global_interval_continuation_against_exact(self):
        # force the interval phase with a tiny exact-phase allowance and
        # compare against the pure exact value at the same n
        import arithdyn.dynamics as dyn
        f = make_map((1, 0, 1), (0, 0, 1))
        x = ProjPointQ((1, 2))
        g_full = canonical_height_global(f, x, 1e-9)
        old = dyn.EXACT_PHASE_BITS
        dyn.EXACT_PHASE_BITS = 16
        try:
            g_iv = canonical_height_global(f, x, 1e-9)
        finally:
            dyn.EXACT_PHASE_BITS = old
        assert abs(g_full.value - g_iv.value) <= g_full.error + g_iv.error


class TestCanonicalHeightProperties:
    def test_multiplicativity_under_f(self):
        # hhat(f x) = d hhat(x) on a hundred random (map, point) pairs
        rng = random.Random(53)
        for _ in range(25):
            f = random_map(rng, cmax=4)
            for _ in range(4):
                x = ProjPointQ((rng.randint(-6, 6), rng.randint(1, 6)))
                tol = 1e-8
                hx = canonical_height_local(f, x, tol).total
                hfx = canonical_height_local(f, f.apply(x), tol).total
                assert hfx == pytest.approx(f.degree * hx,
                                            abs=2 * (f.degree + 1) * tol)

    def test_nonnegative_and_close_to_naive(self):
        rng = random.Random(59)
        for _ in range(12):
            f = random_map(rng, cmax=6)
            x = ProjPointQ((rng.randint(-20, 20), rng.randint(1, 20)))
            led = canonical_height_local(f, x, 1e-7)
            assert led.total >= -led.total_error - 1e-12
            c_up, c_lo = f.functoriality_constants()
            c = max(c_up, c_lo)
            assert abs(led.total - x.height()) <= c / (f.degree - 1) + 1e-6

    def test_zero_iff_preperiodic_small_sample(self):
        for f in (POWER2, Z2M1, Z2P1, CHEB2):
            for coords in ((0, 1), (1, 1), (1, 0), (2, 1), (1, -2), (3, 2)):
                x = ProjPointQ(coords)
                led = canonical_height_local(f, x, 1e-9)
                rec = iterate(f, x, n_max=500,
                              height_cap=northcott_bound(f) + 5.0)
                if rec.status == "cycle":
                    assert abs(led.total) <= led.total_error + 1e-9
                else:
                    assert led.total > 1e-6


class TestPreperiodic:
    def test_power_map_list(self):
        pts = preperiodic_points_rational(POWER2)
        assert {p.coords for p in pts} == {(0, 1), (1, 0), (1, 1), (1, -1)}

    def test_z2_plus_1_only_infinity(self):
        pts = preperiodic_points_rational(Z2P1)
        assert {p.coords for p in pts} == {(1, 0)}

    def test_z2_minus_1_against_oracle(self):
        pts = {p.coords for p in preperiodic_points_rational(Z2M1)}
        # independent Fraction-arithmetic oracle over the same bound
        bound = northcott_bound(Z2M1)
        hmax = int(math.exp(bound)) + 1
        want = set()
        for den in range(0, hmax + 1):
            for num in range(-hmax, hmax + 1):
                if den == 0:
                    if num != 1:
                        continue
                    want.add((1, 0))  # infinity is fixed
                    continue
                if math.gcd(abs(num), den) != 1:
                    continue
                seen = set()
                z = Fraction(num, den)
                finite = True
                for _ in range(200):
                    if z in seen:
                        break
                    seen.add(z)
                    if max(abs(z.numerator), z.denominator) > 10 ** 9:
                        finite = False
                        break
                    z = z * z - 1
                else:
                    finite = False
                if finite:
                    want.add(ProjPointQ((num, den)).coords)
        assert pts == want


class TestCommuting:
    def test_identical_maps(self):
        rep = commuting_height_agreement(Z2P1, Z2P1, tol=1e-9)
        assert rep.max_gap == 0.0

    def test_power_pair_exact(self):
        f = POWER2
        g = make_map((1, 0, 0, 0), (0, 0, 0, 1))  # z^3
        rep = commuting_height_agreement(f, g, tol=1e-9)
        assert rep.max_gap <= 1e-9

    def test_chebyshev_pair(self):
        rep = commuting_height_agreement(CHEB2, CHEB3, tol=1e-6)
        assert rep.max_gap <= 1e-6

    def test_non_commuting_rejected(self):
        with pytest.raises(InvalidInputError):
            commuting_height_agreement(Z2P1, CHEB3)


class TestConstantsKeptOnTheMap:
    def test_one_cofactor_solve_per_map(self, monkeypatch):
        # projective.binary_constants imports the solver when it runs
        import arithdyn.polyforms as pf
        calls = []
        solve = pf.nullstellensatz_cofactors

        def counting(U, V):
            calls.append((U, V))
            return solve(U, V)

        monkeypatch.setattr(pf, "nullstellensatz_cofactors", counting)
        f = make_map((1, 0, 1), (0, 0, 1))
        x = ProjPointQ((1, 2))
        for tol in (1e-6, 1e-12):
            g = canonical_height_global(f, x, tol)
            loc = canonical_height_local(f, x, tol)
            assert abs(g.value - loc.total) <= g.error + loc.total_error
        northcott_bound(f)
        assert len(calls) == 1
        # the kept values are not fields: equality, hash and repr ignore them
        assert f == make_map((1, 0, 1), (0, 0, 1))
        assert hash(f) == hash(make_map((1, 0, 1), (0, 0, 1)))
        assert "cofactor" not in repr(f)

    def test_res_factored_on_first_use(self, monkeypatch):
        import arithdyn.dynamics as dyn
        calls = []
        factorize = dyn.factorize

        def counting(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(dyn, "factorize", counting)
        f = make_map((3, 0, 5), (0, 2, 0))
        assert calls == []
        assert f.bad_primes == (2, 3, 5) and f.bad_primes == (2, 3, 5)
        assert calls == [f.res]
        fresh = make_map((3, 0, 5), (0, 2, 0))
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
        assert calls == [f.res]

    def test_res_factorization_matches_bad_primes(self):
        f = make_map((3, 0, 5), (0, 2, 0))
        assert tuple(p for p, _ in f.res_factors) == f.bad_primes
        prod = 1
        for p, e in f.res_factors:
            prod *= p ** e
        assert prod == abs(f.res)


class TestSharedObjectsAcrossThreads:
    """Threads sharing one AlgebraicNumber and one RationalMap (whose kept
    roots and constants they fill concurrently) get the serial results."""

    @staticmethod
    def work(xi, f):
        from arithdyn.algebraic import (is_root_of_unity,
                                        local_height_breakdown, mahler_measure)
        from arithdyn.green import EscapeRateField, annulus_mass_bound
        out = [mahler_measure(xi.minpoly), local_height_breakdown(xi),
               is_root_of_unity(xi), annulus_mass_bound(xi, 1.5),
               EscapeRateField(f).tail_constant]
        for pt in ((0, 1), (1, 2), (3, -7)):
            for tol in (1e-6, 1e-12):
                out.append(canonical_height_global(f, ProjPointQ(pt), tol))
                out.append(canonical_height_local(f, ProjPointQ(pt), tol)
                           .to_json())
        return repr(out)

    def test_bit_equal_to_serial(self):
        import sys
        import threading

        import mpmath as mpm

        from arithdyn.algebraic import AlgebraicNumber
        from arithdyn.polyforms import IntPoly

        def fresh():
            return (AlgebraicNumber(IntPoly((-1, -1, 0, 0, 0, 0, 0, 1))),
                    make_map((2, -3, 1), (1, 0, 5)))

        serial = self.work(*fresh())
        xi, f = fresh()
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def run(i):
            start.wait()
            results[i] = self.work(xi, f)

        dps, ivprec = mpm.mp.dps, mpm.iv.prec
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads often
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4
        assert (mpm.mp.dps, mpm.iv.prec) == (dps, ivprec)


class TestIntervalEnclosures:
    """The certified escape rate must not depend on the global mp precision."""

    def test_max_abs_encloses(self):
        from arithdyn.dynamics import _max_abs
        P = 80

        def enclose(q):   # the fixed-point interval [q]_P, rounded outward
            return (q.numerator << P) // q.denominator, \
                -((-q.numerator << P) // q.denominator)

        third = Fraction(1, 3)
        for a, b, want in ((third, Fraction(1, 7), third),
                           (Fraction(-1, 9), -third, third),
                           (Fraction(2, 3), third, Fraction(2, 3))):
            lo, hi = _max_abs(enclose(a), enclose(b))
            assert Fraction(lo, 1 << P) <= want <= Fraction(hi, 1 << P)

    def test_renormalized_orbit_encloses_exact_iterate(self):
        # (u_K, v_K) = F^K(a, b) / 2^n exactly, so at a low P, where every
        # product rounds, the kernel's magnitude must enclose the exact one
        from arithdyn.dynamics import _IntervalBlowup, _renormalized_orbit
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            f = random_map(rng, d=rng.randint(2, 4), cmax=9)
            a, b = rng.randint(-50, 50), rng.randint(1, 50)
            K, P = rng.randint(1, 4), rng.choice((12, 16, 24))
            try:
                n, (lo, hi) = _renormalized_orbit(f, a, b, K, P)
            except _IntervalBlowup:
                continue
            X, Y = a, b
            for _ in range(K):
                X, Y = f.U(X, Y), f.V(X, Y)
            exact = Fraction(max(abs(X), abs(Y)), 1) / Fraction(2) ** n
            assert Fraction(lo, 1 << P) <= exact <= Fraction(hi, 1 << P)
            checked += 1
        assert checked >= 40

    def test_escape_rate_independent_of_global_precision(self):
        import mpmath as mpm

        from arithdyn.dynamics import escape_rate_exact_pair
        for f in (Z2P1, make_map((2, -1, 3, 5), (1, 4, 0, -7))):
            for a, b in ((1, 2), (3, -7), (-5, 11)):
                default = escape_rate_exact_pair(f, a, b, 1e-10)
                for prec in (30, 200):
                    with mpm.workprec(prec):
                        assert escape_rate_exact_pair(f, a, b, 1e-10) \
                            == default


class TestReportedEnclosures:
    """The reported value +- error holds the whole enclosure, not only its
    midpoint's neighbourhood: the float value is rounded, and its error is
    measured from that float."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_escape_rate_error_covers_the_enclosure(self, tol, monkeypatch):
        import arithdyn.dynamics as dyn
        seen = []

        def spy(*args, **kwargs):
            seen.append(log_bounds(*args, **kwargs))
            return seen[-1]

        log_bounds = dyn.log_bounds
        monkeypatch.setattr(dyn, "log_bounds", spy)
        rng = random.Random(83)
        for _ in range(12):
            f = random_map(rng, d=rng.randint(2, 4), cmax=9)
            a, b = rng.randint(-40, 40), rng.randint(1, 40)
            val, err = dyn.escape_rate_exact_pair(f, a, b, tol)
            lo, hi = seen[-1]   # the accepted rung, exact
            assert type(lo) is type(hi) is Fraction and lo <= hi
            assert err <= tol
            assert Fraction(val) - Fraction(err) <= lo
            assert hi <= Fraction(val) + Fraction(err)

    @pytest.mark.parametrize("u,v,point", [
        ((4, -5, 2), (-1, -2, 4), (1, -1)),
        ((-5, -5, -5), (5, 3, -5), (3, 4)),
        ((1, -5, 3), (-2, 2, 2), (2, 1))])
    def test_global_error_covers_its_parts(self, u, v, point, monkeypatch):
        # the interval route's error is the truncation bound plus the
        # enclosure's error, summed exactly: the float sum rounds to nearest
        # and fell half an ulp short on these three cases
        import arithdyn.dynamics as dyn
        from arithdyn.numutil import float_up
        seen = []

        def spy(*args, **kwargs):
            seen.append(enclosure(*args, **kwargs))
            return seen[-1]

        enclosure = dyn._orbit_log_enclosure
        monkeypatch.setattr(dyn, "_orbit_log_enclosure", spy)
        f = make_map(u, v)
        res = canonical_height_global(f, ProjPointQ(point), 1e-8)
        assert seen and seen[-1] is not None       # the interval route ran
        d = f.degree
        trunc = float_up(Fraction(max(f.functoriality_constants()))
                         / (d ** res.n_used * (d - 1)))
        assert Fraction(res.error) >= Fraction(trunc) + Fraction(seen[-1][1])

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_local_total_covers_its_parts(self, tol):
        import mpmath as mpm
        rng = random.Random(89)
        for _ in range(12):
            f = random_map(rng, d=rng.randint(2, 4), cmax=9)
            a, b = rng.randint(-40, 40), rng.randint(1, 40)
            g = math.gcd(a, b)
            led = canonical_height_local(f, ProjPointQ((a // g, b // g)), tol)
            with mpm.workdps(60):
                val, err = map(mpm.mpf, led.archimedean)
                fin = sum(mpm.mpf(c.numerator) / c.denominator * mpm.log(p)
                          for p, (c, _) in led.finite_places.items())
                tails = sum(mpm.mpf(t) for _, t in led.finite_places.values())
                total, total_err = mpm.mpf(led.total), mpm.mpf(led.total_error)
                assert led.total_error <= tol
                assert total - total_err <= val - err + fin - tails
                assert val + err + fin + tails <= total + total_err


def raw_canonical_height(f, a, b, tol):
    """(Lambda_inf(a, b), hhat([a:b]), error bound <= tol/64) by raw
    iteration, independent of the library's kernels: Lambda_inf =
    d^-K log max(|X_K|, |Y_K|) for the unreduced iterate at 100 digits
    (within C d^-K by the compacity inequality), and the finite places
    -sum_k d^-k v_p(g_k) log p from the gcd valuations of the reduced orbit,
    tracked modulo a power of p (within v_p(Res) log p d^-K/(d-1))."""
    import mpmath as mpm
    d = f.degree
    C = f.compacity_tail_constant()
    fin_tail = sum(R * math.log(p) for p, R in f.res_factors) / (d - 1)
    K = 1
    while (C + fin_tail) / d ** K > tol / 64:
        K += 1

    def form(F, X, Y):
        return sum(c * X ** (F.degree - i) * Y ** i
                   for i, c in enumerate(F.coeffs))

    with mpm.workdps(100):
        X, Y = mpm.mpf(a), mpm.mpf(b)
        for _ in range(K):
            X, Y = form(f.U, X, Y), form(f.V, X, Y)
        lam = mpm.log(max(abs(X), abs(Y))) / mpm.mpf(d) ** K
        hhat = lam
        for p, R in f.res_factors:
            mod = p ** (R * (K + 2) + 2)
            A, B = a % mod, b % mod
            for k in range(1, K + 1):
                A, B = form(f.U, A, B) % mod, form(f.V, A, B) % mod
                v = 0
                while A % p ** (v + 1) == 0 and B % p ** (v + 1) == 0:
                    v += 1
                mod //= p ** v
                A, B = A // p ** v % mod, B // p ** v % mod
                hhat -= v * mpm.log(p) / mpm.mpf(d) ** k
        return float(lam), float(hhat), (C + fin_tail) / d ** K


class TestFixedPointKernelOracle:
    """Both routes of the fixed-point interval kernel against raw
    100-digit iteration, within the error each reports."""

    # a degree-3 map whose intervals widen about 7x per step (K = 29 at
    # tol 1e-12), which overflowed a fixed 80-bit start
    WIDE3 = ((-1, 8, 5, -6), (-6, 6, 2, -6))

    @staticmethod
    def check(f, a, b, tol):
        from arithdyn.dynamics import escape_rate_exact_pair
        lam, hhat, slack = raw_canonical_height(f, a, b, tol)
        val, err = escape_rate_exact_pair(f, a, b, tol)
        assert err <= tol and abs(val - lam) <= err + slack
        g = canonical_height_global(f, ProjPointQ((a, b)), tol)
        assert not g.budget_exhausted and g.error <= tol
        assert abs(g.value - hhat) <= g.error + slack
        loc = canonical_height_local(f, ProjPointQ((a, b)), tol)
        assert loc.total_error <= tol
        assert abs(loc.total - hhat) <= loc.total_error + slack

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_random_maps_degree_2_to_5(self, tol):
        rng = random.Random(71)
        for d in (2, 3, 4, 5):
            for _ in range(3):
                f = random_map(rng, d=d, cmax=7)
                a, b = rng.randint(-30, 30), rng.randint(1, 30)
                g = math.gcd(a, b)
                self.check(f, a // g, b // g, tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_fast_widening_degree_3_map(self, tol):
        self.check(make_map(*self.WIDE3), 33, 26, tol)

    def test_unreachable_tolerance_fails_fast(self):
        # K stops at 300, where the compacity tail alone exceeds 1e-300
        import time

        from arithdyn.dynamics import escape_rate_exact_pair
        from arithdyn.errors import ResourceLimitError
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            escape_rate_exact_pair(Z2P1, 1, 3, 1e-300)
        assert time.monotonic() - start < 1

    def test_global_start_above_exact_phase(self):
        import arithdyn.dynamics as dyn
        f = make_map((2, -1, 3), (1, 1, 1))
        a, b = 2 ** 4100 + 1, 3 ** 2600
        assert ProjPointQ((a, b)).height() > dyn.EXACT_PHASE_BITS * math.log(2)
        for tol in (1e-6, 1e-12):
            g = canonical_height_global(f, ProjPointQ((a, b)), tol)
            assert g.n_used > 0 and not g.budget_exhausted
            _, hhat, slack = raw_canonical_height(f, a, b, tol)
            assert g.error <= tol and abs(g.value - hhat) <= g.error + slack


class TestBoundsRoundedUp:
    """Each float bound is at least its formula evaluated at 60 digits, and
    at most a few ulps above it."""

    @staticmethod
    def above(bound, exact):
        import mpmath as mpm
        with mpm.workdps(60):
            assert mpm.mpf(bound) >= exact
            assert mpm.mpf(bound) <= exact * (1 + mpm.mpf(2) ** -50)

    def test_fifty_random_maps(self):
        import mpmath as mpm
        rng = random.Random(97)
        for j in range(50):
            f = random_map(rng, d=2 + j % 4, cmax=9)
            d = f.degree
            with mpm.workdps(60):
                s = max(sum(abs(c) for c in f.U.coeffs),
                        sum(abs(c) for c in f.V.coeffs))
                cof = 2 * d * f.max_cofactor_coeff()
                c_up, c_lo = mpm.log(s), mpm.log(cof)
                c_res = max(mpm.mpf(cof) / abs(f.res), 1)
                C = max(mpm.log(s), mpm.log(c_res)) / (d - 1)
                c_max = max(c_up, c_lo)
            got_up, got_lo = f.functoriality_constants()
            self.above(got_up, c_up)
            self.above(got_lo, c_lo)
            self.above(f.compacity_tail_constant(), C)
            self.above(northcott_bound(f), c_max * (2 * d - 1) / (d - 1) ** 2)
            x = ProjPointQ((rng.randint(-9, 9), rng.randint(1, 9)))
            g = canonical_height_global(f, x, 1e-6)
            if g.note == "":
                with mpm.workdps(60):
                    trunc = c_max / (mpm.mpf(d) ** g.n_used * (d - 1))
                    assert g.error >= trunc
            led = canonical_height_local(f, x, 1e-6)
            for p, (_, tail) in led.finite_places.items():
                R = dict(f.res_factors)[p]
                with mpm.workdps(60):
                    unit = R * mpm.log(p) / (d - 1)
                    K = int(mpm.nint(mpm.log(unit / tail) / mpm.log(d)))
                self.above(tail, unit / mpm.mpf(d) ** K)


def ec_add(P, Q, a):
    """P + Q on y^2 = x^3 + a x + b in exact rationals; None is the point at
    infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 == -y2:
        return None
    lam = (3 * x1 * x1 + a) / (2 * y1) if P == Q else (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def lattes(a, b):
    """x(2P) on y^2 = x^3 + a x + b: (x^4 - 2a x^2 - 8b x + a^2) / (4 (x^3 +
    a x + b)), whose canonical height is the Neron-Tate height of the point
    (in the normalization without the factor 1/2)."""
    return make_map((1, 0, -2 * a, -8 * b, a * a), (0, 4, 0, 4 * a, 4 * b))


class TestLattes:
    """Canonical heights of Lattes maps against the group law of the curve:
    facts that do not come from iterating f.  Each identity closes within
    the summed stated errors of both routes."""

    TOL = 1e-10

    def routes(self, f, x):
        """(value, error) of the local and of the global route at x."""
        pt = ProjPointQ((x.numerator, x.denominator))
        loc = canonical_height_local(f, pt, self.TOL)
        glob = canonical_height_global(f, pt, self.TOL)
        assert not glob.budget_exhausted
        assert loc.total_error <= self.TOL and glob.error <= self.TOL
        return [(loc.total, loc.total_error), (glob.value, glob.error)]

    def test_37a1_square_law_and_regulator(self):
        # 37a1 as y^2 = x^3 - 16x + 16, generator P = (0, 4) of rank 1
        a, b = -16, 16
        f = lattes(a, b)
        P = (Fraction(0), Fraction(4))
        nP, multiples = None, {}
        for n in range(1, 13):
            nP = ec_add(nP, P, a)
            multiples[n] = nP
        one = self.routes(f, P[0])
        for v, e in one:   # the published regulator, to its 16 digits
            assert abs(v - 0.0511114082399688) <= e + 1e-16
        for n in (1, 2, 3, 4, 5, 6, 7, 9, 12):
            for (v, e), (v1, e1) in zip(self.routes(f, multiples[n][0]), one):
                assert abs(v - n * n * v1) <= e + n * n * e1, n

    def test_389a1_parallelogram_law(self):
        # 389a1 as y^2 = x^3 - 3024x + 46224, generators of rank 2
        a, b = -3024, 46224
        f = lattes(a, b)
        P, Q = (Fraction(-24), Fraction(324)), (Fraction(12), Fraction(108))
        minus_Q = (Q[0], -Q[1])
        pts = [ec_add(P, Q, a), ec_add(P, minus_Q, a), P, Q]
        for x, y in pts:
            assert y * y == x ** 3 + a * x + b
        for (s, es), (d, ed), (p, ep), (q, eq) in zip(
                *(self.routes(f, x) for x, _ in pts)):
            assert abs(s + d - 2 * p - 2 * q) <= es + ed + 2 * ep + 2 * eq

    @settings(max_examples=60, deadline=timedelta(seconds=10))
    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_square_law_on_small_curves(self, a, b):
        # a point of y^2 = x^3 + a x + b with |x| <= 20, y > 0 found by
        # search; 2P and 3P in exact rationals, so x(3P) is no iterate
        assume(4 * a ** 3 + 27 * b ** 2 != 0)
        P = next(((Fraction(x), Fraction(math.isqrt(r)))
                  for x in range(-20, 21)
                  for r in (x ** 3 + a * x + b,)
                  if r > 0 and math.isqrt(r) ** 2 == r), None)
        assume(P is not None)
        P2 = ec_add(P, P, a)
        P3 = ec_add(P2, P, a)
        assume(P3 is not None)    # P of order 3
        f = lattes(a, b)
        one = self.routes(f, P[0])
        for n, nP in ((2, P2), (3, P3)):
            for (v, e), (v1, e1) in zip(self.routes(f, nP[0]), one):
                assert abs(v - n * n * v1) <= e + n * n * e1, (n, v, v1)

    def test_torsion_has_height_zero(self):
        # y^2 = x^3 + 1 has rational torsion of order 6: (-1, 0) of order
        # 2, (0, +-1) of order 3 and (2, +-3) of order 6
        f = lattes(0, 1)
        for x in (-1, 0, 2):
            for v, e in self.routes(f, Fraction(x)):
                assert abs(v) <= e, x
