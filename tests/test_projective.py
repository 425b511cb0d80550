"""Naive heights on P^k(Q): normalization, counting, identities, morphisms."""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.errors import (IndeterminacyError, InvalidInputError,
                             ResourceLimitError)
from arithdyn.polyforms import BinaryForm, nullstellensatz_cofactors
from arithdyn.projective import (COUNT_CAP, HomForm, HomMorphism, ProjPointQ,
                                 apply_morphism, binary_constants,
                                 count_points, enumerate_points,
                                 functoriality_constants, height,
                                 linear_projection, schanuel_ratio, segre,
                                 unit_power_pair, veronese)


def brute_force_points(k, Hmax):
    """Independent double-loop oracle: normalized tuples in the box."""
    seen = set()
    for tup in product(range(-Hmax, Hmax + 1), repeat=k + 1):
        if all(c == 0 for c in tup):
            continue
        g = math.gcd(*(abs(c) for c in tup))
        t = tuple(c // g for c in tup)
        for c in t:
            if c != 0:
                if c < 0:
                    t = tuple(-x for x in t)
                break
        if max(abs(c) for c in t) <= Hmax:
            seen.add(t)
    return seen


def mobius_sieve(n):
    """Oracle: mu(0..n) from a linear sieve, as count_points once read it."""
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


def log_ceil(H):
    """The least float >= log H, decided at 50 digits."""
    import mpmath as mpm
    b = math.log(H)
    with mpm.workdps(50):
        exact = mpm.log(H)
        while mpm.mpf(math.nextafter(b, -math.inf)) >= exact:
            b = math.nextafter(b, -math.inf)
        while mpm.mpf(b) < exact:
            b = math.nextafter(b, math.inf)
    return b


class TestHeight:
    def test_examples(self):
        assert height(ProjPointQ((1, 0))) == 0.0
        assert height(ProjPointQ((2, 4))) == pytest.approx(math.log(2))
        assert height(ProjPointQ((3, 5, -7))) == pytest.approx(math.log(7))

    def test_zero_iff_unit_coords(self):
        assert ProjPointQ((1, -1, 0)).H() == 1
        assert ProjPointQ((1, 2)).H() == 2

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            ProjPointQ((0, 0, 0))

    def test_normalization_from_fractions(self):
        assert ProjPointQ((Fraction(1, 2), Fraction(3, 4))).coords == (2, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=4),
           st.fractions(min_value=Fraction(-20), max_value=Fraction(20)))
    def test_scaling_and_permutation_invariance(self, coords, lam):
        if all(c == 0 for c in coords) or lam == 0:
            return
        x = ProjPointQ(coords)
        assert ProjPointQ([lam * c for c in coords]) == x
        shuffled = list(coords)
        random.Random(0).shuffle(shuffled)
        assert ProjPointQ(shuffled).H() == x.H()


class TestEnumeration:
    def test_h_le_1_dim1(self):
        pts = enumerate_points(1, 0.0)
        assert [p.coords for p in pts] == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_h_le_2_matches_oracle(self):
        # brute-force count over |a|,|b| <= 2 coprime modulo sign gives 8
        want = brute_force_points(1, 2)
        got = {p.coords for p in enumerate_points(1, log_ceil(2))}
        assert got == want
        assert len(got) == 8

    def test_dim2_unit_box(self):
        pts = enumerate_points(2, 0.0)
        assert len(pts) == 13

    @pytest.mark.parametrize("k,Hmax", [(1, 3), (1, 5), (2, 3), (2, 5)])
    def test_matches_brute_force(self, k, Hmax):
        want = brute_force_points(k, Hmax)
        got = {p.coords for p in enumerate_points(k, log_ceil(Hmax))}
        assert got == want
        assert count_points(k, Hmax) == len(want)

    def test_sorted_and_deduped(self):
        pts = enumerate_points(1, math.log(7))
        assert pts == sorted(pts, key=lambda p: p.coords)
        assert len({p.coords for p in pts}) == len(pts)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_points(2, 8.0)
        assert exc.value.bound > 0

    def test_bound_decided_exactly(self):
        # B one ulp either side of log m: H <= e^B holds up to m or m - 1
        from arithdyn.projective import _hmax_from_log_bound
        for m in range(2, 10 ** 4 + 1):
            up = log_ceil(m)
            assert _hmax_from_log_bound(up) == m, m
            assert _hmax_from_log_bound(math.nextafter(up, 0.0)) == m - 1, m
        assert _hmax_from_log_bound(0.0) == 1
        assert _hmax_from_log_bound(-1e-300) == 0

    def test_nothing_above_the_bound(self):
        # math.log(7) - 1e-13 < log 7: no point of height 7
        pts = enumerate_points(1, math.log(7) - 1e-13)
        assert max(p.H() for p in pts) == 6
        assert len(pts) == count_points(1, 6)

    def test_shells_partition_enumeration(self):
        from arithdyn.projective import points_on_shell
        for k in (1, 2):
            shells = []
            for m in range(1, 5):
                shells.append(sorted(p.coords for p in points_on_shell(k, m)))
            merged = sorted(c for sh in shells for c in sh)
            assert len(set(merged)) == len(merged)  # disjoint shells
            want = sorted(p.coords for p in enumerate_points(k, log_ceil(4)))
            assert merged == want
            for m, sh in enumerate(shells, start=1):
                assert all(max(abs(c) for c in t) == m for t in sh)


class TestSchanuel:
    def test_k1_large(self):
        assert schanuel_ratio(1, 1000) == pytest.approx(1.0, abs=0.02)

    def test_k1_small(self):
        assert schanuel_ratio(1, 10) == pytest.approx(1.0, abs=0.2)

    def test_k2(self):
        assert schanuel_ratio(2, 50) == pytest.approx(1.0, abs=0.1)

    def test_needs_b_at_least_2(self):
        with pytest.raises(InvalidInputError):
            schanuel_ratio(1, 1)

    def test_power_bits_capped(self):
        from arithdyn.projective import POWER_BITS_CAP
        for k, B in ((10000, 10 ** 7), (60000, 2)):
            assert (k + 1) * math.log2(2 * B + 1) > POWER_BITS_CAP
            with pytest.raises(ResourceLimitError):
                schanuel_ratio(k, B)
        # just below the cap: the coprime tuples in [-2, 2]^(k+1) up to sign
        assert 56001 * math.log2(5) < POWER_BITS_CAP
        assert count_points(56000, 2) == (5 ** 56001 - 3 ** 56001) // 2

    def test_one_power_per_quotient(self):
        # the sum over every g <= H, one power per g, with mu from a sieve,
        # as count_points took it before grouping g by H // g
        for H in range(0, 301):
            mu = mobius_sieve(H)
            for k in range(0, 4):
                per_g = sum(mu[g] * ((2 * (H // g) + 1) ** (k + 1) - 1)
                            for g in range(1, H + 1)) // 2
                assert count_points(k, H) == per_g, (k, H)

    def test_mertens_values_at_the_quotients(self):
        from arithdyn.projective import _mertens_on_quotients
        M = list(accumulate(mobius_sieve(1000)[1:], initial=0))
        for H in (1, 2, 3, 10, 99, 100, 720, 1000):
            table = _mertens_on_quotients(H)
            assert table == {H // g: M[H // g] for g in range(1, H + 1)}, H

    def test_counts_at_large_heights(self):
        # the values the sieve over every g <= H gave
        assert count_points(1, 10 ** 6) == 1215854209568
        assert count_points(2, 10 ** 6) == 3327633370313827777
        assert count_points(1, 10 ** 7) == 121585425708968

    def test_count_at_the_cap_is_fast(self):
        # about H^(3/4) steps over the quotient blocks, where a pass over
        # the H values of mu takes seconds
        start = time.perf_counter()
        count_points(1, COUNT_CAP)
        assert time.perf_counter() - start < 1

    def test_count_holds_no_table_of_h_entries(self):
        # the Mertens table has 2 sqrt(H) entries; a list of 10^6 ints is
        # 7.6 MiB alone
        tracemalloc.start()
        try:
            count_points(1, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_power_sum_bits_capped(self):
        # every power is below POWER_BITS_CAP, but the distinct ones hold
        # more than POWER_SUM_BITS_CAP bits together: refused before the
        # Mertens values at the quotient blocks are computed
        from arithdyn.projective import POWER_BITS_CAP, POWER_SUM_BITS_CAP
        for k, H in ((3000, 10 ** 6), (1000, 10 ** 7)):
            assert (k + 1) * math.log2(2 * H + 1) < POWER_BITS_CAP
            start = time.monotonic()
            with pytest.raises(ResourceLimitError) as exc:
                count_points(k, H)
            assert time.monotonic() - start < 1
            assert exc.value.bound > POWER_SUM_BITS_CAP

    def test_needs_k_at_least_1(self):
        # zeta(k + 1) has its pole at k = 0
        with pytest.raises(InvalidInputError, match="--k"):
            schanuel_ratio(0, 10)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ratio_is_the_rounded_30_digit_product(self, k):
        # the value that the product of N(B) / (2^k B^(k+1)) with mpmath's
        # zeta(k + 1) at 30 digits rounds to: zeta on integers moves no output
        import mpmath as mpm
        for B in (2, 3.5, 10, 57.25, 1000)[:5 if k <= 3 else 3]:
            q = Fraction(count_points(k, int(B))) / (2 ** k * Fraction(B)
                                                      ** (k + 1))
            with mpm.workdps(30):
                ref = float(mpm.mpf(q.numerator) / q.denominator
                            * mpm.zeta(k + 1))
            assert schanuel_ratio(k, B) == ref, B


class TestSegreVeronese:
    def test_segre_examples(self):
        s = segre(ProjPointQ((1, 2)), ProjPointQ((1, 3)))
        assert s.coords == (1, 3, 2, 6)
        assert s.H() == 6
        assert segre(ProjPointQ((1, 0)), ProjPointQ((1, 0))).coords == (1, 0, 0, 0)
        assert segre(ProjPointQ((2, 3)), ProjPointQ((5, 7))).H() == 21

    def test_segre_height_additive_exact(self):
        rng = random.Random(5)
        for _ in range(50):
            x = ProjPointQ([rng.randint(-30, 30) or 1 for _ in range(2)])
            y = ProjPointQ([rng.randint(-30, 30) or 1 for _ in range(3)])
            assert segre(x, y).H() == x.H() * y.H()

    def test_veronese_examples(self):
        v = veronese(ProjPointQ((1, 2)), 2)
        assert v.coords == (1, 2, 4)
        assert veronese(ProjPointQ((1, 1)), 5).coords == (1,) * 6
        assert veronese(ProjPointQ((2, 3)), 3).H() == 27

    def test_veronese_height_multiplies_exact(self):
        rng = random.Random(6)
        for _ in range(50):
            x = ProjPointQ([rng.randint(-20, 20) or 1 for _ in range(3)])
            d = rng.randint(1, 4)
            assert veronese(x, d).H() == x.H() ** d

    def test_projection_contracts(self):
        rng = random.Random(8)
        for _ in range(60):
            x = ProjPointQ([rng.randint(-40, 40) for _ in range(3)]
                           if rng.random() > 0.1 else (1, 0, 7))
            try:
                p = linear_projection(x, 1)
            except (IndeterminacyError, InvalidInputError):
                continue
            assert p.H() <= x.H()

    def test_projection_center(self):
        with pytest.raises(IndeterminacyError):
            linear_projection(ProjPointQ((0, 0, 1)), 1)


def binary_morphism(u_coeffs, v_coeffs):
    d = len(u_coeffs) - 1
    U = HomForm.from_dict(2, {(d - i, i): c for i, c in enumerate(u_coeffs) if c})
    V = HomForm.from_dict(2, {(d - i, i): c for i, c in enumerate(v_coeffs) if c})
    return HomMorphism((U, V))


class TestMorphisms:
    def test_power_map_exact(self):
        f = HomMorphism.power_map(1, 2)
        y = apply_morphism(f, ProjPointQ((2, 3)))
        assert y.coords == (4, 9)
        assert height(y) == pytest.approx(2 * height(ProjPointQ((2, 3))))
        assert functoriality_constants(f) == (0.0, 0.0)

    def test_fixed_point(self):
        f = binary_morphism((1, 0, 0), (0, 0, 1))
        assert apply_morphism(f, ProjPointQ((1, 1))).coords == (1, 1)

    def test_z2_plus_1_at_zero(self):
        f = binary_morphism((1, 0, 1), (0, 0, 1))
        y = apply_morphism(f, ProjPointQ((0, 1)))
        assert y.coords == (1, 1) and height(y) == 0.0

    def test_indeterminacy(self):
        # forms X*Y and X^2 share the zero [0:1]
        F = HomForm.from_dict(2, {(1, 1): 1})
        G = HomForm.from_dict(2, {(2, 0): 1})
        f = HomMorphism((F, G))
        with pytest.raises(IndeterminacyError):
            apply_morphism(f, ProjPointQ((0, 1)))

    def test_base_point_free_decided_on_p1(self):
        # shared factor X -> not base point free; coprime forms -> free
        F = HomForm.from_dict(2, {(1, 1): 1})
        G = HomForm.from_dict(2, {(2, 0): 1})
        assert not HomMorphism((F, G)).base_point_free
        U = HomForm.from_dict(2, {(2, 0): 1, (0, 2): 1})
        V = HomForm.from_dict(2, {(0, 2): 1})
        assert HomMorphism((U, V)).base_point_free
        # Y divides both
        A = HomForm.from_dict(2, {(1, 1): 1})
        B = HomForm.from_dict(2, {(0, 2): 1})
        assert not HomMorphism((A, B)).base_point_free
        # three forms with trivial pairwise-accumulated gcd
        C = HomForm.from_dict(2, {(1, 1): 1})
        D = HomForm.from_dict(2, {(2, 0): 1})
        E = HomForm.from_dict(2, {(0, 2): 1})
        assert HomMorphism((C, D, E)).base_point_free

    def test_power_map_dim2(self):
        f = HomMorphism.power_map(2, 3)
        x = ProjPointQ((1, 2, 3))
        assert apply_morphism(f, x).coords == (1, 8, 27)
        c_up, c_lo = functoriality_constants(f)
        assert c_up == 0.0 and c_lo == 0.0

    def test_clower_unavailable_dim2(self):
        F = HomForm.from_dict(3, {(2, 0, 0): 1, (0, 2, 0): 1})
        G = HomForm.from_dict(3, {(0, 2, 0): 1})
        H = HomForm.from_dict(3, {(0, 0, 2): 1})
        f = HomMorphism((F, G, H))
        c_up, c_lo = functoriality_constants(f)
        assert c_up >= 0 and c_lo is None

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unit_power_pairs_skip_the_solve(self, d):
        # [±X^d : ±Y^d] and [±Y^d : ±X^d]: (0, 0) and the max cofactor
        # coefficient the solve would give
        X, Y = (1,) + (0,) * d, (0,) * d + (1,)
        for (a, b), s, t in product(((X, Y), (Y, X)), (1, -1), (1, -1)):
            U = BinaryForm(d, [s * c for c in a])
            V = BinaryForm(d, [t * c for c in b])
            assert unit_power_pair(U, V)
            cofactors = nullstellensatz_cofactors(U, V)[:4]
            assert binary_constants(U, V) == (
                0.0, 0.0, max(abs(c) for g in cofactors for c in g.coeffs))

    @pytest.mark.parametrize("u,v", [((2, 0, 0), (0, 0, 1)),
                                     ((1, 0, 0), (1, 0, 0)),
                                     ((1, 0, 1), (0, 0, 1)),
                                     ((1,), (1,))])
    def test_not_unit_power_pairs(self, u, v):
        d = len(u) - 1
        assert not unit_power_pair(BinaryForm(d, u), BinaryForm(d, v))

    def test_functoriality_sandwich_sample(self):
        rng = random.Random(17)
        maps = 0
        while maps < 6:
            u = [rng.randint(-5, 5) for _ in range(3)]
            v = [rng.randint(-5, 5) for _ in range(3)]
            try:
                f = binary_morphism(u, v)
                c_up, c_lo = functoriality_constants(f)
            except InvalidInputError:
                continue
            if c_lo is None:
                continue
            maps += 1
            d = f.degree
            for _ in range(200):
                x = ProjPointQ((rng.randint(-99, 99), rng.randint(-99, 99) or 1))
                try:
                    y = apply_morphism(f, x)
                except IndeterminacyError:
                    continue
                assert d * height(x) - c_lo <= height(y) + 1e-9
                assert height(y) <= d * height(x) + c_up + 1e-9
