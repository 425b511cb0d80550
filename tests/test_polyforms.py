"""Exact-arithmetic layer: resultants, cofactors, discriminants, roots.

The independent oracle for resultants is a permutation-expansion
determinant over the hand-built Sylvester matrix, kept free of the Bareiss
code path under test.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import mpmath as mpm
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.errors import InvalidInputError, RepeatedRootError
from arithdyn.polyforms import (BinaryForm, IntPoly, PadicValuation,
                                _bareiss, _form_add, _form_mul, complex_roots,
                                cyclotomic, discriminant, euler_phi,
                                nullstellensatz_cofactors, resultant,
                                resultant_univariate, vp)


def det_by_permutations(mat):
    """O(n!) Leibniz determinant; the independent oracle."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def sylvester_matrix_by_hand(U, V):
    d = U.degree
    mat = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for k in range(d + 1):
            mat[i + k][i] = U.coeffs[k]
            mat[i + k][d + i] = V.coeffs[k]
    return mat


X2 = BinaryForm(2, (1, 0, 0))
Y2 = BinaryForm(2, (0, 0, 1))
XY = BinaryForm(2, (0, 1, 0))
Z2P1 = BinaryForm(2, (1, 0, 1))  # X^2 + Y^2, the map z -> z^2 + 1


class TestResultant:
    def test_monomials(self):
        # oracle: the 4x4 Sylvester determinant expanded by permutations
        assert det_by_permutations(sylvester_matrix_by_hand(X2, Y2)) == 1
        assert resultant(X2, Y2) == 1

    def test_shared_root_vanishes(self):
        assert resultant(XY, XY) == 0

    def test_z2_plus_1(self):
        assert det_by_permutations(sylvester_matrix_by_hand(Z2P1, Y2)) == 1
        assert resultant(Z2P1, Y2) == 1

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            resultant(X2, BinaryForm(3, (1, 0, 0, 1)))

    def test_against_permutation_oracle_random(self):
        rng = random.Random(7)
        for _ in range(40):
            d = rng.choice((2, 3))
            U = BinaryForm(d, [rng.randint(-5, 5) for _ in range(d + 1)])
            V = BinaryForm(d, [rng.randint(-5, 5) for _ in range(d + 1)])
            if U.is_zero() or V.is_zero():
                continue
            assert resultant(U, V) == det_by_permutations(
                sylvester_matrix_by_hand(U, V))

    def test_composition_identity(self):
        # Res(U(F,G), V(F,G)) = +/- Res(U,V)^e Res(F,G)^(d^2) for d = e = 2
        rng = random.Random(11)
        checked = 0
        while checked < 10:
            U = BinaryForm(2, [rng.randint(-4, 4) for _ in range(3)])
            V = BinaryForm(2, [rng.randint(-4, 4) for _ in range(3)])
            F = BinaryForm(2, [rng.randint(-4, 4) for _ in range(3)])
            G = BinaryForm(2, [rng.randint(-4, 4) for _ in range(3)])
            try:
                r_uv, r_fg = resultant(U, V), resultant(F, G)
            except InvalidInputError:
                continue
            if r_uv == 0 or r_fg == 0:
                continue
            lhs = resultant(U.compose(F, G), V.compose(F, G))
            rhs = r_uv ** 2 * r_fg ** 4
            assert lhs == rhs or lhs == -rhs
            checked += 1


def _check_adjugate(mat):
    """_bareiss(mat | I): the determinant against the permutation oracle and,
    when it is nonzero, M times each returned column is det e_j exactly."""
    n = len(mat)
    det, cols = _bareiss([row + [int(i == j) for j in range(n)]
                          for i, row in enumerate(mat)])
    assert det == det_by_permutations(mat)
    assert _bareiss(mat)[0] == det
    if det == 0:
        assert cols is None
        return det
    assert len(cols) == n
    for j, col in enumerate(cols):
        assert all(type(c) is int for c in col)
        assert [sum(a * c for a, c in zip(row, col)) for row in mat] == \
            [det * int(i == j) for i in range(n)]
    return det


class TestBareiss:
    def test_random_up_to_8x8(self):
        rng = random.Random(17)
        for n in range(1, 9):
            for _ in range(2 if n == 8 else 4):
                _check_adjugate([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)])

    def test_singular(self):
        rng = random.Random(19)
        for n in range(2, 9):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = [a * x + b * y for x, y in zip(mat[0], mat[-1])]
            mat.insert(rng.randrange(n), combo)
            assert _check_adjugate(mat) == 0
        assert _check_adjugate([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0

    def test_pivot_needed(self):
        rng = random.Random(23)
        # every leading pivot of the anti-diagonal is zero
        for n in range(2, 9):
            anti = [[(i + 1) * int(i + j == n - 1) for j in range(n)]
                    for i in range(n)]
            assert _check_adjugate(anti) != 0
        # the second pivot vanishes only after the first elimination step
        assert _check_adjugate([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
        for n in range(3, 9):
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            mat[0][0] = 0
            mat[1] = [mat[0][k] + (k == n - 1) for k in range(n)]
            rng.shuffle(mat)
            _check_adjugate(mat)

    def test_cofactors_are_adjugate_columns(self):
        U = BinaryForm(3, (2, -1, 3, 5))
        V = BinaryForm(3, (1, 4, 0, -7))
        ax, bx, ay, by, r = nullstellensatz_cofactors(U, V)
        mat = sylvester_matrix_by_hand(U, V)
        assert r == det_by_permutations(mat)
        for col, j in ((ax.coeffs + bx.coeffs, 0), (ay.coeffs + by.coeffs, 5)):
            assert [sum(a * c for a, c in zip(row, col)) for row in mat] == \
                [r * int(i == j) for i in range(6)]

    def test_cofactor_degree_checked(self):
        with pytest.raises(InvalidInputError):
            nullstellensatz_cofactors(X2, BinaryForm(3, (1, 0, 0, 1)))
        with pytest.raises(InvalidInputError):
            nullstellensatz_cofactors(BinaryForm(0, (1,)), BinaryForm(0, (2,)))


class TestCofactors:
    def test_monomial_case(self):
        ax, bx, ay, by, r = nullstellensatz_cofactors(X2, Y2)
        assert r == 1
        assert ax.coeffs == (1, 0) and bx.coeffs == (0, 0)
        assert ay.coeffs == (0, 0) and by.coeffs == (0, 1)

    def test_z2_plus_1_by_hand(self):
        # solving the 4x4 system by hand: X (X^2+Y^2) - X Y^2 = X^3 and
        # 0 (X^2+Y^2) + Y Y^2 = Y^3, with Res = 1
        ax, bx, ay, by, r = nullstellensatz_cofactors(Z2P1, Y2)
        assert r == 1
        assert ax.coeffs == (1, 0) and bx.coeffs == (-1, 0)
        assert ay.coeffs == (0, 0) and by.coeffs == (0, 1)

    def test_residual_exactly_zero_random(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            U = BinaryForm(2, [rng.randint(-9, 9) for _ in range(3)])
            V = BinaryForm(2, [rng.randint(-9, 9) for _ in range(3)])
            try:
                if resultant(U, V) == 0:
                    continue
                ax, bx, ay, by, r = nullstellensatz_cofactors(U, V)
            except InvalidInputError:
                continue
            d = U.degree
            lhs_x = _form_add(_form_mul(ax, U), _form_mul(bx, V))
            want_x = [0] * (2 * d)
            want_x[0] = r  # coefficient of X^(2d-1)
            assert list(lhs_x.coeffs) == want_x
            lhs_y = _form_add(_form_mul(ay, U), _form_mul(by, V))
            want_y = [0] * (2 * d)
            want_y[-1] = r
            assert list(lhs_y.coeffs) == want_y
            checked += 1

    def test_zero_resultant_rejected(self):
        from arithdyn.errors import DegenerateMapError
        with pytest.raises(DegenerateMapError):
            nullstellensatz_cofactors(XY, XY)


class TestDiscriminant:
    def test_xn_minus_1(self):
        # oracle: direct Res(P, P') via the univariate Sylvester determinant
        for n in range(2, 21):
            P = IntPoly((-1,) + (0,) * (n - 1) + (1,))
            disc = discriminant(P)
            assert abs(disc) == n ** n
        assert discriminant(IntPoly((-1, 0, 0, 1))) == -27

    def test_x2_minus_2(self):
        # (z1 - z2)^2 = (2 sqrt 2)^2 = 8
        assert discriminant(IntPoly((-2, 0, 1))) == 8

    def test_repeated_root(self):
        assert discriminant(IntPoly((1, -2, 1))) == 0

    def test_low_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            discriminant(IntPoly((1, 2)))

    def test_univariate_resultant_root_products(self):
        # Res(P, Q) = lc(P)^deg Q * prod Q(root of P)
        P = IntPoly((-2, 0, 1))       # roots +/- sqrt 2
        Q = IntPoly((0, 2))           # Q = 2X
        assert resultant_univariate(P, Q) == -8


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(4).coeffs == (1, 0, 1)
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    def test_degrees(self):
        for n in range(1, 61):
            assert cyclotomic(n).degree == euler_phi(n)

    def test_product_reassembles(self):
        n = 24
        prod = IntPoly((1,))
        for m in range(1, n + 1):
            if n % m == 0:
                prod = prod * cyclotomic(m)
        assert prod.coeffs == ((-1,) + (0,) * (n - 1) + (1,))


class TestVp:
    def test_examples(self):
        assert vp(12, 2) == 2
        assert vp(Fraction(5, 8), 2) == -3
        assert vp(7, 3) == 0
        assert vp(0, 5) == math.inf
        assert PadicValuation.of(Fraction(5, 8), 2).absolute_value() == 8.0

    @settings(max_examples=500, deadline=None)
    @given(st.fractions(min_value=-1000, max_value=1000),
           st.fractions(min_value=-1000, max_value=1000),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_additivity_and_ultrametric(self, a, b, p):
        if a != 0 and b != 0:
            assert vp(a * b, p) == vp(a, p) + vp(b, p)
        if a + b != 0:
            assert vp(a + b, p) >= min(vp(a, p), vp(b, p))

    def test_bulk_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            p = rng.choice((2, 3, 5, 7))
            if a and b:
                assert vp(a * b, p) == vp(a, p) + vp(b, p)
            if a + b:
                assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


class TestComplexRoots:
    def test_x2_plus_1(self):
        roots = complex_roots(IntPoly((1, 0, 1)), 1e-12)
        vals = sorted(r.value.imag for r in roots)
        assert vals[0] == pytest.approx(-1, abs=1e-12)
        assert vals[1] == pytest.approx(1, abs=1e-12)
        assert all(abs(r.value.real) < 1e-12 for r in roots)

    def test_x3_minus_2(self):
        roots = complex_roots(IntPoly((-2, 0, 0, 1)), 1e-12)
        for r in roots:
            assert abs(r.value) == pytest.approx(2 ** (1 / 3), abs=1e-12)
        prod = 1
        for r in roots:
            prod *= r.value
        assert abs(prod) == pytest.approx(2, abs=1e-10)

    def test_phi5_on_unit_circle(self):
        roots = complex_roots(IntPoly((1, 1, 1, 1, 1)), 1e-12)
        assert len(roots) == 4
        for r in roots:
            assert abs(abs(r.value) - 1) <= 1e-12

    def test_certified_radii(self):
        roots = complex_roots(IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)),
                              1e-13)
        assert max(r.radius for r in roots) < 1e-13

    def test_disks_cover_the_float_conversion(self):
        # the float centre may lie up to 2^-53 |z| from the mp root z,
        # which a widening by |z| 1e-16 misses on these random polynomials
        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(2, 12)
            P = IntPoly(tuple(rng.randint(-20, 20) for _ in range(d))
                        + (rng.randint(1, 3),))
            if not P.is_squarefree():
                continue
            zz, radii = P.certified_roots(1e-12)
            for z, r, rt in zip(zz, radii, complex_roots(P, 1e-12)):
                with mpm.workdps(60):
                    assert abs(mpm.mpc(rt.value) - z) + r <= rt.radius

    def test_non_squarefree_rejected(self):
        with pytest.raises(RepeatedRootError):
            complex_roots(IntPoly((1, -2, 1)))

    def test_deflation_path(self):
        p = IntPoly((1, -2, 1))
        assert p.squarefree_part().coeffs == (-1, 1)


class TestIntPoly:
    def test_primitive_sign(self):
        assert IntPoly((2, -4)).primitive().coeffs == (-1, 2)

    def test_divmod_exact(self):
        p = IntPoly((-1, 0, 0, 0, 1))  # X^4 - 1
        q = p.exact_div(IntPoly((1, 1)))
        assert q.coeffs == (-1, 1, -1, 1)

    def test_gcd(self):
        p = IntPoly((1, -2, 1))
        assert p.gcd(p.derivative()).coeffs == (-1, 1)

    def test_reversed_same_mahler_height(self):
        p = IntPoly((3, 1, -2))
        assert p.reversed().coeffs == (-2, 1, 3)
