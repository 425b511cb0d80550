"""Exact-arithmetic layer: resultants, cofactors, discriminants, roots.

The independent oracle for the resultants of forms is a permutation-
expansion determinant over the hand-built Sylvester matrix, kept free of
the Bareiss code path under test.  The univariate gcds, resultants and
quotients of the subresultant sequence are checked against the algorithms
it replaced: Euclid over Fractions and Bareiss on the Sylvester matrix.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

import mpmath as mpm
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.algebraic import mahler_measure
from arithdyn.errors import InvalidInputError, RepeatedRootError
from arithdyn.numutil import float_up
from arithdyn.polyforms import (BinaryForm, IntPoly, PadicValuation,
                                _bareiss, _form_add, _form_mul,
                                certified_roots_mp, complex_roots,
                                cyclotomic, discriminant, euler_phi,
                                nullstellensatz_cofactors, resultant,
                                resultant_univariate, vp)
from arithdyn.roots import _float_start


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


def sylvester_general(p, q):
    """Sylvester matrix of high-first coefficient lists of degrees m and n:
    columns 0..n-1 hold the shifts of p, columns n..n+m-1 those of q."""
    m, n = len(p) - 1, len(q) - 1
    mat = [[0] * (m + n) for _ in range(m + n)]
    for i in range(n):
        for k, c in enumerate(p):
            mat[i + k][i] = c
    for i in range(m):
        for k, c in enumerate(q):
            mat[i + k][n + i] = c
    return mat


def resultant_by_bareiss(P, Q):
    """Oracle: Res(P, Q) as the Bareiss determinant of the Sylvester matrix."""
    m, n = P.degree, Q.degree
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return P.lead ** n
    if n == 0:
        return Q.lead ** m
    return _bareiss(sylvester_general(P.coeffs[::-1], Q.coeffs[::-1]))[0]


def divmod_over_q(P, Q):
    """Oracle: Euclidean division over Q; (quotient, remainder) as lists of
    Fractions, low degree first, the remainder trimmed."""
    b = [Fraction(c) for c in Q.coeffs]
    r = [Fraction(c) for c in P.coeffs]
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        t, k = r[-1] / b[-1], len(r) - len(b)
        q[k] = t
        for i, c in enumerate(b):
            r[k + i] -= t * c
        while r and r[-1] == 0:
            r.pop()
    return q, r


def gcd_by_fraction_euclid(P, Q):
    """Oracle: Euclid over Q, scaled to a primitive integer polynomial."""
    a, b = P, Q
    while not b.is_zero():
        _, r = divmod_over_q(a, b)
        den = math.lcm(*(c.denominator for c in r))
        a, b = b, IntPoly([int(c * den) for c in r])
    return a.primitive()


@st.composite
def int_polys(draw, max_degree=7):
    """Integer polynomials of degree -1 (zero) to max_degree with contents
    above 1, negative leading coefficients and zero constant terms."""
    d = draw(st.integers(-1, max_degree))
    if d < 0:
        return IntPoly(())
    low = draw(st.lists(st.integers(-12, 12), min_size=d, max_size=d))
    zeros = draw(st.integers(0, d))
    lead = draw(st.integers(-12, 12).filter(bool))
    content = draw(st.sampled_from([1, 1, 2, 3, 30]))
    return IntPoly([0] * zeros + [content * c for c in low[zeros:]]
                   + [content * lead])


def dynatomic(c, n):
    """Phi*_n of z^2 + c: the product of (f^k(z) - z)^mu(n/k) over k | n, by
    exact division (n <= 8)."""
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    num = den = IntPoly((1,))
    for k in range(1, n + 1):
        if n % k or not mobius[n // k]:
            continue
        fk = IntPoly((0, 1))
        for _ in range(k):
            fk = fk * fk + IntPoly((c,))
        if mobius[n // k] > 0:
            num = num * (fk + IntPoly((0, -1)))
        else:
            den = den * (fk + IntPoly((0, -1)))
    return num.exact_div(den)


class TestSubresultants:
    @settings(max_examples=400, deadline=None)
    @given(int_polys(), int_polys(), int_polys(3), st.booleans())
    def test_against_euclid_and_bareiss(self, P, Q, F, share):
        if share and not F.is_zero():     # a forced common factor
            P, Q = P * F, Q * F
        assert resultant_univariate(P, Q) == resultant_by_bareiss(P, Q)
        g = P.gcd(Q)
        assert g == gcd_by_fraction_euclid(P, Q)
        assert P.is_squarefree() == (
            gcd_by_fraction_euclid(P, P.derivative()).degree == 0)
        if P.degree >= 2:
            want = Fraction(resultant_by_bareiss(P, P.derivative()), P.lead)
            want *= -1 if P.degree * (P.degree - 1) // 2 % 2 else 1
            assert discriminant(P) == want
        if Q.is_zero():
            return
        q, r = divmod_over_q(P, Q)
        if r or any(c.denominator != 1 for c in q):
            with pytest.raises(InvalidInputError):
                P.exact_div(Q)
        else:
            assert P.exact_div(Q) == IntPoly([int(c) for c in q])
        assert (P * Q).exact_div(Q) == P

    def test_squarefree_part(self):
        P = IntPoly((0, 0, -3, 3)) * IntPoly((1, 2)) * IntPoly((1, 2))
        S = P.squarefree_part()                 # 3X^2 (X - 1) (2X + 1)^2
        assert S == IntPoly((0, -1, 1)) * IntPoly((1, 2))
        assert S.is_squarefree() and not P.is_squarefree()
        assert IntPoly((-6,)).squarefree_part() == IntPoly((1,))

    def test_zero_polynomial(self):
        P, zero = IntPoly((4, -2)), IntPoly(())
        assert P.gcd(zero) == zero.gcd(P) == IntPoly((-2, 1))
        assert zero.gcd(zero).is_zero()
        assert resultant_univariate(P, zero) == 0
        assert resultant_univariate(zero, P) == 0
        assert zero.exact_div(P).is_zero()
        assert not zero.is_squarefree()
        with pytest.raises(ZeroDivisionError):
            P.exact_div(zero)

    def test_constants(self):
        P = IntPoly((1, 0, -3))
        assert resultant_univariate(P, IntPoly((-2,))) == 4
        assert resultant_univariate(IntPoly((-2,)), P) == 4
        assert resultant_univariate(IntPoly((5,)), IntPoly((7,))) == 1
        assert P.gcd(IntPoly((6,))) == IntPoly((1,))

    def test_division_outside_z_is_refused(self):
        two_x_plus_4 = IntPoly((4, 2))
        assert two_x_plus_4.exact_div(IntPoly((2,))) == IntPoly((2, 1))
        with pytest.raises(InvalidInputError):
            two_x_plus_4.exact_div(IntPoly((4,)))
        with pytest.raises(InvalidInputError):
            IntPoly((1, 0, 1)).exact_div(IntPoly((1, 1)))

    def test_coefficients_must_be_integers(self):
        with pytest.raises(InvalidInputError):
            IntPoly((Fraction(1, 2),))
        with pytest.raises(InvalidInputError):
            IntPoly((1, 2.0))
        assert IntPoly((3, 0, 0)).coeffs == (3,)

    @pytest.mark.parametrize("c", [-2, -1, 1, 2])
    def test_dynatomic_discriminants_against_bareiss(self, c):
        for n, degree in enumerate((2, 2, 6, 12, 30, 54), start=1):
            P = dynatomic(c, n)
            assert P.degree == degree
            want = Fraction(resultant_by_bareiss(P, P.derivative()), P.lead)
            want *= -1 if P.degree * (P.degree - 1) // 2 % 2 else 1
            assert discriminant(P) == want

    def test_degree_60_squarefree_is_fast(self):
        rng = random.Random(3)
        P = IntPoly([rng.randint(-10, 10) for _ in range(60)] + [1])
        t0 = time.perf_counter()
        assert P.is_squarefree()
        assert time.perf_counter() - t0 < 0.05

    def test_degree_126_discriminant_is_fast(self):
        P = dynatomic(-1, 7)
        assert P.degree == 126
        t0 = time.perf_counter()
        disc = discriminant(P)
        assert time.perf_counter() - t0 < 1.0
        assert disc != 0 and P.is_squarefree()


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
            bits, centres, radii = P.certified_roots(1e-12)
            with mpm.workdps(60):
                zz = _mpc_centres(bits, centres)
                for z, r, rt in zip(zz, radii, complex_roots(P, 1e-12)):
                    assert abs(mpm.mpc(rt.value) - z) + r <= rt.radius

    def test_disks_hold_roots_below_the_float_range(self):
        # 10^400 X^2 - 1 has roots +-1e-200; its monic constant term
        # underflows to 0 in floats, so the float pass heads for the double
        # root 0 of X^2 and the mp pass has to separate the two
        P = IntPoly((-1, 0, 10 ** 400))
        bits, centres, radii = P.certified_roots(1e-12)
        with mpm.workdps(260):
            for z, r in zip(_mpc_centres(bits, centres), radii):
                assert min(abs(z - w) for w in (mpm.mpf(10) ** -200,
                                                -mpm.mpf(10) ** -200)) <= r

    def test_non_squarefree_rejected(self):
        with pytest.raises(RepeatedRootError):
            complex_roots(IntPoly((1, -2, 1)))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, 5e-324,
                                     -5e-324, math.inf])
    def test_tolerance_no_float_radius_meets_is_refused(self, tol):
        # a radius is a float below tol: none is below 2^-1074 but 0
        P = IntPoly((-2, 0, 1))
        solves = [lambda: complex_roots(P, tol),
                  lambda: certified_roots_mp([Fraction(c) for c in P.coeffs],
                                             tol)]
        if tol != math.inf:   # mahler asks for radii below 1e-13 then
            solves.append(lambda: mahler_measure(P, tol))
        start = time.monotonic()
        for solve in solves:
            with pytest.raises(InvalidInputError) as err:
                solve()
            assert type(err.value) is InvalidInputError
        assert time.monotonic() - start < 0.5

    def test_mahler_refuses_a_tolerance_whose_radii_no_float_meets(self):
        # mahler asks its roots for radii below tol / 100
        P = IntPoly((-2, 0, 1))
        with pytest.raises(InvalidInputError, match="2\\^-1074"):
            mahler_measure(P, 4e-322)
        assert mahler_measure(P, math.inf).measure == 2.0
        # the least bound a positive float radius can meet is 2^-1073
        assert max(P.certified_roots(1e-323)[2]) < 1e-323

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


def _product(roots):
    P = IntPoly((1,))
    for r in roots:
        P = P * IntPoly((-r, 1))
    return P


def _monic(P):
    return [Fraction(c, P.lead) for c in P.coeffs]


def _mpc_centres(bits, centres):
    """The exact centres (X + i Y) / 2^bits of a solve as mpc values, each
    part rounded once to the working precision."""
    return [mpm.mpc(mpm.ldexp(x, -bits), mpm.ldexp(y, -bits))
            for x, y in centres]


def _float_centres(bits, centres):
    """The centres of a solve rounded to complex floats."""
    return [complex(x / 2 ** bits, y / 2 ** bits) for x, y in centres]


ROOT_START_CASES = {
    # the coefficient ratio 10^320 overflows a float: the mp pass starts
    # from the Cauchy circle; the roots are about -1e-320 and +-1e160
    "coefficient_10^320": IntPoly((-1, -10 ** 320, 0, 1)),
    "wilkinson_20": _product(range(1, 21)),
    # roots 1 and 1 + 10^-10
    "close_pair": IntPoly((10 ** 10 + 1, -(2 * 10 ** 10 + 1), 10 ** 10)),
    "phi_105": cyclotomic(105),
}


class TestRootStart:
    """Certified roots from the float pass, or from the Cauchy circle when
    it has no start to give."""

    @pytest.mark.parametrize("name", ROOT_START_CASES)
    def test_disks_are_disjoint_and_each_holds_one_root(self, name):
        P = ROOT_START_CASES[name]
        d = P.degree
        bits, centres, radii = certified_roots_mp(
            [Fraction(c) for c in P.coeffs], 1e-12)
        assert len(centres) == d and max(radii) < 1e-12
        # 60 digits below the largest modulus, as the disks are absolute
        size = max(abs(w) for w in _float_centres(bits, centres))
        digits = 60 + max(0, int(math.log10(size)))
        with mpm.workdps(digits):
            zz = _mpc_centres(bits, centres)
            assert all(abs(zz[i] - zz[j]) > radii[i] + radii[j]
                       for i in range(d) for j in range(i + 1, d))
            ref = mpm.polyroots(list(reversed(P.coeffs)), maxsteps=2000,
                                extraprec=digits)
            nearest = [min(range(d), key=lambda k: abs(ref[k] - z))
                       for z in zz]
            assert sorted(nearest) == list(range(d))
            assert all(abs(ref[k] - z) <= r
                       for k, z, r in zip(nearest, zz, radii))

    def test_radius_rounds_up_below_the_normal_range(self):
        # libmp rounds a subnormal to nearest whatever the direction asked
        def exact(x):
            return Fraction(x.man) * Fraction(2) ** x.exp

        x = mpm.mpf(5e-324) * 1.25
        assert float_up(exact(x)) == 1e-323
        assert float_up(exact(mpm.mpf(0.5))) == 0.5

    def test_float_pass_hands_over_on_overflow(self):
        assert _float_start(_monic(ROOT_START_CASES["coefficient_10^320"])) \
            is None
        with pytest.raises(OverflowError):   # what the float pass meets
            float(Fraction(10 ** 320))

    def test_float_pass_lands_within_ulps(self):
        P = ROOT_START_CASES["phi_105"]
        start = _float_start(_monic(P))
        zz = _float_centres(*P.certified_roots(1e-12)[:2])
        assert len(start) == 48
        assert all(min(abs(w - z) for z in zz) < 1e-14 for w in start)

    @pytest.mark.parametrize("spoil", [
        lambda zz: [zz[0]] * len(zz),                 # coincident
        lambda zz: [complex(math.nan, 0)] + zz[1:],   # non-finite
    ], ids=["coincident", "non-finite"])
    def test_float_pass_hands_over_spoilt_iterates(self, spoil, monkeypatch):
        # such float iterates would divide by zero in the mp pass; it starts
        # from the Cauchy circle instead
        import arithdyn.roots as roots
        aberth = roots._aberth

        def spoilt(cs, zz, near, eps, stall):
            aberth(cs, zz, near, eps, stall)
            if isinstance(zz[0], complex):
                zz[:] = spoil(zz)

        monkeypatch.setattr(roots, "_aberth", spoilt)
        P = IntPoly((-2, 0, 1))
        assert _float_start(_monic(P)) is None
        bits, centres, _ = certified_roots_mp(
            [Fraction(c) for c in P.coeffs], 1e-12)
        assert sorted(w.real for w in _float_centres(bits, centres)) == \
            pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-15)


class TestMixedPrecision:
    """The mp pass outside Horner: Aberth sums on float copies of the
    iterates, with an mp fallback, and Weierstrass radii on integers."""

    @staticmethod
    def check_separations(grid, P):
        # isqrt(dX^2 + dY^2) <= 2^P |g_i - g_j| < isqrt(...) + 2 for the
        # grid points g = (X + i Y) / 2^P, the distance at 60 digits
        from arithdyn.roots import _separations
        L = _separations(grid)
        d = len(grid)
        with mpm.workdps(60):
            zz = _mpc_centres(P, grid)
            for i in range(d):
                assert L[i][i] == 1
                for j in range(i + 1, d):
                    exact = mpm.ldexp(abs(zz[i] - zz[j]), P)
                    assert L[i][j] == L[j][i] <= exact < L[i][j] + 2, (i, j)

    def test_separations_are_lower_bounds(self):
        rng = random.Random(21)
        solved = [certified_roots_mp(_monic(cyclotomic(105)), 1e-12)[:2]]
        while len(solved) < 10:
            d = rng.randint(2, 48)
            P = IntPoly(tuple(rng.randint(-10, 10) for _ in range(d))
                        + (rng.randint(1, 3),))
            if P.is_squarefree():
                solved.append(P.certified_roots(1e-12)[:2])
        for bits, centres in solved:
            assert bits == 103 + 8    # the grid of the solver's first rung
            # and coarser grids, where the floor truncates every part
            for P in (bits, 64, 40):
                self.check_separations(
                    [(x >> bits - P, y >> bits - P) for x, y in centres], P)

    @staticmethod
    def certify_apart(P, roots, monkeypatch):
        """Certified roots of P, each disk holding one of `roots` at 60
        digits: the centres as complex floats, and the iterates whose Aberth
        sums were taken in mp."""
        import arithdyn.roots as mod
        pair_sum, in_mp = mod._pair_sum, []

        def recorded(ws, i):
            if not isinstance(ws[i], complex):
                in_mp.append(i)
            return pair_sum(ws, i)

        monkeypatch.setattr(mod, "_pair_sum", recorded)
        bits, centres, radii = certified_roots_mp(
            [Fraction(c) for c in P.coeffs], 1e-12)
        with mpm.workdps(60):
            zz = _mpc_centres(bits, centres)
            assert all(abs(zz[i] - zz[j]) > radii[i] + radii[j]
                       for i in range(len(zz)) for j in range(i))
            for root in roots:
                assert sum(abs(z - root) <= r for z, r in zip(zz, radii)) == 1
        return _float_centres(bits, centres), sorted(set(in_mp))

    def test_real_roots_that_coincide_as_floats(self, monkeypatch):
        # (X - 1)(10^20 X - 10^20 - 1): the roots 1 and 1 + 10^-20 are both
        # 1.0 as floats, and so is the float pass's polynomial (X - 1)^2;
        # the float copies of the two iterates stay too close for a float sum
        P = IntPoly((10 ** 20 + 1, -(2 * 10 ** 20 + 1), 10 ** 20))
        assert P.is_squarefree()
        with mpm.workdps(60):
            roots = (mpm.mpf(1), 1 + mpm.mpf(10) ** -20)
        zz, in_mp = self.certify_apart(P, roots, monkeypatch)
        assert in_mp == [0, 1] and zz[0].real == zz[1].real

    def test_iterates_that_coincide_as_floats(self, monkeypatch):
        # (X^2 - 2X + 2)(X^2 - 2(1 + e)X + 2(1 + e)^2), e = 10^-20: the
        # iterates of 1 + i and (1 + i)(1 + e), and of their conjugates, end
        # with equal float copies
        E = 10 ** 20
        P = IntPoly((2, -2, 1)) * IntPoly((2 * (E + 1) ** 2, -2 * (E + 1) * E,
                                           E * E))
        assert P.is_squarefree()
        with mpm.workdps(60):
            e = mpm.mpf(10) ** -20
            roots = [mpm.mpc(1, s) * t for s in (1, -1) for t in (1, 1 + e)]
        zz, in_mp = self.certify_apart(P, roots, monkeypatch)
        assert in_mp == [0, 1, 2, 3]
        assert sorted(zz, key=lambda w: w.imag) == \
            [1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j]

    def test_float_sums_refuse_close_copies(self):
        from arithdyn.roots import NEAR, _float_sum, _pair_sum
        ws = [1 + 1j, 2.0, -3j]
        assert _float_sum(ws, 0) == _pair_sum(ws, 0)
        for bad in ([1.0, 1.0, 2.0],                       # equal
                    [1.0, 1 + NEAR / 2, 2.0],              # within NEAR
                    [complex(math.inf, 0), 1.0, 2.0],      # beyond the range
                    [complex(math.nan, 0), 1.0, 2.0]):
            assert _float_sum(bad, 0) is None, bad
        assert _float_sum([1.0, 1 + 2 * NEAR, 2.0], 0) is not None
