"""The certified root finder: Aberth-Ehrlich iteration and a posteriori
Weierstrass inclusion disks, loaded on the first solve.

`polyforms.certified_roots_mp` and `polyforms.complex_roots` are the entry
points; they import this module in their bodies, so a process that never
finds a root, such as `height`, `enumerate`, `preperiodic` or `goodred`,
does not compile it.  One Aberth-Ehrlich sweep function runs twice: a float
pass on Python complex numbers, from a circle, until its corrections fall
below a few ulps, then an mp pass on mpmath numbers from the float pass's
iterates (from the Cauchy circle when a coefficient does not fit a float or
the float iterates end non-finite or coincident).  After each rung of the
mp pass its iterates are floored once onto the grid 2^-P, and the grid
points themselves are certified: Horner's rule on Gaussian integers gives
the polynomial's value at each of them exactly, so the Weierstrass radii
and the disjointness test run on integers with no rounding to bound
(`_separations`, `_weierstrass_radii`).  The mp pass doubles precision
until the disks are pairwise disjoint and smaller than the requested
tolerance.

No numpy, and mpmath for the mp sweeps only: p(z) and p'(z) on mpmath
numbers under `numutil.MP_PRECISION_LOCK`, the sums over the other
iterates on Python complex copies of them.  A solve returns its centres as
pairs of integers at the scale 2^-P, with no mpmath type.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidInputError, RepeatedRootError
from .numutil import MP_PRECISION_LOCK, ratio_up
from .polyforms import CertifiedRoot

ABERTH_SWEEPS = 120   # sweeps per Aberth pass, float or mp


def _circle(d):
    """d unit complex numbers at angles 2 pi (k + 1/4) / d."""
    return [complex(math.cos(2 * math.pi * (k + 0.25) / d),
                    math.sin(2 * math.pi * (k + 0.25) / d)) for k in range(d)]


def _pair_sum(ws, i):
    """sum over j != i of 1 / (ws[i] - ws[j])."""
    w = ws[i]
    s = 0
    for v in ws[:i]:
        s += 1 / (w - v)
    for v in ws[i + 1:]:
        s += 1 / (w - v)
    return s


# each float copy lies within 2^-53 of its iterate, relatively, so the
# difference of two copies at least NEAR |w| apart is right to about NEAR
NEAR = 2.0 ** -26


def _float_sum(ws, i):
    """`_pair_sum` on the Python complex numbers `ws`, or None where the
    float sum may be far off: when ws[i] or the sum is not finite, or some
    ws[j] lies within NEAR |ws[i]| of ws[i], where the roundings of the
    copies could spoil the difference."""
    w = ws[i]
    s = 0
    try:
        near = NEAR * abs(w)
        for j, v in enumerate(ws):
            if j != i:
                diff = w - v
                if not abs(diff) > near:
                    return None
                s += 1 / diff
    except OverflowError:     # abs of a complex beyond the float range
        return None
    return s if cmath.isfinite(s) else None


def _aberth(cs, zz, near, eps, stall):
    """Aberth-Ehrlich sweeps on the monic polynomial with coefficients `cs`
    (low degree first), updating the iterates `zz` in place, in whatever
    arithmetic they carry: Python complex or mpc.

    Each sweep updates the iterates one at a time, p and p' from one Horner
    loop.  In the mp pass the sum of 1 / (z - w) over the other iterates w
    is taken on `near`, Python complex copies of the iterates, each copy
    updated when its iterate moves; an iterate whose float sum `_float_sum`
    refuses (two copies close or equal, or beyond the float range) takes
    the sum on `zz` instead, as the float pass (`near` None) always does.
    The sum only steers the iteration: the disks certify the iterates
    wherever they end.

    An iterate is left where it is, its last correction not applied, once
    that correction is at most eps (1 + |z|), or at most stall (1 + |z|)
    without having halved since the sweep before: an ill-conditioned root
    that stalls at rounding noise.  The pass ends when every iterate is
    left, or after ABERTH_SWEEPS sweeps.
    """
    lead, head = cs[-1], cs[-2::-1]
    last = [math.inf] * len(zz)
    live = range(len(zz))
    for _ in range(ABERTH_SWEEPS):
        moving = []
        for i in live:
            z = zz[i]
            p, dp = lead, 0
            for c in head:
                dp = dp * z + p
                p = p * z + c
            if dp == 0:   # step off a critical point
                zz[i] = z + eps * (1 + abs(z))
                if near is not None:
                    near[i] = complex(zz[i])
                moving.append(i)
                continue
            nwt = p / dp
            s = None if near is None else _float_sum(near, i)
            if s is None:
                s = _pair_sum(zz, i)
            den = 1 - nwt * s
            corr = nwt if den == 0 else nwt / den
            step = abs(corr)
            if step > eps:
                scale = 1 + abs(z)
                if step > eps * scale and (step > stall * scale
                                           or 2 * step < last[i]):
                    zz[i] = z - corr
                    if near is not None:
                        near[i] = complex(zz[i])
                    last[i] = step
                    moving.append(i)
        if not moving:
            break
        live = moving


def _float_start(monic):
    """The float Aberth pass: iterates in Python complex, from the circle of
    radius |a_0|^(1/d) (the roots' geometric mean modulus) until the
    corrections fall below four ulps.  None, for the Cauchy circle instead,
    when a coefficient of the monic `monic` (Fractions) does not fit a float
    or the iterates end non-finite or coincident."""
    d = len(monic) - 1
    try:
        cs = [float(c) for c in monic]
        radius = abs(cs[0]) ** (1 / d) or 1.0
        zz = [radius * w for w in _circle(d)]
        _aberth(cs, zz, None, 2.0 ** -50, 2.0 ** -25)
    except (OverflowError, ZeroDivisionError):
        return None
    if all(map(cmath.isfinite, zz)) and len(set(zz)) == d:
        return zz
    return None


def _floor_scaled(x, P):
    """floor(x 2^P) for an mpf x."""
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    return man << (exp + P) if exp + P >= 0 else man >> -(exp + P)


def _separations(grid):
    """The table L with L[i][j] = isqrt(dX^2 + dY^2) <= 2^P |g_i - g_j| for
    i != j and L[i][i] = 1, for the grid points g_k = (X_k + i Y_k) / 2^P,
    grid[k] = (X_k, Y_k)."""
    d = len(grid)
    L = [[1] * d for _ in range(d)]
    for i, (x, y) in enumerate(grid):
        row = L[i]
        for j in range(i + 1, d):
            u, v = grid[j]
            row[j] = L[j][i] = math.isqrt((x - u) ** 2 + (y - v) ** 2)
    return L


def _weierstrass_radii(a, grid, P, tol):
    """Float radii, each below tol, of pairwise disjoint disks around the
    grid points g_i = (X_i + i Y_i) / 2^P, grid[i] = (X_i, Y_i), that hold
    one root each of the integer polynomial `a` (low degree first, of degree
    d = len(grid)); None when two grid points coincide, a radius reaches
    tol, or two disks may meet.

    Proof.  Horner's rule on the Gaussian integer X_i + i Y_i, with a_k
    scaled by 2^(P (d - k)), gives A_i + i B_i = 2^(P d) a(g_i) exactly.
    With 0 < L_ij <= 2^P |g_i - g_j| for j != i (`_separations`), the exact
    rational

        d ceil(sqrt(A_i^2 + B_i^2)) / (|a_d| 2^P prod_(j != i) L_ij)

    is at least d |a(g_i)| / (|a_d| prod_(j != i) |g_i - g_j|) = d |W_i|, d
    times the Weierstrass correction at the distinct points g, and the
    radius r_i is that rational rounded up to a float (`numutil.ratio_up`).
    The disks of radius d |W_i| about the g_i hold every root of a, a
    connected union of m of them exactly m (Carstensen, Numer. Math. 59,
    1991), so pairwise disjoint disks hold one root each.  Disks i and j are
    disjoint when L_ij > R_i + R_j for R_k = ceil(2^P r_k), since then
    2^P |g_i - g_j| >= L_ij > 2^P (r_i + r_j).  Nothing rounds but the one
    step to the float r_i.
    """
    d = len(grid)
    L = _separations(grid)
    if min(map(min, L)) <= 0:
        return None
    lead = a[-1]
    scaled = [c << P * (d - k) for k, c in enumerate(a)][-2::-1]
    tn, td = tol.as_integer_ratio()
    radii = []
    for (x, y), row in zip(grid, L):
        re, im = lead, 0
        for c in scaled:
            re, im = re * x - im * y + c, re * y + im * x
        m = re * re + im * im
        s = math.isqrt(m)
        n, den = d * (s + (s * s < m)), abs(lead) * math.prod(row) << P
        if n * td >= tn * den:   # beyond tol, or beyond the float range
            return None
        radii.append(ratio_up(n, den))
    if max(radii) >= tol:
        return None
    R = [-(-(n << P) // m) for n, m in map(float.as_integer_ratio, radii)]
    for i in range(d):
        row, Ri = L[i], R[i]
        for j in range(i + 1, d):
            if row[j] <= Ri + R[j]:
                return None
    return radii


def certified_roots_mp(coeffs, tol):
    """Aberth-Ehrlich with a posteriori Weierstrass disks.

    `coeffs` are exact Fractions low->high of a squarefree polynomial.
    Returns (P, centres, radii): centres[i] = (X_i, Y_i) for the disk about
    (X_i + i Y_i) / 2^P of float radius radii[i], rounded up.  The union of
    the disks contains all roots and the disks are pairwise disjoint, so
    each contains exactly one.  The mp pass starts from the float pass of
    `_float_start`, or from the Cauchy circle when that has none, and each
    rung of the precision ladder from the iterates of the one before; the
    centres are its iterates floored onto the grid 2^-P, P = prec + 8, and
    the disks are those of `_weierstrass_radii`.
    """
    import mpmath as mpm
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (den // c.denominator) for c in coeffs]
    zz = _float_start(monic)
    dps = max(30, int(-math.log10(tol)) + 15)
    for _ in range(8):
        with MP_PRECISION_LOCK, mpm.workdps(dps):
            cs = [mpm.mpf(c.numerator) / mpm.mpf(c.denominator)
                  for c in monic]
            if zz is None:   # the Cauchy circle
                radius = 1 + max(abs(c) for c in cs[:-1])
                zz = [radius * w for w in _circle(d)]
            zz = [mpm.mpc(w) for w in zz]
            bits = int((dps - 6) * math.log2(10))   # eps = 10^(6 - dps)
            _aberth(cs, zz, [complex(z) for z in zz],
                    mpm.ldexp(1, -bits), mpm.ldexp(1, -bits // 2))
            P = mpm.mp.prec + 8
            grid = [(_floor_scaled(z.real, P), _floor_scaled(z.imag, P))
                    for z in zz]
        radii = _weierstrass_radii(a, grid, P, tol)
        if radii is not None:
            return P, grid, radii
        dps *= 2
    raise RepeatedRootError(
        "root certification failed; inputs may be non-squarefree or "
        "ill-conditioned beyond the precision ladder")


def complex_roots(P, tol=1e-12):
    """Certified complex roots of a squarefree IntPoly.

    Raises RepeatedRootError for non-squarefree input (deflate with
    P.exact_div(P.gcd(P.derivative())) and retry).  The returned multiset is
    closed under conjugation up to tol.
    """
    if P.degree < 1:
        raise InvalidInputError("need degree >= 1")
    if not P.is_squarefree():
        raise RepeatedRootError(
            "polynomial has a repeated root; deflate by gcd(P, P') first")
    bits, centres, radii = P.certified_roots(tol)
    one = 1 << bits
    roots = []
    for (x, y), r in zip(centres, radii):
        # int division rounds correctly, so each part of the centre z rounds
        # within 2^-53 of itself (2^-1075 if subnormal):
        # |w - z| <= 2^-52 |w| + 2^-1074, sums rounded up
        w = complex(x / one, y / one)
        conv = math.nextafter(abs(w) * 2.0 ** -52 + 2.0 ** -1074, math.inf)
        roots.append(CertifiedRoot(w, math.nextafter(r + conv, math.inf)))
    # conjugation closure sanity (real coefficients force it)
    for rt in roots:
        if abs(rt.value.imag) > tol:
            if not any(abs(o.value - rt.value.conjugate()) <= 4 * (o.radius + rt.radius) + tol
                       for o in roots):
                raise RepeatedRootError("conjugate symmetry violated beyond tol")
    return roots
