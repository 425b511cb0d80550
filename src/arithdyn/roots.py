"""The certified root finder: Aberth-Ehrlich iteration and a posteriori
Weierstrass inclusion disks, loaded on the first solve.

`polyforms.certified_roots_mp` and `polyforms.complex_roots` are the entry
points; they import this module in their bodies, so a process that never
finds a root, such as `height`, `enumerate`, `preperiodic` or `goodred`,
does not compile it.  One Aberth-Ehrlich sweep function runs twice: a float
pass on Python complex numbers, from a circle, until its corrections fall
below a few ulps, then an mp pass on mpmath numbers from the float pass's
iterates (from the Cauchy circle when a coefficient does not fit a float or
the float iterates end non-finite or coincident).  The mp pass doubles
precision until the inclusion disks, widened by a bound on the rounding of
p(z), are pairwise disjoint and smaller than the requested tolerance.  No
numpy; mpmath only inside the mp pass, under `numutil.MP_PRECISION_LOCK`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import InvalidInputError, RepeatedRootError
from .numutil import MP_PRECISION_LOCK, float_up, horner
from .polyforms import CertifiedRoot

ABERTH_SWEEPS = 120   # sweeps per Aberth pass, float or mp


def _circle(d):
    """d unit complex numbers at angles 2 pi (k + 1/4) / d."""
    return [complex(math.cos(2 * math.pi * (k + 0.25) / d),
                    math.sin(2 * math.pi * (k + 0.25) / d)) for k in range(d)]


def _aberth(cs, zz, eps, stall):
    """Aberth-Ehrlich sweeps on the monic polynomial with coefficients `cs`
    (low degree first), updating the iterates `zz` in place, in whatever
    arithmetic they carry: Python complex or mpc.

    Each sweep updates the iterates one at a time, p and p' from one Horner
    loop.  An iterate is left where it is, its last correction not applied,
    once that correction is at most eps (1 + |z|), or at most
    stall (1 + |z|) without having halved since the sweep before: an
    ill-conditioned root that stalls at rounding noise.  The pass ends when
    every iterate is left, or after ABERTH_SWEEPS sweeps.  Returns p at each
    final iterate, None for those still moving when the sweeps ran out.
    """
    lead, head = cs[-1], cs[-2::-1]
    values = [None] * len(zz)
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
                moving.append(i)
                continue
            nwt = p / dp
            s = 0
            for w in zz[:i]:
                s += 1 / (z - w)
            for w in zz[i + 1:]:
                s += 1 / (z - w)
            den = 1 - nwt * s
            corr = nwt if den == 0 else nwt / den
            step = abs(corr)
            if step > eps:
                scale = 1 + abs(z)
                if step > eps * scale and (step > stall * scale
                                           or 2 * step < last[i]):
                    zz[i] = z - corr
                    last[i] = step
                    moving.append(i)
                    continue
            values[i] = p
        if not moving:
            break
        live = moving
    return values


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
        _aberth(cs, zz, 2.0 ** -50, 2.0 ** -25)
    except (OverflowError, ZeroDivisionError):
        return None
    if all(map(cmath.isfinite, zz)) and len(set(zz)) == d:
        return zz
    return None


def _mpc_poly(coeffs):
    import mpmath as mpm
    return [mpm.mpf(c.numerator) / mpm.mpf(c.denominator) for c in coeffs]


MODULUS_BITS = 64   # fixed-point scale 2^P of _modulus_sum_up


def _fixed_up(x, P):
    """ceil(x 2^P) for a raw libmp mpf x >= 0."""
    _, man, exp, _ = x
    return man << (exp + P) if exp + P >= 0 else -(-man >> -(exp + P))


def _modulus_sum_up(moduli, z):
    """An mpf >= sum_k |c_k| |z|^k for moduli[k] = _fixed_up(|c_k|, P),
    low degree first: Horner on integers at the scale 2^P, P =
    MODULUS_BITS, each step rounded up."""
    import mpmath as mpm
    from mpmath.libmp import mpf_add, mpf_mul
    P = MODULUS_BITS
    re, im = z._mpc_
    n = _fixed_up(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), 2 * P)
    r = math.isqrt(n)
    r += r * r < n        # r >= |z| 2^P
    acc = 0
    for m in reversed(moduli):
        acc = -(-acc * r >> P) + m
    return mpm.ldexp(acc, -P)


def certified_roots_mp(coeffs, tol):
    """Aberth-Ehrlich with a posteriori Weierstrass disks.

    `coeffs` are exact Fractions low->high of a squarefree polynomial.
    Returns (list of mpc, list of float radii rounded up); union of the
    returned disks contains all roots and disks are pairwise disjoint, so
    each contains exactly one.  The mp pass starts from the float pass of
    `_float_start`, or from the Cauchy circle when that has none, and each
    rung of the precision ladder from the iterates of the one before.
    """
    import mpmath as mpm
    from mpmath.libmp import mpf_abs
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    zz = _float_start(monic)
    dps = max(30, int(-math.log10(tol)) + 15)
    for _ in range(8):
        with MP_PRECISION_LOCK, mpm.workdps(dps):
            cs = _mpc_poly(monic)
            if zz is None:   # the Cauchy circle
                radius = 1 + max(abs(c) for c in cs[:-1])
                zz = [radius * w for w in _circle(d)]
            zz = [mpm.mpc(w) for w in zz]
            bits = int((dps - 6) * math.log2(10))   # eps = 10^(6 - dps)
            values = _aberth(cs, zz, mpm.ldexp(1, -bits),
                             mpm.ldexp(1, -bits // 2))

            # Horner's rounding of p(z) and that of the coefficients stay
            # below gamma sum |c_k| |z|^k; one more factor 1 + gamma covers
            # the roundings of the product and the quotient, and one the
            # roundings of the disjointness test (Higham, Accuracy and
            # Stability of Numerical Algorithms, 2nd ed., 5.1)
            gamma = mpm.ldexp(64 * (d + 1), 1 - mpm.mp.prec)
            grow = d * (1 + 2 * gamma)
            moduli = [_fixed_up(mpf_abs(c._mpf_), MODULUS_BITS) for c in cs]
            radii = []
            for i in range(d):
                den = mpm.mpc(1)
                for j in range(d):
                    if j != i:
                        den *= zz[i] - zz[j]
                if den == 0:
                    radii = None
                    break
                value = values[i] if values[i] is not None \
                    else horner(cs, zz[i])
                num = abs(value) + gamma * _modulus_sum_up(moduli, zz[i])
                radii.append(num / abs(den) * grow)
            if radii is not None:
                disjoint = all(abs(zz[i] - zz[j]) > radii[i] + radii[j]
                               for i in range(d) for j in range(i + 1, d))
                if disjoint and max(radii, default=mpm.mpf(0)) < tol:
                    return zz, [float_up(Fraction(r.man) * Fraction(2) ** r.exp)
                                for r in radii]
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
    zz, radii = P.certified_roots(tol)
    roots = []
    for z, r in zip(zz, radii):
        # each part of z rounds within 2^-53 of itself (2^-1075 if subnormal):
        # |complex(z) - z| <= 2^-52 |complex(z)| + 2^-1074, sums rounded up
        w = complex(z)
        conv = math.nextafter(abs(w) * 2.0 ** -52 + 2.0 ** -1074, math.inf)
        roots.append(CertifiedRoot(w, math.nextafter(r + conv, math.inf)))
    # conjugation closure sanity (real coefficients force it)
    for rt in roots:
        if abs(rt.value.imag) > tol:
            if not any(abs(o.value - rt.value.conjugate()) <= 4 * (o.radius + rt.radius) + tol
                       for o in roots):
                raise RepeatedRootError("conjugate symmetry violated beyond tol")
    return roots
