"""Seeded workload inputs, built without arithdyn.

Every input is a plain integer, integer tuple or float.  The same seed gives
the same inputs; the arithdyn objects are built from them inside the timed
section of each operation.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# exact helpers (independent of arithdyn)
# ---------------------------------------------------------------------------


def det_exact(rows):
    """Determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def form_resultant(U, V):
    """Res of two binary forms of degree d (U[i] multiplies X^(d-i) Y^i).

    Classical Sylvester resultant of the dehomogenized polynomials, with the
    leading coefficients kept so that a common root at infinity gives 0.
    """
    d = len(U) - 1
    rows = []
    for i in range(d):
        rows.append([0] * i + list(U) + [0] * (d - 1 - i))
    for i in range(d):
        rows.append([0] * i + list(V) + [0] * (d - 1 - i))
    return det_exact(rows)


def apply_form(C, a, b):
    d = len(C) - 1
    return sum(c * a ** (d - i) * b ** i for i, c in enumerate(C))


def normalize_point(a, b):
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


def map_image(U, V, pt):
    """f(x) in normalized coprime integer coordinates."""
    a, b = pt
    return normalize_point(apply_form(U, a, b), apply_form(V, a, b))


def poly_divmod(num, den):
    """Exact division of coefficient lists (low degree first) over Q."""
    r = [Fraction(c) for c in num]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        t = r[-1] / den[-1]
        k = len(r) - len(den)
        q[k] = t
        for i, c in enumerate(den):
            r[k + i] -= t * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


def poly_gcd_degree(p, q):
    a, b = [Fraction(c) for c in p], [Fraction(c) for c in q]
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return len(a) - 1


def is_squarefree(coeffs):
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    return poly_gcd_degree(coeffs, deriv) == 0


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """Phi_n by exact division of X^n - 1 by Phi_m over proper divisors m."""
    num = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            num, rem = poly_divmod(num, cyclotomic_coeffs(m))
            if rem:
                raise ArithmeticError(f"Phi_{m} does not divide X^{n} - 1")
    return tuple(int(c) for c in num)


def _well_separated(coeffs, sep=1e-3, unit_gap=1e-6):
    """Float screen: no near-repeated roots and none near |z| = 1."""
    z = np.roots(list(reversed(coeffs)))
    if np.any(np.abs(np.abs(z) - 1) < unit_gap):
        return False
    d = len(z)
    return all(abs(z[i] - z[j]) > sep for i in range(d) for j in range(i + 1, d))


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

POWER_MAPS = {"z^2": ((1, 0, 0), (0, 0, 1)), "z^3": ((1, 0, 0, 0), (0, 0, 0, 1))}
PREPERIODIC_MAPS = {"z^2+1": ((1, 0, 1), (0, 0, 1)),
                    "z^2-1": ((1, 0, -1), (0, 0, 1)),
                    "z^3-1": ((1, 0, 0, -1), (0, 0, 0, 1))}
CHEBYSHEV = {"T2": ((2, 0, -1), (0, 0, 1)), "T3": ((4, 0, -3, 0), (0, 0, 0, 1))}
HEIGHT_TOLS = (1e-6, 1e-12)
SWEEP_DEGREES = (2, 3, 4, 5)
SWEEP_POINTS = 3
SINGLE_DEGREES = (2, 3, 4, 5) * 8
POWER_POINTS = 3
COMMUTING_SAMPLES = 6
COMMUTING_TOL = 1e-6


def random_map(rng, d, cmax=9):
    while True:
        U = tuple(rng.randint(-cmax, cmax) for _ in range(d + 1))
        V = tuple(rng.randint(-cmax, cmax) for _ in range(d + 1))
        if form_resultant(U, V) != 0:
            return U, V


def random_point(rng, hmax=50):
    while True:
        a, b = rng.randint(-hmax, hmax), rng.randint(0, hmax)
        if (a or b) and math.gcd(a, b) == 1:
            return normalize_point(a, b)


def heights_inputs(seed):
    """Maps as (U, V) coefficient tuples, points as coprime pairs."""
    rng = random.Random(f"heights:{seed}")
    sweeps = [{"map": random_map(rng, d),
               "points": [random_point(rng) for _ in range(SWEEP_POINTS)]}
              for d in SWEEP_DEGREES]
    singles = [{"map": random_map(rng, d), "points": [random_point(rng)],
                "tols": (HEIGHT_TOLS[i % 2],)}
               for i, d in enumerate(SINGLE_DEGREES)]
    for s in sweeps:
        s["tols"] = HEIGHT_TOLS
    power = [{"name": name, "map": m,
              "points": [random_point(rng, 10 ** 6) for _ in range(POWER_POINTS)]}
             for name, m in POWER_MAPS.items()]
    samples = [random_point(rng, 9) for _ in range(COMMUTING_SAMPLES)]
    return {"sweeps": sweeps, "singles": singles, "power": power,
            "preperiodic": dict(PREPERIODIC_MAPS), "chebyshev": dict(CHEBYSHEV),
            "commuting_samples": samples}


def heights_warmup_inputs():
    return {"sweeps": [], "singles": [
        {"map": ((1, 2, -3), (2, 0, 5)), "points": [(3, 7)], "tols": (1e-6,)}],
        "power": [{"name": "z^2", "map": POWER_MAPS["z^2"], "points": [(2, 3)]}],
        "preperiodic": {"z^3-1": PREPERIODIC_MAPS["z^3-1"]},
        "chebyshev": dict(CHEBYSHEV), "commuting_samples": [(1, 2)]}


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

CYCLOTOMIC_ORDERS = (3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 15, 16, 18, 20, 21, 24,
                     30, 36, 105)
TRINOMIAL_DEGREES = tuple(range(2, 17))          # X^d - X - 1
BINOMIAL_DEGREES = tuple(range(2, 13))           # X^d - 2
REVERSED_DEGREES = tuple(range(2, 11))           # 2 X^d - 1
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
RANDOM_DEGREES = tuple(range(2, 13)) * 4         # seeded small coefficients
ANNULUS_RADII = (1.1, 1.5, 3.0)
PAIR_DEGREES = ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 8))
PAIR_EXPONENTS = ((1, 1), (1, -1), (2, 1))


def annulus_radius(i):
    """The annulus radius of the i-th corpus entry: the radii take turns, so
    that a round stays short enough to be repeated within a run."""
    return ANNULUS_RADII[i % len(ANNULUS_RADII)]


def random_poly(rng, d, cmax=3):
    """Primitive, squarefree, well-conditioned, nonzero constant term, and no
    root near |z| = 1 (so that no factor is cyclotomic)."""
    while True:
        cs = [rng.randint(-cmax, cmax) for _ in range(d)] + [rng.randint(1, cmax)]
        if cs[0] != 0 and math.gcd(*cs) == 1 and is_squarefree(cs) \
                and _well_separated(cs):
            return tuple(cs)


def conjugates_inputs(seed):
    """Corpus entries: (kind, parameter, coefficients low degree first)."""
    rng = random.Random(f"conjugates:{seed}")
    corpus = [("cyclotomic", n, cyclotomic_coeffs(n)) for n in CYCLOTOMIC_ORDERS]
    corpus += [("trinomial", d, (-1, -1) + (0,) * (d - 2) + (1,))
               for d in TRINOMIAL_DEGREES]
    corpus += [("binomial", d, (-2,) + (0,) * (d - 1) + (1,))
               for d in BINOMIAL_DEGREES]
    corpus += [("reversed", d, (-1,) + (0,) * (d - 1) + (2,))
               for d in REVERSED_DEGREES]
    corpus += [("lehmer", 10, LEHMER)]
    corpus += [("random", d, random_poly(rng, d)) for d in RANDOM_DEGREES]
    pairs = [(random_poly(rng, da), random_poly(rng, db),
              PAIR_EXPONENTS[i % len(PAIR_EXPONENTS)])
             for i, (da, db) in enumerate(PAIR_DEGREES)]
    return {"corpus": corpus, "pairs": pairs}


def conjugates_warmup_inputs():
    # Phi_6 is the only input of is_root_of_unity here, so its first call
    # in the process is the one that builds the phi-inverse table
    return {"corpus": [("cyclotomic", 6, cyclotomic_coeffs(6))],
            "pairs": [((-2, 0, 1), (-3, 0, 1), (1, 1))]}


# ---------------------------------------------------------------------------
# fekete
# ---------------------------------------------------------------------------

FEKETE_MAPS = {"z^2": ((1, 0, 0), (0, 0, 1)),
               "z^2+1": ((1, 0, 1), (0, 0, 1)),
               "z^2-1": ((1, 0, -1), (0, 0, 1)),
               "z-1/z": ((1, 0, -1), (0, 1, 0))}
# (map, n values, restarts); a tuple of several n is one sweep.  Every run
# solves these with the library's default optimizer seed, 0: with seeds
# drawn from the run seed, an optimizer fault (the reported delta_n is not
# the value of the returned configuration) shows on some seeds and not on
# others, so `failed` would not be the same share in every run.
FEKETE_PROBLEMS = (("z^2", 3, 4), ("z^2", 10, 4), ("z^2", 20, 4),
                   ("z^2+1", (5, 10, 15, 20), 2), ("z-1/z", 12, 2))
# (map, n, restarts, optimizer seed) on which that fault shows every time:
# delta_12 is reported 1.3e-6 below the value of its own configuration.
# Solved in every round and counted as failed while the fault stands.
FEKETE_FAULT = ("z-1/z", 12, 2, 775654026)
FIELD_TOL = 1e-10
MEMBERSHIP_TOL = 1e-9
GRID = 20
MEMBERSHIP_PASSES = 3
UNITY_SIZES = 6
DISCREPANCY_NUMBERS = 3


def fekete_inputs(seed):
    rng = random.Random(f"fekete:{seed}")
    step = 4.0 / GRID
    jitter = (rng.uniform(0, step), rng.uniform(0, step))
    grid = [complex(-2.0 + jitter[0] + i * step, -2.0 + jitter[1] + j * step)
            for j in range(GRID) for i in range(GRID)]
    sizes = [1000] + sorted(rng.sample(range(10, 1000), UNITY_SIZES - 1),
                            reverse=True)
    unity = [[cmath.exp(2j * math.pi * k / n) for k in range(n)] for n in sizes]
    numbers = []
    while len(numbers) < DISCREPANCY_NUMBERS:
        d = 2 + len(numbers) % 2
        cs = random_poly(rng, d, 5)
        if cs not in numbers:
            numbers.append(cs)
    return {"problems": FEKETE_PROBLEMS, "fault": FEKETE_FAULT,
            "grid": grid, "passes": MEMBERSHIP_PASSES, "unity": unity,
            "numbers": numbers}


def fekete_warmup_inputs():
    return {"problems": (("z^2", 3, 1), ("z^2+1", (3,), 0),
                                    ("z-1/z", 3, 0)),
            "grid": [0.1 + 0.2j, 1.9 - 1.7j],
            "unity": [[cmath.exp(2j * math.pi * k / 8) for k in range(8)]],
            "numbers": [(-2, 0, 1)]}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLOUD_POINTS = 48


def cli_cloud(seed):
    """Cloud for the `energy` example: distinct points near the unit circle."""
    rng = random.Random(f"cli:{seed}")
    pts = set()
    while len(pts) < CLOUD_POINTS:
        r = rng.uniform(0.5, 1.5)
        t = rng.uniform(0, 2 * math.pi)
        pts.add(complex(round(r * math.cos(t), 12), round(r * math.sin(t), 12)))
    return sorted(pts, key=lambda z: (z.real, z.imag))
