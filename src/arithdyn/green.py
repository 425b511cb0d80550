"""Escape rates, Green pairings, discrepancy, Fekete points, moments.

Everything here lives over the complex numbers.  The homogeneous escape
rate Lambda(x, y) = lim d^-n log max(|U_n|, |V_n|) is evaluated by
renormalized iteration with an explicit tail bound from the two-sided
compacity inequality; the pairing

    G(P1, P2) = -log|x1 y2 - x2 y1| + Lambda(P1) + Lambda(P2)
                - log|Res(U, V)| / (d (d-1))

is scale-invariant and symmetric, +infinity on the diagonal.  Fekete
configurations maximize the product of |x_i y_j - x_j y_i| over the filled
Julia set.  The objective, the pairwise log-distance sum minus
2(n-1) sum Lambda, is unchanged when one point is scaled, so it is
evaluated at affine points (z, 1); power maps optimize on the unit circle,
general maps select points of backward orbits, which lie on the Julia set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .algebraic import AlgebraicNumber, height_algebraic
from .dynamics import RationalMap
from .errors import (InvalidInputError, ResourceLimitError,
                     UnsupportedScopeError)
from .numutil import factorize
from .polyforms import discriminant, vp

INF = "inf"  # marker for [1:0] in point lists


def as_pair(p):
    """Coerce a point spec (complex z, the INF marker, or an (x,y) pair)."""
    if isinstance(p, tuple):
        x, y = complex(p[0]), complex(p[1])
        if x == 0 and y == 0:
            raise InvalidInputError("(0, 0) is not a projective point")
        return x, y
    if isinstance(p, str) and p == INF:
        return complex(1), complex(0)
    return complex(p), complex(1)


@dataclass
class EscapeRateField:
    """Evaluator state for the homogeneous escape rate of one map."""

    map: RationalMap
    tol: float = 1e-9

    def __post_init__(self):
        self.degree = self.map.degree
        self.tail_constant = self.map.compacity_tail_constant()
        self._exact_power = self.map.is_unit_power_pair()
        self.depth = self._depth_for(self.tol)

    def _depth_for(self, tol):
        if self._exact_power:
            return 1
        d, K = self.degree, 1
        while (self.tail_constant + 1.0) / d ** K > tol / 10 and K < 200:
            K += 1
        return K

    def escape_vec(self, xs, ys):
        """Vectorized Lambda over numpy arrays of homogeneous coordinates."""
        x = np.asarray(xs, dtype=complex).copy()
        y = np.asarray(ys, dtype=complex).copy()
        if np.any((x == 0) & (y == 0)):
            raise InvalidInputError("(0, 0) has no escape rate")
        if self._exact_power:
            return np.log(np.maximum(np.abs(x), np.abs(y)))
        m = np.maximum(np.abs(x), np.abs(y))
        acc = np.log(m)
        x, y = x / m, y / m
        w = 1.0
        for _ in range(self.depth):
            X, Y = self.map.U(x, y), self.map.V(x, y)
            m = np.maximum(np.abs(X), np.abs(Y))
            w /= self.degree
            acc = acc + w * np.log(m)
            x, y = X / m, Y / m
        return acc

    def escape(self, x, y):
        return float(self.escape_vec(np.array([x]), np.array([y]))[0])

    def certified_error(self):
        """Bound on |computed - true| for escape_vec at the default depth."""
        if self._exact_power:
            return 1e-14
        return self.tail_constant / self.degree ** self.depth + 1e-12

    def res_term(self):
        d = self.degree
        return math.log(abs(self.map.res)) / (d * (d - 1))


def escape_rate(field: EscapeRateField, x, y):
    """Lambda(x, y) within the field's certified error."""
    return field.escape(x, y)


def filled_julia_membership(field: EscapeRateField, x, y):
    """'inside' / 'outside' / 'boundary-uncertain' by the sign of Lambda."""
    lam = field.escape(x, y)
    margin = field.certified_error()
    if lam <= -margin:
        return "inside"
    if lam >= margin:
        return "outside"
    return "boundary-uncertain"


def g_pairing(field: EscapeRateField, P1, P2):
    """The pairing G(P1, P2); +inf on the diagonal."""
    x1, y1 = as_pair(P1)
    x2, y2 = as_pair(P2)
    det = x1 * y2 - x2 * y1
    if det == 0:
        return math.inf
    lam = field.escape_vec(np.array([x1, x2]), np.array([y1, y2]))
    return float(-math.log(abs(det)) + lam[0] + lam[1] - field.res_term())


def _pairwise_mean_g(field, pairs):
    """Mean of G over ordered distinct pairs; +inf when two points coincide."""
    n = len(pairs)
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    det = np.outer(x, y) - np.outer(y, x)  # det[i,j] = x_i y_j - x_j y_i
    mask = ~np.eye(n, dtype=bool)
    if np.any(np.abs(det[mask]) == 0):
        return math.inf
    lam = field.escape_vec(x, y)
    s = -np.sum(np.log(np.abs(det[mask])))
    s += 2 * (n - 1) * np.sum(lam)
    s -= n * (n - 1) * field.res_term()
    return float(s / (n * (n - 1)))


def baker_mean_pairing(field: EscapeRateField, points):
    """(1/n(n-1)) sum_{i != j} G(P_i, P_j) over a point list."""
    pairs = [as_pair(p) for p in points]
    if len(pairs) < 2:
        raise InvalidInputError("need at least two points")
    return _pairwise_mean_g(field, pairs)


def baker_fit_constant(field: EscapeRateField, families):
    """Smallest c with mean >= -c log n / n across (n, points) families.

    Duplicate-point families (mean = +inf) are excluded from the fit.
    """
    c = 0.0
    rows = []
    for points in families:
        n = len(points)
        mean = baker_mean_pairing(field, points)
        if math.isinf(mean):
            rows.append((n, mean, True))
            continue
        rows.append((n, mean, False))
        if mean < 0 and n >= 2:
            c = max(c, -mean * n / math.log(n))
    return c, rows


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted finite point cloud on P^1(C)."""

    points: tuple  # tuple of (x, y) pairs

    def __init__(self, points):
        object.__setattr__(self, "points",
                           tuple(as_pair(p) for p in points))

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_algebraic(cls, xi: AlgebraicNumber, tol=1e-12):
        return cls([rt.value for rt in xi.conjugates(tol)])

    @classmethod
    def roots_of_unity(cls, n):
        return cls([cmath.exp(2j * math.pi * k / n) for k in range(n)])

    @classmethod
    def primitive_roots_of_unity(cls, p):
        """All primitive p-th roots for prime p (every root except 1)."""
        return cls([cmath.exp(2j * math.pi * k / p) for k in range(1, p)])

    def affine(self):
        """(finite z values, number of points at infinity)."""
        zs, at_inf = [], 0
        for x, y in self.points:
            if y == 0:
                at_inf += 1
            else:
                zs.append(x / y)
        return zs, at_inf


def discrete_energy(field: EscapeRateField, nu: EmpiricalMeasure):
    """Mean off-diagonal pairwise G, the discrete energy of nu."""
    pts = list(nu.points)
    if len(set(pts)) < 2:
        raise InvalidInputError("energy needs at least two distinct points")
    return _pairwise_mean_g(field, pts)


# ---------------------------------------------------------------------------
# discrepancy and the height identity for power maps
# ---------------------------------------------------------------------------

def discrepancy(field: EscapeRateField, xi: AlgebraicNumber, tol=1e-12):
    """Mean pairwise G over the conjugate cloud of xi (archimedean)."""
    if xi.degree < 2:
        raise InvalidInputError("discrepancy needs degree >= 2")
    m = EmpiricalMeasure.from_algebraic(xi, tol)
    return _pairwise_mean_g(field, list(m.points))


def height_discrepancy_check(xi: AlgebraicNumber, d=2, tol=1e-12):
    """(lhs, rhs, gap) for hhat = (1/2) sum_v D_v under the power map.

    Finite-place discrepancies are exact: with Delta the discriminant of
    the monicized minimal polynomial and a_0 the leading coefficient,
    D_p = -log|Delta|_p / (n(n-1)) + (2/n) v_p(a_0) log p.  Only the power
    map is supported (general maps would need p-adic escape rates).
    """
    if d < 2:
        raise UnsupportedScopeError("power exponent must be >= 2")
    n = xi.degree
    if n < 2:
        raise InvalidInputError("need degree >= 2")
    lhs = height_algebraic(xi, tol)

    # archimedean discrepancy from certified conjugates
    roots = [rt.value for rt in xi.conjugates(tol)]
    s = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s += math.log(abs(roots[i] - roots[j]))
    lam = sum(math.log(max(1.0, abs(z))) for z in roots)
    d_inf = -2 * s / (n * (n - 1)) + 2 * lam / n

    # exact finite parts
    a0 = abs(xi.minpoly.lead)
    disc = Fraction(discriminant(xi.minpoly))
    delta_monic = disc / Fraction(a0) ** (2 * n - 2)
    support = set(factorize(delta_monic.numerator)) \
        | set(factorize(delta_monic.denominator)) | set(factorize(a0))
    rhs = d_inf
    for p in sorted(support):
        v_delta = vp(delta_monic, p)
        d_p = v_delta * math.log(p) / (n * (n - 1)) \
            + 2 * vp(a0, p) * math.log(p) / n
        rhs += d_p
    rhs *= 0.5
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Fekete points / transfinite diameter
# ---------------------------------------------------------------------------

FEKETE_POOL = 4096  # backward-orbit points per pool, and the largest n


@dataclass
class TransfiniteDiameterResult:
    n: int
    delta_n: float
    formula_value: float
    converged: bool
    config: list  # affine complex positions of the best configuration


def _circle_objective(theta):
    n = len(theta)
    diff = theta[:, None] - theta[None, :]
    s = 2 * np.abs(np.sin(diff / 2)) + np.eye(n)
    F = np.sum(np.triu(np.log(s), 1))
    with np.errstate(divide="ignore"):
        cot = 0.5 / np.tan(diff / 2 + np.eye(n))
    np.fill_diagonal(cot, 0.0)
    return -F, -np.sum(cot, axis=1)


def _julia_backward_samples(f: RationalMap, n, rng):
    """n consecutive points of one random backward orbit, after a burn-in
    of 40 steps that carries the start onto the Julia set."""
    d = f.degree
    ucoef = [complex(c) for c in f.U.coeffs]
    vcoef = [complex(c) for c in f.V.coeffs]
    w = complex(rng.normal(), rng.normal())
    out = []
    for _ in range(40 + n):
        # a random root of U(z,1) - w V(z,1); a fresh start if there is none
        cs = [ucoef[i] - w * vcoef[i] for i in range(d + 1)]
        while cs and abs(cs[0]) < 1e-300:
            cs = cs[1:]
        pre = np.roots(cs) if len(cs) >= 2 else ()
        if len(pre) == 0:
            w = complex(rng.normal(), rng.normal())
        else:
            w = complex(pre[rng.integers(len(pre))])
        out.append(w)
    return np.array(out[40:], dtype=complex)


def _fekete_pools(field, restarts, seed):
    """restarts + 1 pools of distinct backward-orbit points, each with
    Lambda(z, 1) at its points."""
    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(restarts + 1):
        # a repeated point would make the kernel -inf
        pool = np.unique(_julia_backward_samples(field.map, FEKETE_POOL, rng))
        pools.append((pool, field.escape_vec(pool, np.ones(len(pool)))))
    return pools


def _config_objective(field, z):
    n = len(z)
    z = np.asarray(z, dtype=complex)
    diff = np.abs(z[:, None] - z[None, :]) + np.eye(n)
    lam = field.escape_vec(z, np.ones(n))
    return 2 * np.sum(np.triu(np.log(diff), 1)) - 2 * (n - 1) * np.sum(lam)


def _discrete_fekete(pool, lam, n):
    """n points of `pool` (distinct points, with Lambda(z, 1) in `lam`)
    maximizing the weighted pairwise kernel.

    The kernel log|z_i - z_j| - Lambda(z_i) - Lambda(z_j) sums to half the
    Fekete objective.  Greedy Leja selection from the pool point of largest
    modulus, then single-point exchanges until none improves the sum.  The
    weights matter for maps that are not polynomials, where Lambda(z, 1) is
    not zero on the Julia set.
    """
    def kernel(j):
        with np.errstate(divide="ignore"):
            k = np.log(np.abs(pool - pool[j])) - lam - lam[j]
        k[j] = 0.0
        return k

    sel = [int(np.argmax(np.abs(pool)))]
    cols = [kernel(sel[0])]
    total = cols[0].copy()
    while len(sel) < n:
        score = total.copy()
        score[sel] = -np.inf
        sel.append(int(np.argmax(score)))
        cols.append(kernel(sel[-1]))
        total += cols[-1]
    improved = True
    while improved:
        improved = False
        for s in range(n):
            rest = total - cols[s]
            score = rest.copy()
            score[sel] = -np.inf
            k = int(np.argmax(score))
            if score[k] > rest[sel[s]] + 1e-12:
                sel[s] = k
                cols[s] = kernel(k)
                total = rest + cols[s]
                improved = True
    return pool[sel]


def _greedy_delete(field, config, target):
    """Shrink a configuration one best deletion at a time.

    This operationalizes the monotonicity argument delta_(n+1) <= delta_n:
    the best single deletion never loses in the normalized product.
    """
    cfg = list(config)
    while len(cfg) > target:
        scores = [_config_objective(field, cfg[:s] + cfg[s + 1:])
                  for s in range(len(cfg))]
        cfg.pop(int(np.argmax(scores)))
    return cfg


def _check_fekete_problem(field, n, restarts):
    if n < 2:
        raise InvalidInputError("need n >= 2")
    # power maps have no pool, only their random starts
    if restarts < 0 or (restarts == 0 and field.map.is_unit_power_pair()):
        raise InvalidInputError("no start configuration: need restarts >= 1 "
                                "(>= 0 for maps other than power maps)")
    if n > FEKETE_POOL:
        raise ResourceLimitError(FEKETE_POOL, f"n = {n} exceeds the "
                                 f"{FEKETE_POOL} points of a Fekete pool")


def _fekete_result(field, n, objective, config, converged):
    d = field.degree
    formula = abs(field.map.res) ** (-1.0 / (d * (d - 1)))
    delta = math.exp(objective / (n * (n - 1)))
    return TransfiniteDiameterResult(n, delta, formula, converged, config)


def _pool_fekete(field, n, pools, warm_configs):
    """The best of the discrete Fekete configurations of the pools and of
    the warm configurations shrunk to n points."""
    cands = []
    for pool, lam in pools:
        if len(pool) < n:
            raise ResourceLimitError(len(pool), f"a Fekete pool has only "
                                     f"{len(pool)} distinct points, n = {n}")
        cands.append((_discrete_fekete(pool, lam, n), True))
    cands += [(np.array(_greedy_delete(field, cfg, n)), False)
              for cfg in warm_configs if len(cfg) >= n]
    best, best_cfg, converged = -math.inf, None, False
    for z, exchanged in cands:
        val = _config_objective(field, z)
        if val > best and np.isfinite(val):
            best, best_cfg, converged = val, list(z), exchanged
    return _fekete_result(field, n, best, best_cfg, converged)


def transfinite_diameter(field: EscapeRateField, n, restarts=32, seed=0,
                         warm_configs=()):
    """Fekete estimate of delta_n over the filled Julia set, with the
    closed-form limit |Res|^(-1/d(d-1)) for comparison.

    Power maps run `restarts` L-BFGS-B searches in angular coordinates on
    the distinguished boundary, where the optimum sits at |x| = |y| = 1.
    Other maps select n points of each of `restarts` + 1 pools of 4096
    backward-orbit points on the Julia set, by weighted Leja selection and
    single-point exchanges; no gradient search follows, since Lambda is not
    differentiable there.  For them each of `warm_configs` with at least n
    points, shrunk by best-deletion (which keeps sweeps monotone), is one
    more candidate.  The candidate of largest value wins.

    `delta_n` is the value of the returned `config`.  `converged` is True
    when that configuration ended its search: an L-BFGS-B run that reported
    success, or an exchange loop, so that no single exchange within its
    pool improves it.  It is False when a warm configuration wins.  n above
    4096, or a pool with fewer than n distinct points, raises
    ResourceLimitError.
    """
    _check_fekete_problem(field, n, restarts)
    if not field.map.is_unit_power_pair():
        return _pool_fekete(field, n, _fekete_pools(field, restarts, seed),
                            warm_configs)
    rng = np.random.default_rng(seed)
    best, best_cfg, converged = -math.inf, None, False
    for _ in range(restarts):
        th0 = rng.uniform(0, 2 * math.pi, n)
        res = minimize(_circle_objective, th0, jac=True, method="L-BFGS-B",
                       options=dict(maxiter=600, ftol=1e-18, gtol=1e-14))
        if -res.fun > best:
            best = -res.fun
            best_cfg = [cmath.exp(1j * t) for t in res.x]
            converged = res.success
    # _circle_objective counts each pair once
    return _fekete_result(field, n, 2 * best, best_cfg, converged)


def transfinite_diameter_sweep(field: EscapeRateField, ns, restarts=32,
                               seed=0):
    """delta_n over a descending chain of n values with deletion warm starts.

    Running largest-n first and shrinking its Fekete configuration keeps
    the reported sequence nonincreasing whenever the optimizer is at least
    as good as best-deletion (the paper's monotonicity mechanism).  Each n
    gets what `transfinite_diameter` gives when warm-started from the
    previous configuration; the pools are drawn once for every n.
    """
    ns = sorted(set(ns), reverse=True)
    if field.map.is_unit_power_pair():
        return {n: transfinite_diameter(field, n, restarts, seed) for n in ns}
    for n in ns:
        _check_fekete_problem(field, n, restarts)
    pools = _fekete_pools(field, restarts, seed)
    out, warm = {}, []
    for n in ns:
        out[n] = _pool_fekete(field, n, pools, warm)
        warm = [out[n].config]
    return out


# ---------------------------------------------------------------------------
# Bilu experiments
# ---------------------------------------------------------------------------

@dataclass
class MomentReport:
    moments: dict        # exponent -> |mean z^a|
    excluded: int        # points at 0 or infinity skipped for negative a
    n: int


def bilu_moment_test(nu: EmpiricalMeasure, exponents):
    """|(1/n) sum z_i^a| per exponent; Haar-converging families drive
    these to zero.  Points at 0/infinity are excluded (and counted) when a
    negative exponent makes them singular."""
    zs, at_inf = nu.affine()
    out = {}
    excluded_total = 0
    for a in exponents:
        if a == 0:
            raise InvalidInputError("exponent 0 is excluded (trivial moment)")
        pts = [z for z in zs if z != 0] if a < 0 else zs
        excluded = at_inf + (len(zs) - len(pts))
        if not pts:
            raise InvalidInputError("no usable points for the moment")
        mean = sum(z ** a for z in pts) / len(pts)
        out[a] = abs(mean)
        excluded_total = max(excluded_total, excluded)
    return MomentReport(out, excluded_total, len(nu))


def annulus_mass_bound(xi: AlgebraicNumber, r, tol=1e-10):
    """(observed outside-annulus conjugate fraction, 2 h(xi) / log r).

    'Outside' is counted with certified margins, so the observed value is a
    lower bound on the true mass and the lemma inequality is testable as
    stated.
    """
    if r <= 1:
        raise InvalidInputError("need r > 1")
    roots = xi.conjugates(tol)
    outside = 0
    for rt in roots:
        a = abs(rt.value)
        if a - rt.radius > r or a + rt.radius < 1 / r:
            outside += 1
    h = height_algebraic(xi, tol)
    return outside / xi.degree, 2 * max(h, 0.0) / math.log(r)
