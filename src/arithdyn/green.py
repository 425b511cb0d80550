"""Escape rates, Green pairings, discrepancy, Fekete points, moments.

Everything here lives over the complex numbers.  The homogeneous escape
rate Lambda(x, y) = lim d^-n log max(|U_n|, |V_n|) is evaluated by
renormalized iteration with an explicit tail bound from the two-sided
compacity inequality.  One recurrence, `EscapeRateField._lambda`, does it:
on Python complex numbers with math.log for one point (`escape`,
membership, the pairing), where numpy's per-call cost would dominate, and
on numpy arrays for many.  A map with a coefficient beyond the float range
is refused when its field is built.  The pairing

    G(P1, P2) = -log|x1 y2 - x2 y1| + Lambda(P1) + Lambda(P2)
                - log|Res(U, V)| / (d (d-1))

is scale-invariant and symmetric, +infinity on the diagonal.  Its means
over point sets (Baker means, energies, discrepancies) sum the
log-determinants over i < j.  Sets of at most PAIR_PYTHON_POINTS points,
all that the CLI's README examples pass, are summed in Python floats, as
importing numpy would cost such a process more than the sum; larger sets
are summed with numpy a block of rows at a time, at most PAIR_BLOCK
entries per block, so memory does not grow with n^2.  Point sets of more
than PAIR_POINT_CAP points raise ResourceLimitError before they are
built.  Fekete configurations maximize the product of |x_i y_j - x_j y_i|
over the filled Julia set.  The objective, the pairwise log-distance sum
minus 2(n-1) sum Lambda, is unchanged when one point is scaled, so it is
evaluated at affine points (z, 1).  For power maps, where Lambda = log
max(|x|, |y|), Hadamard's inequality on the homogeneous Vandermonde
determinant makes the n-th roots of unity a maximizer, so delta_n =
n^(1/(n-1)) in closed form; general maps select points of backward orbits,
which lie on the Julia set.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebraic import AlgebraicNumber, height_algebraic
from .errors import (InvalidInputError, ResourceLimitError,
                     UnsupportedScopeError)
from .numutil import Value, factorize
from .polyforms import discriminant, vp

if TYPE_CHECKING:   # only height_discrepancy_terms builds a map
    from .dynamics import RationalMap

INF = "inf"  # marker for [1:0] in point lists


def _log(t):
    # math.log with np.log's values at 0 and NaN
    return math.log(t) if t > 0 else -math.inf if t == 0 else math.nan


def _abs(z):
    # abs with np.abs's inf where the modulus of a finite z overflows
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _max_abs(x, y):
    # max(|x|, |y|) as np.maximum(np.abs(x), np.abs(y)) gives it: NaN from
    # either side propagates, and a modulus beyond the float range is inf
    try:
        a, b = abs(x), abs(y)
    except OverflowError:
        a, b = _abs(x), _abs(y)
    return a if a >= b or a != a else b


def __getattr__(name):
    # nothing here minimizes; `green.minimize` stays readable for code that
    # wraps it (perfbench's traced runs), and only that read imports scipy,
    # which would otherwise dominate the start-up of every CLI process
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def as_pair(p):
    """Coerce a point spec (complex z, the INF marker, or an (x,y) pair)."""
    if type(p) is tuple:   # a record such as CertifiedRoot is not a pair
        x, y = complex(p[0]), complex(p[1])
        if x == 0 and y == 0:
            raise InvalidInputError("(0, 0) is not a projective point")
        return x, y
    if isinstance(p, str) and p == INF:
        return complex(1), complex(0)
    return complex(p), complex(1)


class EscapeRateField(Value):
    """Evaluator state for the homogeneous escape rate of one map."""

    _fields = ("map", "tol")
    __hash__ = None

    def __init__(self, map: RationalMap, tol: float = 1e-9):
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "tol", tol)
        for name, form in (("U", map.U), ("V", map.V)):
            for i, c in enumerate(form.coeffs):
                try:
                    float(c)
                except OverflowError:
                    raise InvalidInputError(
                        f"coefficient {name}[{i}] of the map, a "
                        f"{abs(c).bit_length()}-bit integer, does not fit a "
                        "float; the escape-rate field evaluates the map in "
                        "floats") from None
        object.__setattr__(self, "degree", map.degree)
        object.__setattr__(self, "tail_constant",
                           map.compacity_tail_constant())
        object.__setattr__(self, "_exact_power", map.is_unit_power_pair())
        object.__setattr__(self, "depth", self._depth_for(tol))

    def _depth_for(self, tol):
        d, K = self.degree, 1
        while (self.tail_constant + 1.0) / d ** K > tol / 10 and K < 200:
            K += 1
        return K

    def _lambda(self, x, y, log, max_abs):
        """The escape-rate recurrence, for Python complex x, y with _log and
        _max_abs or for numpy arrays with np.log and the maximum of np.abs."""
        m = max_abs(x, y)
        acc = log(m)
        if self._exact_power:
            return acc
        U, V, d = self.map.U, self.map.V, self.degree
        x, y = x / m, y / m
        w = 1.0
        for _ in range(self.depth):
            X, Y = U(x, y), V(x, y)
            m = max_abs(X, Y)
            w /= d
            acc = acc + w * log(m)
            x, y = X / m, Y / m
        return acc

    def escape_vec(self, xs, ys):
        """Vectorized Lambda over numpy arrays of homogeneous coordinates."""
        import numpy as np
        x = np.asarray(xs, dtype=complex)
        y = np.asarray(ys, dtype=complex)
        if np.any((x == 0) & (y == 0)):
            raise InvalidInputError("(0, 0) has no escape rate")
        return self._lambda(x, y, np.log,
                            lambda a, b: np.maximum(abs(a), abs(b)))

    def escape(self, x, y):
        """Lambda at one point, without numpy; NaN or inf where escape_vec
        gives them (a non-finite coordinate, a modulus beyond the float
        range)."""
        x, y = complex(x), complex(y)
        if x == 0 and y == 0:
            raise InvalidInputError("(0, 0) has no escape rate")
        try:
            return float(self._lambda(x, y, _log, _max_abs))
        except ZeroDivisionError:  # an orbit fell on (0, 0): NaN in numpy
            return math.nan

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


def _label(lam, margin):
    return ("inside" if lam <= -margin else
            "outside" if lam >= margin else "boundary-uncertain")


def filled_julia_membership(field: EscapeRateField, x, y):
    """'inside' / 'outside' / 'boundary-uncertain' by the sign of Lambda."""
    return _label(field.escape(x, y), field.certified_error())


def filled_julia_memberships(field: EscapeRateField, xs, ys):
    """filled_julia_membership at each point of two coordinate arrays, from
    one escape_vec call."""
    margin = field.certified_error()
    return [_label(lam, margin) for lam in field.escape_vec(xs, ys).tolist()]


def g_pairing(field: EscapeRateField, P1, P2):
    """The pairing G(P1, P2); +inf on the diagonal."""
    x1, y1 = as_pair(P1)
    x2, y2 = as_pair(P2)
    det = x1 * y2 - x2 * y1
    if det == 0:
        return math.inf
    return (-math.log(abs(det)) + field.escape(x1, y1) + field.escape(x2, y2)
            - field.res_term())


PAIR_POINT_CAP = 2 ** 14  # most points of a pairwise statistic
PAIR_BLOCK = 2 ** 18  # most entries of one block of pairwise determinants
PAIR_PYTHON_POINTS = 64  # most points whose pairwise sums run in floats


def _check_point_count(n):
    if n > PAIR_POINT_CAP:
        raise ResourceLimitError(PAIR_POINT_CAP, f"{n} points exceed the "
                                 f"point cap {PAIR_POINT_CAP}")


def _pairwise_mean_g(field, pairs):
    """Mean of G over ordered distinct pairs; +inf when two points coincide.

    G is symmetric, so the log-determinant sum runs over i < j.  Up to
    PAIR_PYTHON_POINTS = 64 points, the most that a CLI example passes, both
    sums run in Python floats with each Lambda from field.escape: a CLI
    process then imports no numpy, which would cost it about 0.1 s, while 64
    points of a power map take about 1 ms (0.2 ms with numpy).  A general
    map runs its recurrence once per point, so there 64 points take about 9
    times the numpy time (9 ms against 1 ms at tol 1e-10); no benchmark
    workload runs that case.  Larger sets are summed with numpy a block of
    rows at a time, no block holding more than PAIR_BLOCK determinants.  The
    path depends on the point count alone, and both paths give the same
    +inf, -inf or NaN where a coordinate is not finite or a modulus
    overflows."""
    n = len(pairs)
    sums = (_python_sums if n <= PAIR_PYTHON_POINTS else _numpy_sums)(
        field, pairs)
    if sums is None:
        return math.inf
    logs, lam = sums
    s = -2 * logs
    s += 2 * (n - 1) * lam
    s -= n * (n - 1) * field.res_term()
    return float(s / (n * (n - 1)))


def _python_sums(field, pairs):
    """(sum over i < j of log|x_i y_j - x_j y_i|, sum of Lambda) in Python
    floats; None when two points coincide."""
    dets = [xi * yj - xj * yi
            for j, (xj, yj) in enumerate(pairs) for xi, yi in pairs[:j]]
    try:
        mods = list(map(abs, dets))
    except OverflowError:
        mods = list(map(_abs, dets))
    if 0.0 in mods:
        return None
    return (math.fsum(map(math.log, mods)),
            math.fsum(field.escape(x, y) for x, y in pairs))


def _numpy_sums(field, pairs):
    """_python_sums with numpy, a block of rows at a time."""
    import numpy as np
    n = len(pairs)
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    rows = max(1, PAIR_BLOCK // n)
    logs = 0.0
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        # det[r, c] = x_i y_j - x_j y_i with i = a + r, j = a + 1 + c
        det = np.multiply.outer(x[a:b], y[a + 1:])
        det -= np.multiply.outer(y[a:b], x[a + 1:])
        mod = np.abs(det)
        del det
        mod[np.tril_indices(b - a, -1, n - a - 1)] = 1.0  # the pairs j <= i
        if np.any(mod == 0):
            return None
        logs += float(np.sum(np.log(mod)))
    return logs, np.sum(field.escape_vec(x, y))


def baker_mean_pairing(field: EscapeRateField, points):
    """(1/n(n-1)) sum_{i != j} G(P_i, P_j) over a point list."""
    _check_point_count(len(points))
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


class EmpiricalMeasure(Value):
    """Uniformly weighted finite point cloud on P^1(C)."""

    _fields = ("points",)  # a tuple of (x, y) pairs

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
        _check_point_count(n)
        return cls([cmath.exp(2j * math.pi * k / n) for k in range(n)])

    @classmethod
    def primitive_roots_of_unity(cls, p):
        """All primitive p-th roots for prime p (every root except 1)."""
        _check_point_count(p - 1)
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
    _check_point_count(len(nu))
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


POWER_D_CAP = 64  # largest power-map degree; its resultant is 2d x 2d


def height_discrepancy_check(xi: AlgebraicNumber, d=2, tol=1e-12):
    """(lhs, rhs, gap) for hhat = (1/2) sum_v D_v under the power map."""
    return height_discrepancy_terms(xi, d, tol)[1:]


def height_discrepancy_terms(xi: AlgebraicNumber, d=2, tol=1e-12):
    """(D_inf, lhs, rhs, gap) for hhat = (1/2) sum_v D_v under the power map.

    Finite-place discrepancies are exact: with Delta the discriminant of
    the monicized minimal polynomial and a_0 the leading coefficient,
    D_p = -log|Delta|_p / (n(n-1)) + (2/n) v_p(a_0) log p.  Only the power
    map is supported (general maps would need p-adic escape rates); d < 2
    raises UnsupportedScopeError and d above POWER_D_CAP ResourceLimitError.
    """
    if d < 2:
        raise UnsupportedScopeError("power exponent must be >= 2")
    if d > POWER_D_CAP:
        raise ResourceLimitError(POWER_D_CAP, f"power exponent {d} exceeds "
                                 f"the cap {POWER_D_CAP}")
    from .dynamics import RationalMap
    d_inf = discrepancy(EscapeRateField(RationalMap.power(d), tol), xi, tol)
    lhs = height_algebraic(xi, tol)
    n = xi.degree

    # exact finite parts
    a0 = abs(xi.minpoly.lead)
    disc = Fraction(discriminant(xi.minpoly))
    delta_monic = disc / Fraction(a0) ** (2 * n - 2)
    support = set(factorize(delta_monic.numerator)) \
        | set(factorize(delta_monic.denominator)) | set(factorize(a0))
    rhs = d_inf
    for p in sorted(support):
        rhs += vp(delta_monic, p) * math.log(p) / (n * (n - 1)) \
            + 2 * vp(a0, p) * math.log(p) / n
    rhs *= 0.5
    return d_inf, lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Fekete points / transfinite diameter
# ---------------------------------------------------------------------------

FEKETE_POOL = 4096  # backward-orbit points per pool, and the largest n
FEKETE_ORBITS = 64  # backward orbits advanced together to draw one pool


class TransfiniteDiameterResult(NamedTuple):
    n: int
    delta_n: float
    formula_value: float
    converged: bool
    config: list  # affine complex positions of the best configuration

    __hash__ = None   # a result: compared, never used as a key


def _julia_backward_samples(f: RationalMap, n, rng):
    """n points of FEKETE_ORBITS random backward orbits advanced together,
    after a burn-in of 40 steps that carries the starts onto the Julia set.

    Point k * FEKETE_ORBITS + i is step k of orbit i, so f maps it to point
    (k - 1) * FEKETE_ORBITS + i.  Each step takes the roots of every orbit's
    U(z, 1) - w V(z, 1) from one stacked eigenvalue call on the companion
    matrices and follows a random one; an orbit whose equation has lost its
    leading coefficient starts afresh.  The generator is used the same way
    whatever the data.
    """
    import numpy as np
    d, m = f.degree, FEKETE_ORBITS
    ucoef = np.array([complex(c) for c in f.U.coeffs])
    vcoef = np.array([complex(c) for c in f.V.coeffs])
    companion = np.zeros((m, d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    w = rng.normal(size=m) + 1j * rng.normal(size=m)
    steps = 40 + -(-n // m)
    out = np.empty((steps, m), dtype=complex)
    for k in range(steps):
        cs = ucoef - w[:, None] * vcoef
        lost = np.abs(cs[:, 0]) <= 1e-300
        lead = np.where(lost, 1.0, cs[:, 0])  # a lost row's roots go unused
        companion[:, 0, :] = -cs[:, 1:] / lead[:, None]
        roots = np.linalg.eigvals(companion)
        pick = rng.integers(d, size=m)
        fresh = rng.normal(size=m) + 1j * rng.normal(size=m)
        out[k] = w = np.where(lost, fresh, roots[np.arange(m), pick])
    return out[40:].ravel()[:n]


def _fekete_pools(field, restarts, seed):
    """restarts + 1 pools of distinct backward-orbit points, each with
    Lambda(z, 1) at its points."""
    import numpy as np
    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(restarts + 1):
        # a repeated point would make the kernel -inf
        pool = np.unique(_julia_backward_samples(field.map, FEKETE_POOL, rng))
        pools.append((pool, field.escape_vec(pool, np.ones(len(pool)))))
    return pools


def _config_objective(field, z):
    import numpy as np
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
    import numpy as np

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
    Deleting z_s from m points leaves m - 1 points whose objective is a
    constant less 2 (sum_j log|z_s - z_j| - (m - 2) Lambda(z_s)), so the
    best deletion minimizes that score; Lambda is computed once.
    """
    import numpy as np
    z = np.asarray(config, dtype=complex)
    lam = field.escape_vec(z, np.ones(len(z)))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(z[:, None] - z[None, :]))
    np.fill_diagonal(logs, 0.0)
    rows = logs.sum(axis=1)
    keep = np.ones(len(z), dtype=bool)
    for m in range(len(z), target, -1):
        s = int(np.argmin(np.where(keep, rows - (m - 2) * lam, np.inf)))
        keep[s] = False
        with np.errstate(invalid="ignore"):
            rows -= logs[:, s]
        # a repeated point makes its row -inf, and deleting a copy leaves
        # -inf - (-inf): the rows of the other copies are summed afresh
        redo = keep & np.isnan(rows)
        if redo.any():
            rows[redo] = logs[np.ix_(redo, keep)].sum(axis=1)
    return list(z[keep])


def _check_fekete_problem(n, restarts):
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if restarts < 0:
        raise InvalidInputError("need restarts >= 0")
    if n > FEKETE_POOL:
        raise ResourceLimitError(FEKETE_POOL, f"n = {n} exceeds the "
                                 f"{FEKETE_POOL} points of a Fekete pool")


def _pool_fekete(field, n, pools, warm_configs):
    """The best of the discrete Fekete configurations of the pools and of
    the warm configurations shrunk to n points."""
    cands = []
    for pool, lam in pools:
        if len(pool) < n:
            raise ResourceLimitError(len(pool), f"a Fekete pool has only "
                                     f"{len(pool)} distinct points, n = {n}")
        cands.append((_discrete_fekete(pool, lam, n), True))
    cands += [(_greedy_delete(field, cfg, n), False)
              for cfg in warm_configs if len(cfg) >= n]
    best, best_cfg, converged = -math.inf, None, False
    for z, exchanged in cands:
        val = _config_objective(field, z)
        if val > best and math.isfinite(val):
            best, best_cfg, converged = val, list(z), exchanged
    d = field.degree
    return TransfiniteDiameterResult(
        n, math.exp(best / (n * (n - 1))),
        abs(field.map.res) ** (-1.0 / (d * (d - 1))), converged, best_cfg)


def transfinite_diameter(field: EscapeRateField, n, restarts=32, seed=0,
                         warm_configs=()):
    """Fekete estimate of delta_n over the filled Julia set, with the
    closed-form limit |Res|^(-1/d(d-1)) for comparison.

    Power maps need no search: the n-th roots of unity maximize the
    objective, so they are returned with delta_n = n^(1/(n-1)), and
    `restarts`, `seed` and `warm_configs` are not used.  Other maps select
    n points of each of `restarts` + 1 pools on the Julia set, by weighted
    Leja selection and single-point exchanges; no gradient search follows,
    since Lambda is not differentiable there.  A pool is the 4096 points
    of 64 random backward orbits run together for 64 steps after a burn-in
    of 40, and pool k depends only on `seed` and k, so a run with fewer
    restarts draws the first pools of a run with more.  For general maps
    each of `warm_configs` with at least n points, shrunk by best-deletion
    (which keeps sweeps monotone), is one more candidate.  The candidate of
    largest value wins.

    `delta_n` is the value of the returned `config`.  `converged` is True
    when that configuration is a maximizer (power maps) or ended an
    exchange loop, so that no single exchange within its pool improves it.
    It is False when a warm configuration wins.  n < 2 or restarts < 0
    raises InvalidInputError; n above 4096, or a pool with fewer than n
    distinct points, raises ResourceLimitError.
    """
    _check_fekete_problem(n, restarts)
    if field.map.is_unit_power_pair():
        roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        # |Res| = 1, so the limit |Res|^(-1/d(d-1)) is 1
        return TransfiniteDiameterResult(n, n ** (1 / (n - 1)), 1.0, True,
                                         roots)
    return _pool_fekete(field, n, _fekete_pools(field, restarts, seed),
                        warm_configs)


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
        _check_fekete_problem(n, restarts)
    pools = _fekete_pools(field, restarts, seed)
    out, warm = {}, []
    for n in ns:
        out[n] = _pool_fekete(field, n, pools, warm)
        warm = [out[n].config]
    return out


# ---------------------------------------------------------------------------
# Bilu experiments
# ---------------------------------------------------------------------------

class MomentReport(NamedTuple):
    moments: dict        # exponent -> |mean z^a|
    excluded: int        # points at 0 or infinity skipped for negative a
    n: int

    __hash__ = None   # a result: compared, never used as a key


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
