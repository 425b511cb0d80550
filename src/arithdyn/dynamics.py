"""Rational self-maps of P^1 over Q and canonical heights.

A map is a pair of integer binary forms (U, V) of common degree d >= 2 with
nonzero resultant and joint content 1.  Two independent canonical-height
algorithms are provided:

* `canonical_height_global` follows the limit definition hhat = lim d^-n
  h(f^n x): the gcd-reduced orbit is iterated exactly while coordinates are
  small, then continued in certified interval arithmetic (the per-step gcds
  stay exact: every gcd divides Res(U, V), so they are recovered from cheap
  p-adic orbit tracks at the bad primes).  The truncation error comes from
  the functoriality constants via the telescoping bound c/(d^n (d-1)).

* `canonical_height_local` assembles the height place by place: finite
  places are exact rational multiples of log p extracted from gcd
  valuations (tail bounded by v_p(Res) log p d^-K/(d-1)); the archimedean
  place is a renormalized escape-rate iteration in interval arithmetic with
  an explicit tail constant from the two-sided compacity inequality.

Cross-asserting the two is the intended bug detector; the local route is
authoritative, the global route is the oracle.  Below the two routes the
pieces are shared: exact orbits come from `iterate`, and both interval
computations run one kernel, `_renormalized_orbit`, on fixed-point integer
intervals at an explicit scale 2^P, renormalized by exact powers of two.
`_orbit_log_enclosure` closes it with logs of 2, of the bad primes and of
the final magnitude enclosed on integers (`numutil.log_bounds`), and doubles
P until the reported error (measured from the reported float) meets the
tolerance; no mpmath is imported.  Bounds computed in floats are rounded up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (DegenerateMapError, InvalidInputError,
                     ResourceLimitError)
from .numutil import (Value, factorize, float_up, horner, kept_on_instance,
                      log_bounds, log_up, reported)
from .polyforms import BinaryForm, resultant
from .projective import (ProjPointQ, _hmax_from_log_bound, binary_constants,
                         count_points, enumerate_points, unit_power_pair)

EXACT_PHASE_BITS = 4096          # switch from exact ints to intervals
DIGIT_BUDGET = 10 ** 6           # decimal digits per coordinate, hard stop
PREPERIODIC_ENUM_CAP = 500_000   # points under the Northcott bound


class RationalMap(Value):
    """Endomorphism of P^1 given by coprime integer forms of degree d >= 2.

    The factorization of Res(U, V), the largest Nullstellensatz cofactor
    coefficient and the constants derived from them are computed on first
    use and kept on the instance, outside `_fields`: equality, hashing and
    repr depend on U, V and Res = Res(U, V) only.
    """

    _fields = ("U", "V", "res")

    def __init__(self, U, V):
        if U.degree != V.degree or U.degree < 2:
            raise InvalidInputError("need two forms of equal degree >= 2")
        joint = math.gcd(U.content(), V.content())
        if joint == 0:
            raise InvalidInputError("forms cannot both vanish")
        if joint > 1:
            U = BinaryForm(U.degree, tuple(c // joint for c in U.coeffs))
            V = BinaryForm(V.degree, tuple(c // joint for c in V.coeffs))
        r = resultant(U, V)
        if r == 0:
            raise DegenerateMapError("Res(U, V) = 0: not an endomorphism")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "res", r)

    @classmethod
    def power(cls, d):
        """The unit power map [X^d : Y^d]."""
        return cls(BinaryForm(d, (1,) + (0,) * d),
                   BinaryForm(d, (0,) * d + (1,)))

    @property
    def degree(self):
        return self.U.degree

    @property
    @kept_on_instance
    def res_factors(self):
        """((p, v_p(Res)), ...) over the primes dividing Res, increasing."""
        return tuple(sorted(factorize(self.res).items()))

    @property
    @kept_on_instance
    def bad_primes(self):
        return tuple(p for p, _ in self.res_factors)

    def apply(self, x: ProjPointQ):
        a, b = _p1_coords(x)
        return ProjPointQ((self.U(a, b), self.V(a, b)))

    def is_unit_power_pair(self):
        """True for [±X^d : ±Y^d] and the coordinate-swapped variant."""
        return unit_power_pair(self.U, self.V)

    @kept_on_instance
    def _binary_constants(self):
        return binary_constants(self.U, self.V)

    def max_cofactor_coeff(self):
        """Largest |coefficient| of the Nullstellensatz cofactors."""
        return self._binary_constants()[2]

    def functoriality_constants(self):
        """(c_upper, c_lower) for d h(x) - c_lower <= h(f x) <= d h(x) + c_upper,
        from `projective.binary_constants`; zero for unit power pairs."""
        return self._binary_constants()[:2]

    @kept_on_instance
    def compacity_tail_constant(self):
        """C with |Lambda(x,y) - log max(|x|,|y|)| <= C on C^2 minus 0.

        From c_lo^-1 max^d <= max(|U|,|V|) <= c_up max^d one gets
        C = max(log c_up, log c_lo)/(d-1), rounded up; exactly zero for unit
        power pairs.
        """
        if self.is_unit_power_pair():
            return 0.0
        c_up, _ = self.functoriality_constants()
        c_lo = Fraction(2 * self.degree * self.max_cofactor_coeff(),
                        abs(self.res))
        step = max(c_up, log_up(max(c_lo, 1)))
        return float_up(Fraction(step) / (self.degree - 1))

    def compose(self, other: "RationalMap"):
        """self after other, as a normalized RationalMap."""
        return RationalMap(self.U.compose(other.U, other.V),
                           self.V.compose(other.U, other.V))

    def equals_projectively(self, other):
        return (ProjPointQ(self.U.coeffs + self.V.coeffs)
                == ProjPointQ(other.U.coeffs + other.V.coeffs))

    def to_json(self):
        return {"d": self.degree,
                "U": [int(c) for c in self.U.coeffs],
                "V": [int(c) for c in self.V.coeffs]}

    @classmethod
    def from_json(cls, data):
        d = int(data["d"])
        return cls(BinaryForm(d, [int(c) for c in data["U"]]),
                   BinaryForm(d, [int(c) for c in data["V"]]))


def good_reduction_at(f: RationalMap, p):
    """True iff v_p(Res(U, V)) = 0 for the content-1 integral model."""
    return f.res % p != 0


# ---------------------------------------------------------------------------
# exact orbits
# ---------------------------------------------------------------------------

class OrbitRecord(NamedTuple):
    points: list
    gcds: list                    # g_k with U(x_{k-1}) = g_k a_k etc.
    status: str                   # "cycle" | "escaping" | "budget-exhausted"
    cycle_entry: int | None = None
    cycle_length: int | None = None

    __hash__ = None   # a result: compared, never used as a key


def _p1_coords(x: ProjPointQ):
    """(a, b) for a point of P^1; InvalidInputError for any other."""
    if x.dim != 1:
        raise InvalidInputError(f"a map of P^1 takes a point of P^1, not "
                                f"the point {x} of P^{x.dim}")
    return x.coords


def iterate(f: RationalMap, x: ProjPointQ, n_max=1000, height_cap=60.0,
            digit_budget=DIGIT_BUDGET):
    """gcd-reduced exact orbit with cycle detection.

    Stops at the first revisited point, when log-height exceeds height_cap
    (escaping; a start above the cap takes no step), or at n_max / the
    digit budget (budget-exhausted; a step whose U and V values exceed the
    budget is not taken).  Each step takes one gcd, in `ProjPointQ`, and
    reads g_k off the reduced point.
    """
    _p1_coords(x)
    pts = [x]
    gcds = []
    if x.height() > height_cap:
        return OrbitRecord(pts, gcds, "escaping")
    seen = {x.coords: 0}
    bit_cap = int(digit_budget * math.log2(10))
    for k in range(n_max):
        a, b = pts[-1].coords
        A, B = f.U(a, b), f.V(a, b)
        if max(abs(A), abs(B)).bit_length() > bit_cap:
            return OrbitRecord(pts, gcds, "budget-exhausted")
        nxt = ProjPointQ((A, B))
        a, b = nxt.coords
        gcds.append(abs(A) // abs(a) if a else abs(B) // abs(b))
        pts.append(nxt)
        if nxt.coords in seen:
            return OrbitRecord(pts, gcds, "cycle",
                               cycle_entry=seen[nxt.coords],
                               cycle_length=k + 1 - seen[nxt.coords])
        seen[nxt.coords] = k + 1
        if nxt.height() > height_cap:
            return OrbitRecord(pts, gcds, "escaping")
    return OrbitRecord(pts, gcds, "budget-exhausted")


# ---------------------------------------------------------------------------
# p-adic gcd ledger
# ---------------------------------------------------------------------------

def padic_gcd_valuations(f: RationalMap, x: ProjPointQ, p, K):
    """[v_p(g_1), ..., v_p(g_K)] along the gcd-reduced orbit of x.

    Works on residues modulo a power p^m of p, on a precision ladder that
    starts at m = 2(R + 1), R = v_p(Res), and doubles m, up to the fixed
    m_K = (R + 1)(K + 2) + 4, whenever a rung runs out of digits
    (`_ledger_rung`).  A step carries at most m digits, and m is doubled
    only when the valuations so far sum to more than m - R - 2, so the last
    rung has m < 2(R + 2 + sum v): each step carries O(v_p(Res) + sum v)
    digits, not the O(K v_p(Res)) of m_K, and the moduli of the rungs
    before the last sum to less than twice its own.  The exact orbit would
    need d^K digits.

    The valuations are exact on every rung, so each equals the one that m_K
    gives.  Let (a_k, b_k) be the exact gcd-reduced orbit.  The track holds
    residues of u_k (a_k, b_k) for a p-adic unit u_k (it divides by p^v
    only, and U, V are homogeneous, so a unit factor leaves every valuation
    alone), and one of u_k a_k, u_k b_k is a unit.  Hence v_p(g_(k+1)) =
    min(v_p U, v_p V) at that pair, and it is at most R because the gcd of
    U and V at a coprime pair divides Res.  If the pair is known mod p^n, so
    are its U and V; a valuation capped at R + 1 of a residue known mod p^n
    is exact once n >= R + 1 (a residue 0 mod p^n has true valuation >= n),
    and a step runs only with n >= R + 2.  Dividing by p^v leaves the
    quotient known mod p^(n - v).  So n = m - sum v before each step, and
    on the last rung n >= m_K - RK = 2R + K + 6 >= R + 2: the last rung
    never runs out, and the ladder ends.
    """
    R = dict(f.res_factors).get(p, 0)
    if R == 0:
        return [0] * K
    last = (R + 1) * (K + 2) + 4
    m = min(2 * (R + 1), last)
    while True:
        vals = _ledger_rung(f, x, p, K, R, m)
        if vals is not None:
            return vals
        m = min(2 * m, last)


def _ledger_rung(f: RationalMap, x: ProjPointQ, p, K, R, m):
    """The ledger of `padic_gcd_valuations` on residues mod p^m, or None
    when fewer than R + 2 digits are left before a step.  U and V are
    evaluated on one pair of power tables, reduced mod p^n as they are
    built, so no product has much more than 2n digits before its reduction."""
    d = f.degree
    cu, cv = f.U.coeffs, f.V.coeffs
    mod = p ** m
    a, b = x.coords
    a %= mod
    b %= mod
    vals = []

    def val_capped(n):
        if n == 0:
            return R + 1
        v = 0
        while n % p == 0 and v <= R:
            n //= p
            v += 1
        return v

    for _ in range(K):
        if m < R + 2:
            return None
        ap, bp = [1], [1]
        for _ in range(d):
            ap.append(ap[-1] * a % mod)
            bp.append(bp[-1] * b % mod)
        A = sum(c * ap[d - i] * bp[i] for i, c in enumerate(cu) if c) % mod
        B = sum(c * ap[d - i] * bp[i] for i, c in enumerate(cv) if c) % mod
        v = min(val_capped(A), val_capped(B))
        if v > R:
            raise RuntimeError("gcd valuation must divide the resultant")
        vals.append(v)
        if v:
            m -= v
            mod = p ** m
            A //= p ** v
            B //= p ** v
        a, b = A % mod, B % mod
    return vals


def orbit_gcds(f: RationalMap, x: ProjPointQ, K):
    """The exact reduction gcds g_1..g_K, assembled from p-adic tracks."""
    vals = {p: padic_gcd_valuations(f, x, p, K) for p in f.bad_primes}
    return [math.prod(p ** vals[p][k] for p in f.bad_primes)
            for k in range(K)]


# ---------------------------------------------------------------------------
# renormalized iterations on fixed-point integer intervals
# ---------------------------------------------------------------------------

LADDER_RUNGS = 8                 # P ladder rungs before a route gives up


class _IntervalBlowup(Exception):
    pass


def _mul(x, y, P):
    ps = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(ps) >> P, -(-max(ps) >> P)


def _shift_down(x, e):
    """x / 2^e, rounded outward."""
    return (x[0] << -e, x[1] << -e) if e <= 0 else (x[0] >> e, -(-x[1] >> e))


def _max_abs(x, y):
    """Enclosure of max(|x|, |y|); _IntervalBlowup when it may contain 0
    (renormalizing would divide by it)."""
    lo = max(x[0], -x[1], y[0], -y[1])
    if lo <= 0:
        raise _IntervalBlowup()
    return lo, max(-x[0], x[1], -y[0], y[1])


def _form(coeffs, mono):
    # c m has its lower end at c m_lo when c > 0 and at c m_hi when c < 0
    return (sum(c * m[c < 0] for c, m in zip(coeffs, mono) if c),
            sum(c * m[c > 0] for c, m in zip(coeffs, mono) if c))


def _renormalized_orbit(f: RationalMap, a, b, K, P):
    """K renormalized steps of (U, V) from the integer pair (a, b).

    (a, b) = 2^e_0 (u_0, v_0) and (U, V)(u_k, v_k) = 2^e_(k+1) (u_(k+1),
    v_(k+1)), each e_k read off the interval so that the new point lies in
    the unit box.  Returns (n, m) with n = sum_k e_k d^(K-k) and m the
    enclosure of max(|u_K|, |v_K|) at scale 2^P.
    """
    d = f.degree
    used = [c or c2 for c, c2 in zip(f.U.coeffs, f.V.coeffs)]
    n = max(abs(a), abs(b)).bit_length()
    u, v = _shift_down((a << P, a << P), n), _shift_down((b << P, b << P), n)
    for _ in range(K):
        pu, pv = [None, u], [None, v]    # powers 1..d, shared by U and V
        for _ in range(d - 1):
            pu.append(_mul(pu[-1], u, P))
            pv.append(_mul(pv[-1], v, P))
        mono = [pu[d]] + [_mul(pu[d - i], pv[i], P) if used[i] else None
                          for i in range(1, d)] + [pv[d]]
        A, B = _form(f.U.coeffs, mono), _form(f.V.coeffs, mono)
        e = _max_abs(A, B)[1].bit_length() - P
        u, v = _shift_down(A, e), _shift_down(B, e)
        n = n * d + e
    return n, _max_abs(u, v)


def _orbit_log_enclosure(f: RationalMap, a, b, K, tol, terms=(), tail=0.0,
                         D=1):
    """(value, error <= tol) from `reported` for the interval

        (n log 2 + sum n_q log q + log max(|u_K|, |v_K|) + [-tail, tail]) / D

    for n, u_K, v_K from `_renormalized_orbit` and integer pairs (n_q, q) in
    `terms`, at the first P of a doubling ladder whose error meets tol;
    None when none of LADDER_RUNGS does, or at once when tail / D > tol.
    P starts at a value that grows with K log2 d: the intervals widen by
    about d per step.
    """
    if Fraction(tail) > Fraction(tol) * D:   # the radius is at least tail/D
        return None
    P = 64 + math.ceil(2 * K * math.log2(f.degree))
    for _ in range(LADDER_RUNGS):
        try:
            n, m = _renormalized_orbit(f, a, b, K, P)
        except _IntervalBlowup:
            P *= 2
            continue
        value, err = reported(*log_bounds(((n, 2), *terms), P + 20, m, P,
                                           tail, D))
        if err <= tol:
            return value, err
        P *= 2
    return None


def escape_rate_exact_pair(f: RationalMap, a, b, tol):
    """(value, error) enclosure of Lambda(a, b) for integer a, b, error <= tol.

    Lambda(u, v) = (1/d)(log t + Lambda(U(u,v)/t, V(u,v)/t)) for any t > 0,
    here t = 2^e; after K steps the compacity tail
    |Lambda(u, v) - log max(|u|, |v|)| <= C closes the sum.
    """
    d = f.degree
    tail_c = f.compacity_tail_constant()
    K = 1
    while (tail_c + 2.0) / (d ** K) > tol / 4 and K < 300:
        K += 1
    found = _orbit_log_enclosure(f, a, b, K, tol, tail=tail_c, D=d ** K)
    if found is None:
        raise ResourceLimitError(LADDER_RUNGS,
                                 "escape-rate certification stalled")
    return found


# ---------------------------------------------------------------------------
# canonical height, global route
# ---------------------------------------------------------------------------

class GlobalHeightResult(NamedTuple):
    value: float
    error: float
    n_used: int
    budget_exhausted: bool = False
    note: str = ""

    __hash__ = None   # a result: compared, never used as a key


def canonical_height_global(f: RationalMap, x: ProjPointQ, tol=1e-8):
    """hhat(x) = d^-n h(f^n x) at the first n with c_max/(d^n (d-1)) <= tol.

    The exact phase is `iterate` up to n, stopped early once a coordinate
    passes EXACT_PHASE_BITS bits; a cycle short-circuits to exactly 0.  From
    the point where it stopped the orbit is continued on fixed-point
    intervals (per-step gcds from p-adic tracks), so the tolerance is still
    met; `budget_exhausted` is set only if even that fails.
    """
    _p1_coords(x)
    d = f.degree
    c_up, c_lo = f.functoriality_constants()
    c_max = max(c_up, c_lo)
    if c_max == 0.0:
        return GlobalHeightResult(x.height(), 0.0, 0,
                                  note="exact multiplicative map")
    n_star = max(0, math.ceil(math.log(c_max / (tol * (d - 1))) / math.log(d)))

    trunc = float_up(Fraction(c_max) / (d ** n_star * (d - 1)))
    # exact phase: the reduced orbit while coordinates stay small
    # (EXACT_PHASE_BITS is read at call time, so it can be patched)
    rec = iterate(f, x, n_max=n_star,
                  height_cap=EXACT_PHASE_BITS * math.log(2))
    k = len(rec.points) - 1
    if rec.status == "cycle":
        return GlobalHeightResult(0.0, 0.0, k, note="preperiodic (cycle)")
    end = rec.points[-1]
    if k == n_star:
        return GlobalHeightResult(end.height() / d ** n_star, trunc, n_star)

    # interval continuation from the exact handoff point: with
    # (a_k, b_k) = T_k (u_k, v_k), log T_k = d log T_(k-1) + e_k log 2
    # - log g_k, and every gcd g_k is a product of bad primes
    a, b = end.coords
    remaining = n_star - k
    # sum_k v_p(g_k) d^(K-k) for the valuations v_p(g_1), ..., v_p(g_K)
    gcd_logs = [(-horner(padic_gcd_valuations(f, end, p, remaining)[::-1], d),
                 p) for p in f.bad_primes]
    found = _orbit_log_enclosure(f, a, b, remaining, tol, gcd_logs,
                                 D=d ** n_star)
    if found is not None:
        value, err = found
        return GlobalHeightResult(
            value, float_up(Fraction(trunc) + Fraction(err)), n_star)
    return GlobalHeightResult(end.height() / d ** k,
                              float_up(Fraction(c_max) / (d ** k * (d - 1))),
                              k, budget_exhausted=True,
                              note="interval continuation stalled")


# ---------------------------------------------------------------------------
# canonical height, local route
# ---------------------------------------------------------------------------

class LocalHeightLedger(NamedTuple):
    finite_places: dict           # prime -> (Fraction coeff of log p, tail)
    archimedean: tuple            # (value, error)
    total: float
    total_error: float

    __hash__ = None   # a result: compared, never used as a key

    def to_json(self):
        fin = {str(p): {"coeff_of_log_p": f"{c.numerator}/{c.denominator}",
                        "value": float(c) * math.log(p),
                        "tail_bound": t}
               for p, (c, t) in self.finite_places.items()}
        return {"finite_places": fin,
                "archimedean": {"value": self.archimedean[0],
                                "error": self.archimedean[1]},
                "total": self.total,
                "total_error": self.total_error}


def canonical_height_local(f: RationalMap, x: ProjPointQ, tol=1e-8):
    """Place-by-place canonical height with certified tails.

    Finite places: lambdahat_p = -sum_k d^-k v_p(g_k) log p, exact partial
    sums, tail v_p(Res) log p d^-K/(d-1).  Archimedean place: certified
    escape rate of the coprime integer representative.  The ledger total is
    hhat(x) within total_error <= tol.
    """
    d = f.degree
    a, b = _p1_coords(x)
    if f.is_unit_power_pair():
        h = x.height()
        return LocalHeightLedger({}, (h, 0.0), h, 0.0)

    fin_budget = tol / 2 / max(len(f.bad_primes), 1)
    finite = {}
    for p, R in f.res_factors:
        K = 1
        while R * math.log(p) / (d ** K * (d - 1)) > fin_budget and K < 400:
            K += 1
        coeff = -Fraction(horner(padic_gcd_valuations(f, x, p, K)[::-1], d),
                          d ** K)
        tail = float_up(R * Fraction(log_up(p)) / (d ** K * (d - 1)))
        finite[p] = (coeff, tail)

    # one directed-rounding enclosure: sum c_p log p, arch value, all errors
    arch_val, arch_err = escape_rate_exact_pair(f, a, b, tol / 2)
    D = math.lcm(*(c.denominator for c, _ in finite.values()))
    prec = 117   # 64 bits beyond a double
    lo, hi = log_bounds([(int(c * D), p) for p, (c, _) in finite.items()],
                        prec, D=D)
    val = Fraction(arch_val)
    err = sum((Fraction(t) for _, t in finite.values()), Fraction(arch_err))
    total, total_error = reported(lo + val - err, hi + val + err)
    if total_error > tol:
        raise ResourceLimitError(tol, "the tolerance is below the float "
                                 "resolution of the canonical height")
    return LocalHeightLedger(finite, (arch_val, arch_err), total, total_error)


# ---------------------------------------------------------------------------
# preperiodic points and commuting maps
# ---------------------------------------------------------------------------

def northcott_bound(f: RationalMap):
    """Height bound c_max (2d-1)/(d-1)^2, rounded up, for rational
    preperiodic points."""
    d = f.degree
    c_up, c_lo = f.functoriality_constants()
    return float_up(Fraction(max(c_up, c_lo)) * (2 * d - 1) / (d - 1) ** 2)


def preperiodic_points_rational(f: RationalMap, cap=PREPERIODIC_ENUM_CAP):
    """All preperiodic points of f in P^1(Q), by Northcott enumeration.

    Enumerates h(x) <= c_max (2d-1)/(d-1)^2 and keeps points whose exact
    orbit cycles below the cap.  Raises ResourceLimitError (reporting the
    bound) when the enumeration would be too large.
    """
    bound = northcott_bound(f)
    hmax = _hmax_from_log_bound(bound)
    n_pts = count_points(1, max(hmax, 1))
    if n_pts > cap:
        raise ResourceLimitError(
            bound, f"Northcott bound h <= {bound:.3f} needs {n_pts} points")
    c_up, _ = f.functoriality_constants()
    height_cap = bound + c_up + 1e-9
    return [x for x in enumerate_points(1, bound)
            if iterate(f, x, n_max=n_pts + 2,
                       height_cap=height_cap).status == "cycle"]


class CommutingReport(NamedTuple):
    max_gap: float
    tol: float
    per_point: list               # (point, h_f, h_g)

    __hash__ = None   # a result: compared, never used as a key


def commuting_height_agreement(f: RationalMap, g: RationalMap, samples=None,
                               tol=1e-6):
    """Max |hhat_f - hhat_g| over sample points, for exactly commuting maps.

    Commutation f o g = g o f is verified by exact form composition before
    any numerics; non-commuting pairs are rejected.
    """
    if not f.compose(g).equals_projectively(g.compose(f)):
        raise InvalidInputError("maps do not commute (exact composition test)")
    if samples is None:
        samples = [ProjPointQ(c) for c in
                   ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1),
                    (1, -2), (2, 3), (3, 2), (1, 3), (3, 1), (2, -3),
                    (5, 2), (2, 5), (1, 4), (4, 3), (3, -4), (5, 7),
                    (7, 3), (4, -5))]
    sub_tol = tol / 4
    rows = []
    gap = 0.0
    for x in samples:
        hf = canonical_height_local(f, x, sub_tol).total
        hg = canonical_height_local(g, x, sub_tol).total
        rows.append((x, hf, hg))
        gap = max(gap, abs(hf - hg))
    return CommutingReport(gap, tol, rows)
