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
pieces are shared: forms are evaluated by `BinaryForm.__call__` (on exact
integers and on mpmath intervals alike), exact orbits come from `iterate`,
and both interval computations are certified by one doubling iv.prec
ladder, `_iv_ladder`, the only code that sets mpmath's interval precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mpm

from .errors import (DegenerateMapError, InvalidInputError,
                     ResourceLimitError)
from .numutil import factorize
from .polyforms import (MP_PRECISION_LOCK, BinaryForm, kept_on_instance,
                        nullstellensatz_cofactors, resultant)
from .projective import (ProjPointQ, _hmax_from_log_bound, count_points,
                         enumerate_points)

EXACT_PHASE_BITS = 4096          # switch from exact ints to intervals
DIGIT_BUDGET = 10 ** 6           # decimal digits per coordinate, hard stop
PREPERIODIC_ENUM_CAP = 500_000   # points under the Northcott bound


@dataclass(frozen=True)
class RationalMap:
    """Endomorphism of P^1 given by coprime integer forms of degree d >= 2.

    The factorization of Res(U, V), the Nullstellensatz cofactors and the
    constants derived from them are computed once and kept on the instance
    (not fields, so equality, hashing and repr ignore them).
    """

    U: BinaryForm
    V: BinaryForm
    res: int = field(init=False)
    bad_primes: tuple = field(init=False)

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
        fact = tuple(sorted(factorize(r).items()))
        object.__setattr__(self, "res_factors", fact)  # ((p, v_p(Res)), ...)
        object.__setattr__(self, "bad_primes", tuple(p for p, _ in fact))

    @property
    def degree(self):
        return self.U.degree

    def apply(self, x: ProjPointQ):
        a, b = x.coords
        return ProjPointQ((self.U(a, b), self.V(a, b)))

    def is_unit_power_pair(self):
        """True for [±X^d : ±Y^d] and the coordinate-swapped variant."""

        def unit_monomial_index(form):
            nz = [(i, c) for i, c in enumerate(form.coeffs) if c != 0]
            if len(nz) == 1 and abs(nz[0][1]) == 1 and nz[0][0] in (0, form.degree):
                return nz[0][0]
            return None

        iu, iv = unit_monomial_index(self.U), unit_monomial_index(self.V)
        return iu is not None and iv is not None and {iu, iv} == {0, self.degree}

    @kept_on_instance
    def cofactors(self):
        return nullstellensatz_cofactors(self.U, self.V)

    @kept_on_instance
    def max_cofactor_coeff(self):
        ax, bx, ay, by, _ = self.cofactors()
        return max(max(abs(c) for c in g.coeffs) for g in (ax, bx, ay, by))

    @kept_on_instance
    def functoriality_constants(self):
        """(c_upper, c_lower) for d h(x) - c_lower <= h(f x) <= d h(x) + c_upper.

        Unit power pairs are exact (both constants zero).  Otherwise c_upper
        is the coefficient-sum bound and c_lower = log(2 d max|cofactor|):
        the cofactor identity gives |Res| max^(2d-1) <= 2d max|cof| max^(d-1)
        max(|U|,|V|), and the gcd of (U, V) at a coprime point divides Res,
        which re-absorbs the log|Res| term.
        """
        if self.is_unit_power_pair():
            return 0.0, 0.0
        c_up = math.log(max(sum(abs(c) for c in self.U.coeffs),
                            sum(abs(c) for c in self.V.coeffs)))
        c_lo = math.log(2 * self.degree * self.max_cofactor_coeff())
        return c_up, c_lo

    @kept_on_instance
    def compacity_tail_constant(self):
        """C with |Lambda(x,y) - log max(|x|,|y|)| <= C on C^2 minus 0.

        From c_lo^-1 max^d <= max(|U|,|V|) <= c_up max^d one gets
        C = max(log c_up, log c_lo)/(d-1); exactly zero for unit power pairs.
        """
        if self.is_unit_power_pair():
            return 0.0
        c_up = max(sum(abs(c) for c in self.U.coeffs),
                   sum(abs(c) for c in self.V.coeffs))
        c_lo = Fraction(2 * self.degree * self.max_cofactor_coeff(),
                        abs(self.res))
        step = max(math.log(c_up), math.log(max(c_lo, 1)))
        return step / (self.degree - 1)

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

@dataclass
class OrbitRecord:
    points: list
    gcds: list                    # g_k with U(x_{k-1}) = g_k a_k etc.
    status: str                   # "cycle" | "escaping" | "budget-exhausted"
    cycle_entry: int | None = None
    cycle_length: int | None = None


def iterate(f: RationalMap, x: ProjPointQ, n_max=1000, height_cap=60.0,
            digit_budget=DIGIT_BUDGET):
    """gcd-reduced exact orbit with cycle detection.

    Stops at the first revisited point, when log-height exceeds height_cap
    (escaping; a start above the cap takes no step), or at n_max / the
    digit budget (budget-exhausted).
    """
    pts = [x]
    gcds = []
    if x.height() > height_cap:
        return OrbitRecord(pts, gcds, "escaping")
    seen = {x.coords: 0}
    bit_cap = int(digit_budget * math.log2(10))
    for k in range(n_max):
        a, b = pts[-1].coords
        A, B = f.U(a, b), f.V(a, b)
        g = math.gcd(abs(A), abs(B))
        A //= g
        B //= g
        nxt = ProjPointQ((A, B))
        gcds.append(g)
        pts.append(nxt)
        if nxt.coords in seen:
            return OrbitRecord(pts, gcds, "cycle",
                               cycle_entry=seen[nxt.coords],
                               cycle_length=k + 1 - seen[nxt.coords])
        seen[nxt.coords] = k + 1
        if nxt.height() > height_cap:
            return OrbitRecord(pts, gcds, "escaping")
        if max(abs(A), abs(B)).bit_length() > bit_cap:
            return OrbitRecord(pts, gcds, "budget-exhausted")
    return OrbitRecord(pts, gcds, "budget-exhausted")


# ---------------------------------------------------------------------------
# p-adic gcd ledger
# ---------------------------------------------------------------------------

def padic_gcd_valuations(f: RationalMap, x: ProjPointQ, p, K):
    """[v_p(g_1), ..., v_p(g_K)] along the gcd-reduced orbit of x.

    Works modulo a power of p only: each v_p(g) is at most v_p(Res), so the
    whole ledger costs O(K v_p(Res)) digits instead of the d^K digits of the
    exact orbit.
    """
    R = 0
    r = abs(f.res)
    while r % p == 0:
        r //= p
        R += 1
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
    out = []
    for k in range(K):
        g = 1
        for p in f.bad_primes:
            g *= p ** vals[p][k]
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# interval renormalized iterations
# ---------------------------------------------------------------------------

class _IntervalBlowup(Exception):
    pass


def _iv_max_abs(a, b):
    """max(|a|, |b|) from the interval endpoints themselves, so the
    enclosure holds at any global mp precision; _IntervalBlowup when it
    may contain 0 (the renormalization would divide by it)."""
    aa, bb = abs(a), abs(b)
    m = mpm.iv.mpf([max(aa.a, bb.a), max(aa.b, bb.b)])
    if not m.a > 0:
        raise _IntervalBlowup()
    return m


def _iv_mid(x):
    # a float, not an mpf: it enters interval arithmetic exactly, where an
    # mpf would be rounded to the caller's global mp precision
    return float(x.mid.a)


def _escape_rate_interval(f: RationalMap, a, b, K):
    """Interval enclosure of Lambda(a, b) after K renormalized steps.

    Uses Lambda(u, v) = (1/d)(log t + Lambda(U(u,v)/t, V(u,v)/t)) with exact
    rescales t, and closes with the compacity tail
    |Lambda(u,v) - log max(|u|,|v|)| <= C.
    """
    d = f.degree
    tail_c = f.compacity_tail_constant()
    s = max(abs(a), abs(b))
    total = mpm.iv.log(mpm.iv.mpf(s))
    u = mpm.iv.mpf(a) / s
    v = mpm.iv.mpf(b) / s
    scale = mpm.iv.mpf(1)
    dd = mpm.iv.mpf(d)
    for _ in range(K):
        A, B = f.U(u, v), f.V(u, v)
        m = _iv_max_abs(A, B)
        scale = scale / dd
        t = _iv_mid(m)
        total += scale * mpm.iv.log(mpm.iv.mpf(t))
        u = A / t
        v = B / t
    m = _iv_max_abs(u, v)
    tail = mpm.iv.log(m) + mpm.iv.mpf([-tail_c, tail_c])
    return total + scale * tail


def _iv_ladder(box_at, tol, prec, rungs, scale=1):
    """(midpoint/scale, radius/scale) of the interval `box_at()` at the
    first iv.prec of prec, 2 prec, 4 prec, ... (`rungs` of them) whose
    scaled radius is at most tol; None when none is.  A rung whose interval
    blows up counts as failed.  Holds MP_PRECISION_LOCK and restores the
    caller's iv.prec.
    """
    with MP_PRECISION_LOCK:
        old = mpm.iv.prec
        try:
            for _ in range(rungs):
                mpm.iv.prec = prec
                try:
                    box = box_at()
                    err = float(box.delta.b) / 2 / scale
                    if err <= tol:
                        return _iv_mid(box) / scale, err
                except _IntervalBlowup:
                    pass
                prec *= 2
        finally:
            mpm.iv.prec = old
    return None


def escape_rate_exact_pair(f: RationalMap, a, b, tol):
    """(value, error) enclosure of Lambda(a, b) for integer a, b, error <= tol."""
    d = f.degree
    tail_c = f.compacity_tail_constant()
    K = 1
    while (tail_c + 2.0) / (d ** K) > tol / 4 and K < 300:
        K += 1
    found = _iv_ladder(lambda: _escape_rate_interval(f, a, b, K), tol,
                       prec=80, rungs=10)
    if found is None:
        raise ResourceLimitError(80 * 2 ** 10,
                                 "escape-rate certification stalled")
    return found


def _reduced_orbit_log_height_interval(f: RationalMap, a, b, steps, gcds):
    """Enclosure of h(x_n) = log max coords of the reduced orbit endpoint.

    (a, b) is an exact coprime start, `gcds` the exact reduction gcds for
    the `steps` steps ahead (from p-adic tracking).  Tracks log-magnitude as
    an interval so coordinates never materialize.
    """
    d = f.degree
    s = max(abs(a), abs(b))
    S = mpm.iv.log(mpm.iv.mpf(s))
    u = mpm.iv.mpf(a) / s
    v = mpm.iv.mpf(b) / s
    for k in range(steps):
        A, B = f.U(u, v), f.V(u, v)
        m = _iv_max_abs(A, B)
        t = _iv_mid(m)
        S = d * S + mpm.iv.log(mpm.iv.mpf(t)) - mpm.iv.log(mpm.iv.mpf(gcds[k]))
        u = A / t
        v = B / t
    m = _iv_max_abs(u, v)
    return S + mpm.iv.log(m)


# ---------------------------------------------------------------------------
# canonical height, global route
# ---------------------------------------------------------------------------

@dataclass
class GlobalHeightResult:
    value: float
    error: float
    n_used: int
    budget_exhausted: bool = False
    note: str = ""


def canonical_height_global(f: RationalMap, x: ProjPointQ, tol=1e-8,
                            digit_budget=DIGIT_BUDGET):
    """hhat(x) = d^-n h(f^n x) at the first n with c_max/(d^n (d-1)) <= tol.

    The exact phase is `iterate` up to n, stopped early once a coordinate
    passes EXACT_PHASE_BITS bits (or the digit budget); a cycle
    short-circuits to exactly 0.  From the point where it stopped the orbit
    is continued with certified interval logs (per-step gcds from p-adic
    tracks), so the tolerance is still met; `budget_exhausted` is set only
    if even that fails.
    """
    d = f.degree
    c_up, c_lo = f.functoriality_constants()
    c_max = max(c_up, c_lo)
    if c_max == 0.0:
        return GlobalHeightResult(x.height(), 0.0, 0,
                                  note="exact multiplicative map")
    n_star = max(0, math.ceil(math.log(c_max / (tol * (d - 1))) / math.log(d)))

    trunc = c_max / (d ** n_star * (d - 1))
    # exact phase: the reduced orbit while coordinates stay small
    # (EXACT_PHASE_BITS is read at call time, so it can be patched)
    rec = iterate(f, x, n_max=n_star,
                  height_cap=EXACT_PHASE_BITS * math.log(2),
                  digit_budget=digit_budget)
    k = len(rec.points) - 1
    if rec.status == "cycle":
        return GlobalHeightResult(0.0, 0.0, k, note="preperiodic (cycle)")
    end = rec.points[-1]
    if k == n_star:
        return GlobalHeightResult(end.height() / d ** n_star, trunc, n_star)

    # interval continuation from the exact handoff point
    a, b = end.coords
    remaining = n_star - k
    gcds = orbit_gcds(f, end, remaining)
    found = _iv_ladder(
        lambda: _reduced_orbit_log_height_interval(f, a, b, remaining, gcds),
        tol, prec=120 + 2 * remaining, rungs=8, scale=d ** n_star)
    if found is not None:
        value, err = found
        return GlobalHeightResult(value, trunc + err, n_star)
    return GlobalHeightResult(end.height() / d ** k,
                              c_max / (d ** k * (d - 1)), k,
                              budget_exhausted=True,
                              note="interval continuation stalled")


# ---------------------------------------------------------------------------
# canonical height, local route
# ---------------------------------------------------------------------------

@dataclass
class LocalHeightLedger:
    finite_places: dict           # prime -> (Fraction coeff of log p, tail)
    archimedean: tuple            # (value, error)
    total: float
    total_error: float

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
    a, b = x.coords
    if f.is_unit_power_pair():
        h = x.height()
        return LocalHeightLedger({}, (h, 0.0), h, 0.0)

    n_fin = len(f.bad_primes)
    fin_budget = tol / 2 / max(n_fin, 1)
    finite = {}
    fin_err = 0.0
    for p, R in f.res_factors:
        target = fin_budget
        K = 1
        while R * math.log(p) / (d ** K * (d - 1)) > target and K < 400:
            K += 1
        vals = padic_gcd_valuations(f, x, p, K)
        coeff = -sum(Fraction(v, d ** (k + 1)) for k, v in enumerate(vals))
        tail = R * math.log(p) / (d ** K * (d - 1))
        finite[p] = (coeff, tail)
        fin_err += tail

    arch_val, arch_err = escape_rate_exact_pair(f, a, b, tol / 2)
    total = arch_val + sum(float(c) * math.log(p)
                           for p, (c, _) in finite.items())
    return LocalHeightLedger(finite, (arch_val, arch_err), total,
                             arch_err + fin_err)


# ---------------------------------------------------------------------------
# preperiodic points and commuting maps
# ---------------------------------------------------------------------------

def northcott_bound(f: RationalMap):
    """Height bound c_max (2d-1)/(d-1)^2 for rational preperiodic points."""
    d = f.degree
    c_up, c_lo = f.functoriality_constants()
    return max(c_up, c_lo) * (2 * d - 1) / (d - 1) ** 2


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
    out = []
    for x in enumerate_points(1, bound):
        rec = iterate(f, x, n_max=n_pts + 2, height_cap=height_cap)
        if rec.status == "cycle":
            out.append(x)
    return out


@dataclass
class CommutingReport:
    max_gap: float
    tol: float
    per_point: list               # (point, h_f, h_g)


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
