"""Correctness checks that do not call arithdyn.

Each check takes plain values (floats, ints, tuples) taken from arithdyn's
results and compares them with a closed form or with a computation made
here: mpmath root finding at 60 digits, raw high-precision iteration, exact
integer orbits and brute-force counts.  A check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

from bench_inputs import apply_form, form_resultant, normalize_point

ORACLE_DPS = 60
FLOAT_SLACK = 1e-15     # relative rounding of one float conversion


def _fail(cond, msg):
    return [] if cond else [msg]


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def check_height_routes(label, tol, g_value, g_error, l_total, l_error):
    """Both routes certified at tol and agreeing within their errors."""
    out = _fail(g_error <= tol, f"{label}: global error {g_error} > tol {tol}")
    out += _fail(l_error <= tol, f"{label}: local error {l_error} > tol {tol}")
    slack = FLOAT_SLACK * (1 + abs(g_value))
    out += _fail(abs(g_value - l_total) <= g_error + l_error + slack,
                 f"{label}: routes differ by {abs(g_value - l_total)} > "
                 f"{g_error + l_error}")
    return out


def check_functoriality(label, d, h_fx, err_fx, h_x, err_x):
    """hhat(f x) = d hhat(x) within err(f x) + d err(x)."""
    gap = abs(h_fx - d * h_x)
    allowed = err_fx + d * err_x + FLOAT_SLACK * (1 + abs(h_fx))
    return _fail(gap <= allowed,
                 f"{label}: |hhat(fx) - d hhat(x)| = {gap} > {allowed}")


def check_power_exact(label, pt, value, error):
    """hhat = h exactly for unit power maps."""
    a, b = normalize_point(*pt)
    h = math.log(max(abs(a), abs(b)))
    return _fail(value == h and error == 0.0,
                 f"{label}: hhat = {value} (err {error}), expected h = {h}")


def preperiodic_brute_force(U, V, hmax, steps=64, escape=10 ** 12):
    """Points of P^1(Q) with H <= hmax whose exact orbit revisits a point.

    Orbits are followed in coprime integer coordinates; a coordinate above
    `escape` ends the orbit as escaping.  Returns normalized (a, b) pairs.
    """
    found = set()
    for b in range(0, hmax + 1):
        for a in range(-hmax, hmax + 1):
            if math.gcd(a, b) != 1 or (b == 0 and a != 1):
                continue
            pt = normalize_point(a, b)
            seen = {pt}
            x = pt
            for _ in range(steps):
                x = normalize_point(apply_form(U, *x), apply_form(V, *x))
                if x in seen:
                    found.add(pt)
                    break
                if max(abs(x[0]), abs(x[1])) > escape:
                    break
                seen.add(x)
    return found


PREPERIODIC_SEARCH_H = 30


def check_preperiodic(label, U, V, points):
    """The program's set equals an exact brute-force search.

    The search covers H <= 30.  For the maps used here (z^d + c, |c| <= 1)
    every rational preperiodic point has H <= 1, far inside both this
    search and the Northcott bound.
    """
    want = preperiodic_brute_force(U, V, PREPERIODIC_SEARCH_H)
    got = {normalize_point(*p) for p in points}
    return _fail(got == want and len(points) == len(got),
                 f"{label}: preperiodic {sorted(got)} != brute force "
                 f"{sorted(want)}")


def check_commuting(label, max_gap, tol, rows, samples):
    out = _fail(max_gap <= tol, f"{label}: max gap {max_gap} > tol {tol}")
    return out + _fail(rows == samples, f"{label}: {rows} rows for {samples} samples")


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def oracle_roots(coeffs):
    """All complex roots at 60 digits by mpmath.polyroots."""
    with mpmath.workdps(ORACLE_DPS):
        return mpmath.polyroots(list(reversed(coeffs)), maxsteps=400,
                                extraprec=4 * ORACLE_DPS)


def oracle_log_mahler(coeffs, roots):
    with mpmath.workdps(ORACLE_DPS):
        s = mpmath.log(abs(mpmath.mpf(coeffs[-1])))
        for r in roots:
            s += mpmath.log(max(1, abs(r)))
        return float(s)


CLOSED_FORM_KINDS = ("cyclotomic", "binomial")


def expected_log_mahler(kind, coeffs, roots):
    """M(Phi_n) = 1 and M(X^d - 2) = 2; any other input takes mpmath roots."""
    if kind == "cyclotomic":
        return 0.0
    if kind == "binomial":
        return math.log(2)
    return oracle_log_mahler(coeffs, roots)


def root_moduli(kind, coeffs, roots):
    """|z| over the roots: 1 for Phi_n, 2^(1/d) for X^d - 2, else mpmath."""
    d = len(coeffs) - 1
    if kind == "cyclotomic":
        return [1.0] * d
    if kind == "binomial":
        return [2.0 ** (1 / d)] * d
    return [abs(z) for z in roots]


def check_mahler(label, expected, log_measure, error):
    gap = abs(log_measure - expected)
    return _fail(gap <= error + 1e-12,
                 f"{label}: log M = {log_measure}, expected {expected} "
                 f"(gap {gap} > error {error} + 1e-12)")


def check_root_of_unity(label, kind, order_expected, is_rou, order):
    if kind == "cyclotomic":
        return _fail(is_rou and order == order_expected,
                     f"{label}: verdict ({is_rou}, order {order}), expected "
                     f"order {order_expected}")
    return _fail(not is_rou, f"{label}: not cyclotomic, verdict says order {order}")


def check_places(label, places_sum, height, error):
    gap = abs(places_sum - height)
    return _fail(gap <= error + 1e-12,
                 f"{label}: places sum to {places_sum}, height {height}")


def outside_fraction(moduli, r):
    """Share of roots with |z| > r or |z| < 1/r."""
    return sum(1 for m in moduli if m > r or m < 1 / r) / len(moduli)


def check_annulus(label, observed, bound, true_fraction):
    """The certified count is a lower bound, and the lemma holds."""
    out = _fail(observed <= bound, f"{label}: observed {observed} > bound {bound}")
    return out + _fail(observed <= true_fraction,
                       f"{label}: observed {observed} > true share {true_fraction}")


def check_vanishes(label, coeffs, roots_a, roots_b, exps):
    """coeffs (low degree first) vanish at every a^i b^j over the conjugates."""
    ea, eb = exps
    worst = 0.0
    with mpmath.workdps(ORACLE_DPS):
        for a in roots_a:
            for b in roots_b:
                w = a ** ea * b ** eb
                val = mpmath.polyval(list(reversed(coeffs)), w)
                scale = sum(abs(c) * abs(w) ** k for k, c in enumerate(coeffs))
                worst = max(worst, float(abs(val) / scale))
    return _fail(worst <= 1e-30,
                 f"{label}: pushforward polynomial residual {worst} at a "
                 f"product of conjugates")


def check_subadditivity(label, holds, h_alpha, h_beta, h_product,
                        want_alpha, want_beta):
    out = _fail(holds is True and h_product <= h_alpha + h_beta + 1e-9,
                f"{label}: h(ab) = {h_product} vs {h_alpha} + {h_beta}")
    out += _fail(abs(h_alpha - want_alpha) <= 1e-9,
                 f"{label}: h(alpha) = {h_alpha}, expected {want_alpha}")
    return out + _fail(abs(h_beta - want_beta) <= 1e-9,
                       f"{label}: h(beta) = {h_beta}, expected {want_beta}")


# ---------------------------------------------------------------------------
# fekete
# ---------------------------------------------------------------------------

def oracle_escape(U, V, z, steps=40):
    """Lambda(z, 1) by raw iteration at 60 digits, without renormalization."""
    d = len(U) - 1
    with mpmath.workdps(ORACLE_DPS):
        X, Y = mpmath.mpc(z), mpmath.mpc(1)
        for _ in range(steps):
            X, Y = apply_form(U, X, Y), apply_form(V, X, Y)
        return float(mpmath.log(max(abs(X), abs(Y))) / mpmath.mpf(d) ** steps)


def oracle_delta(U, V, config):
    """Fekete value of a configuration, rescored with oracle escape rates."""
    z = [complex(c) for c in config]
    n = len(z)
    s = sum(2 * math.log(abs(z[i] - z[j]))
            for i in range(n) for j in range(i + 1, n))
    s -= 2 * (n - 1) * sum(oracle_escape(U, V, w) for w in z)
    return math.exp(s / (n * (n - 1)))


def capacity(U, V):
    d = len(U) - 1
    return abs(form_resultant(U, V)) ** (-1.0 / (d * (d - 1)))


def check_power_delta(label, n, delta):
    want = n ** (1 / (n - 1))
    return _fail(abs(delta - want) <= 1e-6,
                 f"{label}: delta_{n} = {delta}, expected {want}")


def check_fekete_config(label, U, V, delta, config):
    """delta_n >= cap, and the configuration is worth what is reported."""
    cap = capacity(U, V)
    out = _fail(delta >= cap - 1e-12, f"{label}: delta {delta} < cap {cap}")
    scored = oracle_delta(U, V, config)
    return out + _fail(abs(scored - delta) <= 1e-6,
                       f"{label}: oracle rescored {scored}, reported {delta}")


def check_nonincreasing(label, deltas):
    """deltas: {n: delta_n}; nonincreasing in n within 1e-3."""
    ns = sorted(deltas)
    bad = [(a, b) for a, b in zip(ns, ns[1:]) if deltas[b] > deltas[a] + 1e-3]
    return _fail(not bad, f"{label}: delta increases at {bad}: {deltas}")


def float_escape(U, V, z, steps=60):
    """Lambda(z, 1) over an array of z, in floats, renormalizing each step."""
    d = len(U) - 1
    X = np.asarray(z, dtype=complex)
    Y = np.ones(len(X), dtype=complex)
    m = np.maximum(np.abs(X), 1.0)
    acc, X, Y = np.log(m), X / m, Y / m
    w = 1.0
    for _ in range(steps):
        X, Y = apply_form(U, X, Y), apply_form(V, X, Y)
        m = np.maximum(np.abs(X), np.abs(Y))
        w /= d
        acc += w * np.log(m)
        X, Y = X / m, Y / m
    return acc


# A point of each map's Julia set whose backward tree feeds the reference:
# the repelling fixed point (1 + i sqrt 3)/2 of z^2 + 1, and 1 on the real
# line, which is the Julia set of z - 1/z.
JULIA_ROOTS = {((1, 0, 1), (0, 0, 1)): (1 + 1j * math.sqrt(3)) / 2,
               ((1, 0, -1), (0, 1, 0)): 1 + 0j}


def leja_reference(U, V, n, depth=12):
    """A feasible delta_n of a quadratic map found here.

    The 2^depth preimages of a Julia point (they lie on the Julia set) are
    the pool; n of them are chosen by weighted greedy Leja selection, each
    new point maximizing sum_j log|z - z_j| - Lambda(z) over the chosen z_j,
    and the choice is rescored by the oracle.  Every configuration is a
    lower bound on the true delta_n.
    """
    pts = np.array([JULIA_ROOTS[(tuple(U), tuple(V))]])
    for _ in range(depth):
        # preimages of w: roots of U(z, 1) - w V(z, 1) = a z^2 + b z + c
        a, b, c = (np.asarray(u - pts * v) for u, v in zip(U, V))
        r = np.sqrt(b * b - 4 * a * c)
        pts = np.concatenate([(-b + r) / (2 * a), (-b - r) / (2 * a)])
    lam = float_escape(U, V, pts)
    sel = [int(np.argmax(np.abs(pts)))]
    acc = np.zeros(len(pts))
    while len(sel) < n:
        with np.errstate(divide="ignore"):
            acc += np.log(np.abs(pts - pts[sel[-1]])) - lam
        acc[sel] = -np.inf
        sel.append(int(np.argmax(acc)))
    return oracle_delta(U, V, list(pts[sel]))


def check_reaches_reference(label, delta, reference):
    return _fail(delta >= reference - 1e-3,
                 f"{label}: delta {delta} below the Leja reference {reference}")


def escape_time_bounded(U, V, z, steps=200, radius=2.0):
    """True if the orbit of z stays in |z| <= radius for `steps` steps."""
    w = complex(z)
    for _ in range(steps):
        den = apply_form(V, w, 1)
        if den == 0:
            return False
        w = apply_form(U, w, 1) / den
        if abs(w) > radius:
            return False
    return True


def check_membership(label, U, V, points, verdicts, margin):
    """No bounded orbit is 'outside'; every clear escape is 'outside'."""
    out = []
    for z, verdict in zip(points, verdicts):
        if verdict == "outside" and escape_time_bounded(U, V, z):
            out.append(f"{label}: {z} stays in |z| <= 2 but is 'outside'")
        elif verdict != "outside" and oracle_escape(U, V, z, 60) > 2 * margin:
            out.append(f"{label}: {z} escapes at rate "
                       f"{oracle_escape(U, V, z, 60)} but is {verdict!r}")
    return out


def check_unity_pairing(label, n, value):
    want = -math.log(n) / (n - 1)
    return _fail(abs(value - want) <= 1e-9,
                 f"{label}: {value} on {n}-th roots, expected {want}")


def check_discrepancy(label, lhs, rhs, gap, height):
    out = _fail(gap <= 1e-9 and abs(lhs - rhs) <= 1e-9,
                f"{label}: height {lhs} vs half discrepancy sum {rhs}")
    return out + _fail(abs(lhs - height) <= 1e-9,
                       f"{label}: height {lhs}, expected {height}")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def parse_payload(stdout):
    """Last stdout line as strict JSON (NaN and Infinity are refused)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")

    def refuse(token):
        raise ValueError(f"non-JSON number {token}")

    return json.loads(lines[-1], parse_constant=refuse)


def check_schema(label, payload, schema):
    import jsonschema
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return [f"{label}: payload breaks its schema: {exc.message}"]
    return []


def count_points_brute(hmax):
    """Points of P^1(Q) with H <= hmax, by gcd summation."""
    coprime = sum(1 for a in range(1, hmax + 1) for b in range(1, hmax + 1)
                  if math.gcd(a, b) == 1)
    return 2 * coprime + 2  # a/b and -a/b for coprime a, b >= 1, plus 0 and inf


def schanuel_ratio_brute(hmax):
    return count_points_brute(hmax) * (math.pi ** 2 / 6) / (2 * hmax ** 2)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def cli_expectations(cloud):
    """Expected values of the README examples, keyed by command label."""
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    lehmer_log_m = oracle_log_mahler(lehmer, oracle_roots(lehmer))
    z = np.array(cloud)
    diff = np.abs(z[:, None] - z[None, :])
    n = len(z)
    lam = np.log(np.maximum(np.abs(z), 1.0))
    mask = ~np.eye(n, dtype=bool)
    energy = float((-np.sum(np.log(diff[mask])) + 2 * (n - 1) * np.sum(lam))
                   / (n * (n - 1)))
    h_cbrt2 = math.log(2) / 3
    return {
        "canheight": lambda p: (p["global"]["error"] <= 1e-8
                                and p["local"]["total_error"] <= 1e-8
                                and p["gap"] <= p["global"]["error"]
                                + p["local"]["total_error"]),
        "preperiodic": lambda p: sorted(p["points"]) == sorted(
            f"[{a}:{b}]" for a, b in preperiodic_brute_force(
                (1, 0, 0), (0, 0, 1), PREPERIODIC_SEARCH_H)),
        "mahler": lambda p: abs(p["log_measure"] - lehmer_log_m)
        <= p["error_bound"] + 1e-12,
        "height": lambda p: p["h"] == math.log(7) and p["H"] == 7,
        "enumerate": lambda p: p["count"] == count_points_brute(
            int(math.floor(math.exp(2.3)))),
        "schanuel": lambda p: _close(p["ratio"], schanuel_ratio_brute(1000)),
        "algheight": lambda p: abs(p["height"] - h_cbrt2) <= p["error_bound"] + 1e-12,
        "rou": lambda p: p["is_root_of_unity"] is True and p["order"] == 12,
        "goodred": lambda p: p["resultant"] == "4" and p["bad_primes"] == [2],
        "julia-sample": lambda p: sum(p["counts"].values()) == 41 * 41
        and p["counts"].get("outside", 0) > 0,
        "tdiam": lambda p: abs(p["delta_n"] - 10 ** (1 / 9)) <= 1e-6,
        "discrepancy": lambda p: _close(p["lhs_height"], math.log(2) / 2)
        and p["gap"] <= 1e-9,
        "baker": lambda p: _close(p["statistic"], -math.log(64) / 63),
        "bilu": lambda p: _close(p["moments"]["1"], 1 / 100),
        "energy": lambda p: _close(p["energy"], energy),
        "annulus": lambda p: p["observed_outside_mass"] == 0.0
        and _close(p["bound"], 2 * h_cbrt2 / math.log(1.5)),
        "torus-height": lambda p: _close(p["height"], math.log(4)),
        "torus-push": lambda p: p["rational"] == "2/3"
        and _close(p["height"], math.log(3)),
        "torus-subadd": lambda p: p["holds"] is True
        and _close(p["h_product"], math.log(6)),
    }


def check_cli_success(label, code, stdout, schema, expect):
    if code != 0:
        return [f"{label}: exit {code}"]
    try:
        payload = parse_payload(stdout)
    except ValueError as exc:
        return [f"{label}: stdout is not one JSON payload ({exc})"]
    out = check_schema(label, payload, schema)
    if not out and not expect(payload):
        out.append(f"{label}: values differ from the closed form: {payload}")
    return out


def rejection_outcome(code, stdout, stderr, error_schema):
    """(rejected properly, how it ended) for a malformed input."""
    try:
        payload = parse_payload(stdout)
    except ValueError:
        payload = None
    if code in (1, 2) and payload is not None \
            and not check_schema("error", payload, error_schema):
        return True, f"exit {code} with a JSON error object"
    tail = stderr.strip().splitlines()[-1:] or [""]
    if "Traceback" in stderr:
        return False, f"exit {code} with a traceback ({tail[0]})"
    return False, f"exit {code}, stdout {stdout.strip()[:80]!r}"
