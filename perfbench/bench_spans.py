"""Span and counter recording around calls into arithdyn, from outside.

`install` replaces each function named in TARGETS by a wrapper, in every
arithdyn namespace that holds it (a module that imported the function by
name holds its own reference).  A wrapper records a span (name, module,
start, end, parent) while the recorder is on and passes straight through
while it is off.  No arithdyn source is changed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module that defines it, attribute); methods are "Class.method"
TARGETS = {
    "polyforms": ("resultant", "nullstellensatz_cofactors",
                  "certified_roots_mp", "complex_roots"),
    "numutil": ("factorize",),
    "projective": ("enumerate_points", "count_points"),
    "algebraic": ("mahler_measure", "local_height_breakdown",
                  "is_root_of_unity", "height_algebraic"),
    "dynamics": ("canonical_height_global", "canonical_height_local",
                 "escape_rate_exact_pair", "orbit_gcds", "padic_gcd_valuations",
                 "iterate", "preperiodic_points_rational",
                 "commuting_height_agreement"),
    "green": ("EscapeRateField.escape_vec", "filled_julia_membership",
              "transfinite_diameter", "transfinite_diameter_sweep",
              "baker_mean_pairing", "discrete_energy", "annulus_mass_bound",
              "height_discrepancy_check"),
    "torus": ("monomial_pushforward", "subadditivity_check"),
    "cli": ("main",),
}
MODULES = ("polyforms", "numutil", "projective", "algebraic", "dynamics",
           "green", "torus", "cli", "scipy")


class Recorder:
    """Spans and counters of one process; on only between `start` and `stop`."""

    def __init__(self):
        self.on = False
        self.first_call = {}
        self.reset()

    def reset(self):
        self.spans = []            # [name, module, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.distinct = defaultdict(set)

    def wrap(self, name, module, fn, observe=None):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = [name, module, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                rec.stack.pop()
            rec.first_call.setdefault(name, span[3] - span[2])
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self):
        """{name: (calls, seconds, self seconds)} and {module: self seconds}."""
        child = [0.0] * len(self.spans)
        for name, module, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_name = defaultdict(lambda: [0, 0.0, 0.0])
        per_module = defaultdict(float)
        for (name, module, t0, t1, _), c in zip(self.spans, child):
            row = per_name[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - c
            per_module[module] += t1 - t0 - c
        return per_name, per_module


# counters recorded at the wrapped call sites -------------------------------

def _roots(rec, args, kwargs, result):
    coeffs = args[0]
    rec.counts["polyforms.certified_roots_mp.degree_sum"] += len(coeffs) - 1
    rec.distinct["polyforms.certified_roots_mp"].add(tuple(coeffs))


def _escape_points(rec, args, kwargs, result):
    rec.counts["green.escape_vec.points"] += len(result)


def _height_err(attr):
    def observe(rec, args, kwargs, result):
        tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-8)
        rec.samples["dynamics.err_to_tol"].append(getattr(result, attr) / tol)
    return observe


def _mahler_err(rec, args, kwargs, result):
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-12)
    rec.samples["algebraic.err_to_tol"].append(result.error_bound / tol)


OBSERVERS = {
    "polyforms.certified_roots_mp": _roots,
    "green.escape_vec": _escape_points,
    "dynamics.canonical_height_global": _height_err("error"),
    "dynamics.canonical_height_local": _height_err("total_error"),
    "algebraic.mahler_measure": _mahler_err,
}


def _minimize_wrapper(rec, minimize):
    """scipy's minimize as green imported it; counts evaluations and gains.

    A polish run gains when its final objective is below the objective at
    its start, which L-BFGS-B evaluates first.
    """
    def tracked(fun, x0, args=(), **kwargs):
        first = []

        def f(x, *a):
            val = fun(x, *a)
            if not first:
                first.append(val[0] if isinstance(val, tuple) else val)
            return val

        res = minimize(f, x0, args=args, **kwargs)
        if rec.on:
            rec.counts["green.minimize.nfev"] += res.nfev
            rec.counts["green.minimize.gains"] += bool(
                first and res.fun < first[0] - 1e-12 * abs(first[0]))
        return res

    return rec.wrap("green.minimize", "scipy", tracked)


def install(rec):
    """Wrap every target in every arithdyn namespace that refers to it."""
    import arithdyn
    import arithdyn.cli  # noqa: F401  (imports every library module)
    mods = {name: sys.modules[f"arithdyn.{name}"] for name in TARGETS}
    spaces = [arithdyn] + list(mods.values())
    for module, attrs in TARGETS.items():
        for attr in attrs:
            owner, _, meth = attr.rpartition(".")
            name = f"{module}.{meth}"
            if owner:
                cls = getattr(mods[module], owner)
                fn = cls.__dict__[meth]
                setattr(cls, meth, rec.wrap(name, module, fn, OBSERVERS.get(name)))
                continue
            fn = getattr(mods[module], attr)
            wrapped = rec.wrap(name, module, fn, OBSERVERS.get(name))
            for space in spaces:
                if getattr(space, attr, None) is fn:
                    setattr(space, attr, wrapped)
    green = mods["green"]
    green.minimize = _minimize_wrapper(rec, green.minimize)
