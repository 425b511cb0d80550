"""Heights, canonical heights, Green functions and equidistribution
statistics for arithmetic dynamical systems on the projective line.

The public names below are exported lazily (PEP 562): `import arithdyn`
loads no submodule, and reading `arithdyn.height` (or `from arithdyn import
height`) imports `arithdyn.projective` then.  So a process that needs one
layer, such as a CLI subcommand, pays for that layer alone.  Submodules are
reachable as attributes too (`arithdyn.green`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebraic": ("AlgebraicNumber", "MahlerResult", "cyclotomic_number",
                  "height_algebraic", "is_root_of_unity", "lehmer_bounds",
                  "local_height_breakdown", "mahler_measure"),
    "dynamics": ("LocalHeightLedger", "OrbitRecord", "RationalMap",
                 "canonical_height_global", "canonical_height_local",
                 "commuting_height_agreement", "good_reduction_at", "iterate",
                 "northcott_bound", "preperiodic_points_rational"),
    "errors": ("DegenerateMapError", "InconsistentResultError",
               "IndeterminacyError", "InvalidInputError", "RepeatedRootError",
               "ResourceLimitError", "UnsupportedScopeError"),
    "green": ("EmpiricalMeasure", "EscapeRateField", "annulus_mass_bound",
              "baker_fit_constant", "baker_mean_pairing", "bilu_moment_test",
              "discrepancy", "discrete_energy", "escape_rate",
              "filled_julia_membership", "g_pairing",
              "height_discrepancy_check", "transfinite_diameter",
              "transfinite_diameter_sweep"),
    "polyforms": ("BinaryForm", "CertifiedRoot", "IntPoly", "PadicValuation",
                  "complex_roots", "cyclotomic", "discriminant",
                  "nullstellensatz_cofactors", "resultant", "vp"),
    "projective": ("HomForm", "HomMorphism", "ProjPointQ", "apply_morphism",
                   "count_points", "enumerate_points",
                   "functoriality_constants", "height", "linear_projection",
                   "schanuel_ratio", "segre", "veronese"),
    "torus": ("TorusPoint", "monomial_pushforward", "subadditivity_check",
              "torus_height"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "numutil", "roots"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value   # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
