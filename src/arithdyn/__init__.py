"""Heights, canonical heights, Green functions and equidistribution
statistics for arithmetic dynamical systems on the projective line."""

__version__ = "0.1.0"

from .algebraic import (AlgebraicNumber, MahlerResult, cyclotomic_number,
                        height_algebraic, is_root_of_unity, lehmer_bounds,
                        local_height_breakdown, mahler_measure)
from .dynamics import (LocalHeightLedger, OrbitRecord, RationalMap,
                       canonical_height_global, canonical_height_local,
                       commuting_height_agreement, good_reduction_at,
                       iterate, northcott_bound, preperiodic_points_rational)
from .errors import (DegenerateMapError, InconsistentResultError,
                     IndeterminacyError, InvalidInputError, RepeatedRootError,
                     ResourceLimitError, UnsupportedScopeError)
from .green import (EmpiricalMeasure, EscapeRateField, annulus_mass_bound,
                    baker_fit_constant, baker_mean_pairing, bilu_moment_test,
                    discrepancy, discrete_energy, escape_rate,
                    filled_julia_membership, g_pairing,
                    height_discrepancy_check, transfinite_diameter,
                    transfinite_diameter_sweep)
from .polyforms import (BinaryForm, CertifiedRoot, IntPoly, PadicValuation,
                        complex_roots, cyclotomic, discriminant,
                        nullstellensatz_cofactors, resultant, vp)
from .projective import (HomForm, HomMorphism, ProjPointQ, apply_morphism,
                         count_points, enumerate_points,
                         functoriality_constants, height, linear_projection,
                         schanuel_ratio, segre, veronese)
from .torus import (TorusPoint, monomial_pushforward, subadditivity_check,
                    torus_height)
