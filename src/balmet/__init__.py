"""balmet: balanced-metric iterations on projective space.

Implements the three maps T, T_nu, T_K on diagonal Hermitian metrics over
the projective line (and T_nu on torus-invariant metrics over CP^2, CP^3),
their fixed-point dynamics toward balanced metrics, convergence-rate laws,
and the conjectured distance envelope, together with a certified
Gauss-Legendre quadrature engine and a CLI that regenerates the benchmark
tables.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, MetricError, QuadratureError
from .metrics import (
    BalancedFamily,
    DiagonalMetric,
    MultiIndexMetric,
    as_metric,
    balanced_coeffs,
    distance,
    is_palindromic,
    predict_balanced_direction_k2,
    reverse,
    scale,
    trace_relation,
)
from .quadrature import gauss_legendre_unit, integrate_semi_infinite
from .cp1 import (
    DensityProfile,
    OperatorKind,
    apply_T,
    apply_TK,
    apply_Tnu,
    apply_operator,
    density_profile,
)
from .cpn import (
    MonomialBasis,
    SymmetryClassification,
    apply_Tnu_cpn,
    build_basis,
    classify_symmetry,
    metric_from_class_values,
    multinomial_coeffs,
    full_symmetry_orbits,
    permutation_action,
    permutation_orbits,
    sigma_predict_cpn,
)
from .dynamics import (
    NormalizationMode,
    Trajectory,
    build_trajectory,
    contraction_witness,
    coordinate_sigma_series,
    find_balanced,
    iterate,
    sigma_closed_form,
    sigma_law,
    sigma_probe,
)
from .tables import TABLE_IDS, generate_table, golden_table, reproduce

__all__ = [
    "__version__",
    "ConvergenceError", "MetricError", "QuadratureError",
    "BalancedFamily", "DiagonalMetric", "MultiIndexMetric", "as_metric",
    "balanced_coeffs",
    "distance", "is_palindromic", "predict_balanced_direction_k2", "reverse",
    "scale", "trace_relation",
    "gauss_legendre_unit", "integrate_semi_infinite",
    "DensityProfile", "OperatorKind", "apply_T", "apply_TK", "apply_Tnu",
    "apply_operator", "density_profile",
    "MonomialBasis", "SymmetryClassification",
    "apply_Tnu_cpn", "build_basis", "classify_symmetry",
    "metric_from_class_values", "multinomial_coeffs", "full_symmetry_orbits",
    "permutation_action", "permutation_orbits", "sigma_predict_cpn",
    "NormalizationMode", "Trajectory", "build_trajectory",
    "contraction_witness", "coordinate_sigma_series", "find_balanced",
    "iterate", "sigma_closed_form", "sigma_law", "sigma_probe",
    "TABLE_IDS", "generate_table", "golden_table", "reproduce",
]
