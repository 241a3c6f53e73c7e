"""Toeplitz operators with distributional symbols on the Bergman space.

Builds finite matrix truncations of operators whose symbols are two-sided
derivatives of measures on the unit disk, evaluates Berezin transforms by
independent routes, and computes traces three ways (diagonal sums, the
invariant-measure integral of the transform, and closed-form pairings)
so the routes can check each other.
"""

from .berezin import (
    BerezinSample,
    InvariantIntegralResult,
    berezin_matrix,
    berezin_series,
    invariant_integral,
    weighted_berezin_radial,
)
from .bergman import basis_deriv_coeff, d_alpha_beta_eval, kernel_deriv_eval
from .errors import (
    BoundaryError,
    NotTraceClassError,
    NumericalFailureError,
    UnsupportedSymbolError,
)
from .measures import (
    BaseMeasure,
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    FinitenessReport,
    PointMass,
    RadialPower,
    SymbolSpec,
    carleson_integral,
    moment,
)
from .operators import TruncatedOperator, adjoint_symbol, assemble, entry
from .spectral import (
    DecayFit,
    SpectrumReport,
    TraceReport,
    carleson_bound_estimate,
    decay_fit,
    ensure_trace_class,
    hermitian_eigenvalues,
    jacobi_svd,
    singular_values,
    trace_berezin,
    trace_closed_form,
    trace_matrix,
    trace_report,
)
from .verify import OracleCase, run_examples

__version__ = "0.1.0"

__all__ = [
    "BaseMeasure",
    "BerezinSample",
    "BoundaryError",
    "CircleRadialDerivative",
    "CircleUniform",
    "Combination",
    "DecayFit",
    "FinitenessReport",
    "InvariantIntegralResult",
    "NotTraceClassError",
    "NumericalFailureError",
    "OracleCase",
    "PointMass",
    "RadialPower",
    "SpectrumReport",
    "SymbolSpec",
    "TraceReport",
    "TruncatedOperator",
    "UnsupportedSymbolError",
    "adjoint_symbol",
    "assemble",
    "basis_deriv_coeff",
    "berezin_matrix",
    "berezin_series",
    "carleson_bound_estimate",
    "carleson_integral",
    "d_alpha_beta_eval",
    "decay_fit",
    "ensure_trace_class",
    "entry",
    "hermitian_eigenvalues",
    "invariant_integral",
    "jacobi_svd",
    "kernel_deriv_eval",
    "moment",
    "run_examples",
    "singular_values",
    "trace_berezin",
    "trace_closed_form",
    "trace_matrix",
    "trace_report",
    "weighted_berezin_radial",
]
