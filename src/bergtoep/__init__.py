"""Toeplitz operators with distributional symbols on the Bergman space.

Builds finite matrix truncations of operators whose symbols are two-sided
derivatives of measures on the unit disk, evaluates Berezin transforms by
independent routes, and computes traces three ways (diagonal sums, the
invariant-measure integral of the transform, and closed-form pairings)
so the routes can check each other.  The package exports the names of
everyday use; every other function stays importable from its submodule.
"""

from .berezin import berezin_series
from .errors import (
    BoundaryError,
    NotTraceClassError,
    NumericalFailureError,
    UnsupportedSymbolError,
)
from .measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)
from .operators import assemble
from .spectral import carleson_bound_estimate, decay_fit, singular_values, trace_report

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CircleRadialDerivative",
    "CircleUniform",
    "Combination",
    "NotTraceClassError",
    "NumericalFailureError",
    "PointMass",
    "RadialPower",
    "SymbolSpec",
    "UnsupportedSymbolError",
    "assemble",
    "berezin_series",
    "carleson_bound_estimate",
    "decay_fit",
    "singular_values",
    "trace_report",
]
