"""Traces by three independent routes, singular values, exponential decay
fits, and the Carleson bound probe.

A truncation with a single factor (an atom, or a one-term combination) has
its singular values read exactly from that factor: the sorted moduli of a
band, or one norm product and zeros for a rank-one pair.  Every other input
goes through the one-sided Jacobi of ``jacobi_svd``.

Route independence is the point: the matrix route sums the truncated
diagonal, the Berezin route integrates the transform against the invariant
measure, and the closed-form route pairs the derivative kernel with the
base measure.  Agreement within the combined error estimates is the
theorem-level check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .berezin import _berezin_values, invariant_integral
from .errors import NotTraceClassError, NumericalFailureError, UnsupportedSymbolError
from .measures import BaseMeasure, SymbolSpec, boundary_weight_integral
from .numutil import check_integer, check_tol
from .operators import MAX_DIMENSION, TruncatedOperator, assemble

__all__ = [
    "TraceReport",
    "SpectrumReport",
    "DecayFit",
    "ensure_trace_class",
    "trace_closed_form",
    "trace_matrix",
    "trace_berezin",
    "trace_report",
    "jacobi_svd",
    "hermitian_eigenvalues",
    "singular_values",
    "decay_fit",
    "carleson_bound_estimate",
]

JACOBI_SWEEP_TOL = 1e-13
JACOBI_MAX_SWEEPS = 30

# default absolute agreement tolerances between routes
MATRIX_CLOSED_TOL = 1e-8
BEREZIN_TOL = 1e-5


@dataclass(frozen=True)
class TraceReport:
    """Trace values from the three routes with their error budgets."""

    route_matrix: complex
    matrix_tail: float
    route_berezin: complex
    berezin_error: float
    route_closed_form: complex | None
    closed_error: float
    agree: bool
    reference_value: complex | None = None
    reference_ratio: float | None = None


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of ln s_n = ln C - sigma n over an index window."""

    C: float
    sigma: float
    window: tuple[int, int]
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """Descending singular values of a truncation with numerical rank, and
    the route that gave them: ``"factor"`` (exact, from a single factor) or
    ``"jacobi"``."""

    svals: np.ndarray
    numerical_rank: int
    route: str


def ensure_trace_class(symbol: SymbolSpec) -> None:
    """Check the boundary-weight integrability gate for the trace theorems.

    The exponent pairs the full derivative order: the measure must
    integrate (1 - |w|^2)^(-(alpha + beta) - 2).  Compactly supported
    variants (point masses, circles) always pass; a divergent radial power
    raises with the failing endpoint exponent.
    """
    report = boundary_weight_integral(symbol.base, symbol.alpha + symbol.beta + 2)
    if not report.finite:
        raise NotTraceClassError(
            "boundary-weight integral diverges: endpoint exponent "
            f"{report.divergence_exponent}",
            divergence_exponent=report.divergence_exponent,
        )


def trace_closed_form(symbol: SymbolSpec) -> tuple[complex, float]:
    """(value, bound): (-1)^(alpha+beta) times the derivative kernel
    D(alpha, beta) paired with the base measure, which is the whole
    diagonal, the matrix route's tail from n = 0 times one unit factor:
    a finite sum of positive pairings, with a derived rounding bound."""
    ensure_trace_class(symbol)
    return symbol.base.closed_trace(symbol.alpha, symbol.beta)


def trace_matrix(symbol: SymbolSpec, dim: int) -> tuple[complex, float]:
    """Diagonal sum of the truncation, read from its factors, with a bound
    on the rest of the diagonal.

    The tail is the sum of |entries[n, n]| over n >= dim in closed form:
    the pairing the closed-form route makes, restricted to those entries,
    padded by its own rounding and never below the exact tail.  It is
    +inf only for a divergent radial power (s <= 2 alpha + 1) or on
    overflow.  ``assemble`` checks the dimension, so the 4096 cap holds
    here too.
    """
    value = sum(c * factor.trace() for c, factor in assemble(symbol, dim).factors)
    return complex(value), symbol.base.diagonal_tail(symbol.alpha, symbol.beta, dim)


def trace_berezin(symbol: SymbolSpec) -> tuple[complex, float]:
    """Trace as the invariant-measure integral of the Berezin transform.

    The trace is linear in the symbol, so the integral is taken term by
    term: the sum of c times the integral of each nonzero term's transform,
    errors weighted by |c|, each on the circle rule the term states
    (``circle_rules``), which is exact for it: one node per circle for a
    radial term at alpha = beta, and at the decay min(1, e + 1), e the
    gate's exponent of the term's ``boundary_weight(alpha + beta + 2)``: its
    transform vanishes like (1 - t)^(2 + min(e, 0)), with a logarithm at
    e = 0.  The sampler returns the transform's values with their error
    bars (``_berezin_values``), which the integral carries into its
    quadrature error, so the reported error is the sum of the terms'
    integral errors and nothing else.
    """
    ensure_trace_class(symbol)
    alpha, beta = symbol.alpha, symbol.beta
    values, error = [], 0.0
    for c, atom, centre, degree in symbol.base.circle_rules(alpha, beta):
        term = SymbolSpec(alpha, beta, atom)
        decay = min(1.0, atom.boundary_weight(alpha + beta + 2)[1] + 1.0)
        result = invariant_integral(lambda z, term=term: _berezin_values(term, z), (centre, degree), decay)
        values.append(c * result.value)
        error += abs(c) * result.est_error
    # from the first term, not from 0j, which would drop the sign of a zero
    value = sum(values[1:], values[0]) if values else 0j
    return value, error


def trace_report(
    symbol: SymbolSpec,
    dim: int = 256,
    tol: float = 1e-8,
    reference_value: complex | None = None,
) -> TraceReport:
    """Run all three trace routes and check pairwise agreement.

    Agreement thresholds are absolute: closed-form vs matrix at 1e-8 plus
    the matrix tail and twice the closed route's bound, one for each
    value's rounding; any pair involving the quadrature route at 1e-5 plus
    the reported error estimates.  ``tol`` is checked to be finite and
    positive and changes no number: no route reads a tolerance.
    """
    check_tol(tol)
    closed, closed_error = trace_closed_form(symbol)
    matrix_value, matrix_tail = trace_matrix(symbol, dim)
    berezin_trace, berezin_err = trace_berezin(symbol)
    ok = (
        abs(closed - matrix_value) <= MATRIX_CLOSED_TOL + matrix_tail + 2.0 * closed_error
        and abs(closed - berezin_trace) <= BEREZIN_TOL + berezin_err
        and abs(matrix_value - berezin_trace) <= BEREZIN_TOL + matrix_tail + berezin_err
    )
    ratio = None
    if reference_value is not None and reference_value != 0:
        ratio = float((closed / reference_value).real)
    return TraceReport(
        route_matrix=matrix_value,
        matrix_tail=matrix_tail,
        route_berezin=berezin_trace,
        berezin_error=berezin_err,
        route_closed_form=closed,
        closed_error=closed_error,
        agree=bool(ok),
        reference_value=reference_value,
        reference_ratio=ratio,
    )


def jacobi_svd(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values of a square complex matrix by one-sided
    Jacobi.

    Column pairs are rotated (with a phase factor absorbing the complex
    inner product) until the relative off-diagonal mass of the implicit
    Gram matrix drops below ``JACOBI_SWEEP_TOL``; the singular values are
    the norms of the rotated columns, so no singular vectors are built.
    Deterministic: fixed cyclic pair order, no parallel reduction.
    """
    A = np.array(matrix, dtype=complex, order="F", copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("jacobi_svd expects a square matrix")
    n = A.shape[0]
    rel = 0.0
    for _sweep in range(JACOBI_MAX_SWEEPS):
        colsq = np.einsum("ij,ij->j", A.conj(), A).real
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                g = complex(np.vdot(A[:, i], A[:, j]))
                ga = abs(g)
                off2 += ga * ga
                a_sq, b_sq = colsq[i], colsq[j]
                if ga == 0.0 or ga <= 1e-15 * math.sqrt(max(a_sq * b_sq, 0.0)):
                    continue
                phase = g / ga
                tau = (b_sq - a_sq) / (2.0 * ga)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                aj = A[:, j] * phase.conjugate()
                A[:, i], A[:, j] = c * A[:, i] - s * aj, s * A[:, i] + c * aj
                colsq[i] = max(a_sq * c * c + b_sq * s * s - 2.0 * c * s * ga, 0.0)
                colsq[j] = max(a_sq * s * s + b_sq * c * c + 2.0 * c * s * ga, 0.0)
        denom = math.sqrt(float(np.sum(colsq**2)))
        rel = math.sqrt(off2) / denom if denom > 0.0 else 0.0
        if rel < JACOBI_SWEEP_TOL:
            svals = np.sqrt(np.einsum("ij,ij->j", A.conj(), A).real)
            return svals[np.argsort(-svals, kind="stable")]
    raise NumericalFailureError(
        f"Jacobi sweeps exhausted ({JACOBI_MAX_SWEEPS}); off-diagonal mass {rel:.3e}",
        achieved=rel,
    )


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (LAPACK, via
    ``numpy.linalg.eigvalsh``)."""
    H = np.asarray(matrix, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    herm_defect = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if herm_defect > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(H)[::-1]


def singular_values(op: TruncatedOperator | np.ndarray, rank_tol: float = 1e-12) -> SpectrumReport:
    """Full singular value set of a truncation, descending, with the count
    of values above rank_tol times the largest, 0 <= rank_tol < 1.

    A truncation whose ``factors`` hold one (c, factor) pair gives
    |c| times the factor's exact ``svals()``, with no dense matrix and no
    sweep; its zeros are exact, so the rank of a rank-one truncation is 1
    even at rank_tol = 0.  A truncation with several factors, or a bare
    array, is densified and goes through ``jacobi_svd``.
    """
    if not 0.0 <= rank_tol < 1.0:  # NaN fails every comparison
        raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol}")
    if isinstance(op, TruncatedOperator) and len(op.factors) == 1:
        ((c, factor),) = op.factors
        svals, route = abs(c) * factor.svals(), "factor"
    else:
        matrix = op.entries if isinstance(op, TruncatedOperator) else np.asarray(op)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("singular values need a square matrix")
        if matrix.shape[0] > MAX_DIMENSION:
            raise ValueError(f"singular value decomposition capped at dimension {MAX_DIMENSION}")
        svals, route = jacobi_svd(matrix), "jacobi"
    if svals.size and svals[0] > 0.0:
        rank = int(np.sum(svals > rank_tol * svals[0]))
    else:
        rank = 0
    return SpectrumReport(svals=svals, numerical_rank=rank, route=route)


def decay_fit(report: SpectrumReport, window: tuple[int, int]) -> DecayFit:
    """Ordinary least squares of ln s_n against n over indices n0..n1.

    Residual is the RMS of the fit errors in ln-space.
    """
    check_integer("fit window index", *window)
    n0, n1 = int(window[0]), int(window[1])
    if not n1 > n0 + 4:
        raise ValueError(f"fit window must span more than 4 indices, got ({n0}, {n1})")
    if n0 < 0 or n1 >= report.svals.size:
        raise ValueError(f"fit window ({n0}, {n1}) outside spectrum of size {report.svals.size}")
    block = report.svals[n0 : n1 + 1]
    if np.any(block <= 1e-300):
        raise ValueError("window error: zero or underflowed singular values in fit window")
    idx = np.arange(n0, n1 + 1, dtype=float)
    y = np.log(block)
    slope, intercept = np.polyfit(idx, y, 1)
    residual = float(np.sqrt(np.mean((intercept + slope * idx - y) ** 2)))
    return DecayFit(C=float(np.exp(intercept)), sigma=float(-slope), window=(n0, n1), residual=residual)


def carleson_bound_estimate(
    base: BaseMeasure, k: int, dims: list[int]
) -> list[tuple[int, float]]:
    """Best embedding constant over growing polynomial subspaces.

    For each dimension, the largest eigenvalue of the order-(k, k)
    truncation; saturation of the nondecreasing sequence indicates a
    k-Carleson bound, unbounded growth refutes one.
    """
    if not base.nonnegative:
        raise UnsupportedSymbolError("the bound probe needs a nonnegative measure")
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if not dims or any(d < 1 for d in dims) or any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be a strictly increasing list of positive integers")
    out = []
    for dim in dims:
        op = assemble(SymbolSpec(k, k, base), dim)
        top = float(hermitian_eigenvalues(op.entries)[0])
        out.append((dim, top))
    return out
