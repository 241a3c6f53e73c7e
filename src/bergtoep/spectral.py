"""Traces by three independent routes, singular values by one-sided Jacobi,
exponential decay fits, and the Carleson bound probe.

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

from .bergman import d_alpha_beta_eval, d_alpha_beta_terms
from .berezin import _berezin_values, invariant_integral
from .errors import NotTraceClassError, NumericalFailureError, UnsupportedSymbolError
from .measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
    BaseMeasure,
    boundary_weight_integral,
    is_nonnegative,
    is_radial,
)
from .numutil import beta_integral, falling_factorial, int_factorial
from .operators import TruncatedOperator, assemble

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
    """Descending singular values of a truncation with numerical rank."""

    svals: np.ndarray
    numerical_rank: int
    fit: DecayFit | None = None


def ensure_trace_class(symbol: SymbolSpec) -> None:
    """Check the boundary-weight integrability gate for the trace theorems.

    The exponent pairs the full derivative order: the measure must
    integrate (1 - |w|^2)^(-(alpha + beta) - 2).  Compactly supported
    variants (point masses, circles) always pass; a divergent radial power
    raises with the failing endpoint exponent.
    """
    weight_order = symbol.alpha + symbol.beta + 2

    def check(base: BaseMeasure) -> None:
        if isinstance(base, CircleRadialDerivative):
            return
        if isinstance(base, Combination):
            for c, b in base.terms:
                if c != 0:
                    check(b)
            return
        report = boundary_weight_integral(base, weight_order)
        if not report.finite:
            raise NotTraceClassError(
                "boundary-weight integral diverges: endpoint exponent "
                f"{report.divergence_exponent}",
                divergence_exponent=report.divergence_exponent,
            )

    check(symbol.base)


def trace_closed_form(symbol: SymbolSpec, tol: float = 1e-10) -> complex:
    """Trace as the pairing of the symbol with (1 - |w|^2)^(-2).

    Equals (-1)^(alpha+beta) times the derivative kernel D(alpha, beta)
    integrated against the base measure; radial bases kill every
    off-diagonal angular term, leaving finite Beta-integral sums.
    """
    ensure_trace_class(symbol)
    return _closed_form_value(symbol, tol)


def _closed_form_value(symbol: SymbolSpec, tol: float) -> complex:
    alpha, beta, base = symbol.alpha, symbol.beta, symbol.base
    sign = -1.0 if (alpha + beta) % 2 else 1.0

    if isinstance(base, Combination):
        return sum(
            (c * _closed_form_value(SymbolSpec(alpha, beta, b), tol) for c, b in base.terms),
            0.0 + 0.0j,
        )
    if isinstance(base, CircleRadialDerivative):
        r0 = base.r0
        return complex(-4.0 * r0 / (1.0 - r0 * r0) ** 3)
    if isinstance(base, PointMass):
        return sign * d_alpha_beta_eval(base.z0, alpha, beta, tol)
    if alpha != beta:
        # rotation invariance: every surviving kernel term carries a
        # nonzero angular frequency, so the pairing vanishes identically
        return 0.0 + 0.0j
    if isinstance(base, RadialPower):
        total = 0.0
        for coef, p_conj, _p, m in d_alpha_beta_terms(alpha, beta):
            total += coef * beta_integral(p_conj + base.a + 1.0, base.s - m + 1.0)
        return complex(sign * total)
    if isinstance(base, CircleUniform):
        t0 = base.r0**2
        total = 0.0
        for coef, p_conj, _p, m in d_alpha_beta_terms(alpha, beta):
            total += coef * t0**p_conj * (1.0 - t0) ** (-m)
        return complex(sign * total)
    raise UnsupportedSymbolError(f"no closed trace form for {type(base).__name__}")


def _geometric_diag_tail(term0: float, ratio_at, start: int) -> float:
    """Bound sum of |d_n| for n >= start when the term ratios decrease.

    Walks past the pre-asymptotic head where the ratio still exceeds 1;
    once below 1 the decreasing ratio itself is a valid geometric bound.
    """
    term = term0
    n = start
    tail = 0.0
    for _ in range(500_000):
        rho = ratio_at(n)
        if rho < 1.0:
            return tail + term / (1.0 - rho)
        tail += term
        term *= rho
        n += 1
    return math.inf


def trace_matrix(symbol: SymbolSpec, dim: int) -> tuple[complex, float]:
    """Partial diagonal sum of the matrix realization, with a tail estimate.

    The tail is geometric for compactly supported bases and a power-law
    integral bound for radial power weights (where the diagonal decays
    like n^(2 alpha - s)); it is +inf when the diagonal series diverges.
    """
    if dim < 1:
        raise ValueError("truncation dimension must be positive")
    alpha, beta, base = symbol.alpha, symbol.beta, symbol.base

    if isinstance(base, Combination):
        total = 0.0 + 0.0j
        tail = 0.0
        for c, b in base.terms:
            v, e = trace_matrix(SymbolSpec(alpha, beta, b), dim)
            total += c * v
            tail += abs(c) * e
        return total, tail

    if isinstance(base, CircleRadialDerivative):
        n = np.arange(dim)
        diag = -(n + 1.0) * 2.0 * n * base.r0 ** np.maximum(2 * n - 1, 0)
        value = complex(math.fsum(diag))
        y = base.r0**2

        def ratio_at(n_: int) -> float:
            return (n_ + 1.0) / n_ * (n_ + 2.0) / (n_ + 1.0) * y

        first = 2.0 * dim * (dim + 1.0) * base.r0 ** (2 * dim - 1)
        return value, _geometric_diag_tail(first, ratio_at, max(dim, 1))

    if isinstance(base, PointMass):
        j0 = max(alpha, beta)
        sign = -1.0 if (alpha + beta) % 2 else 1.0
        z0 = base.z0
        x = (z0 * z0.conjugate()).real
        terms = []
        for n in range(j0, dim):
            terms.append(
                math.sqrt(n + 1.0)
                * falling_factorial(n, alpha)
                * math.sqrt(n + 1.0)
                * falling_factorial(n, beta)
                * z0 ** (n - alpha)
                * z0.conjugate() ** (n - beta)
            )
        value = sign * complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

        def ratio_at(n_: int) -> float:
            return (
                (n_ + 2.0)
                / (n_ + 1.0)
                * ((n_ + 1.0) / (n_ + 1.0 - alpha))
                * ((n_ + 1.0) / (n_ + 1.0 - beta))
                * x
            )

        n = max(dim, j0)
        first = (
            (n + 1.0)
            * falling_factorial(n, alpha)
            * falling_factorial(n, beta)
            * x ** (n - (alpha + beta) / 2.0)
        )
        return value, _geometric_diag_tail(first, ratio_at, n)

    if alpha != beta:
        # radial measure: the single band misses the diagonal entirely
        return 0.0 + 0.0j, 0.0

    if isinstance(base, CircleUniform):
        y = base.r0**2
        terms = [
            (n + 1.0) * falling_factorial(n, alpha) ** 2 * y ** (n - alpha)
            for n in range(alpha, dim)
        ]
        value = complex(math.fsum(terms))

        def ratio_at(n_: int) -> float:
            return (n_ + 2.0) / (n_ + 1.0) * ((n_ + 1.0) / (n_ + 1.0 - alpha)) ** 2 * y

        n = max(dim, alpha)
        first = (n + 1.0) * falling_factorial(n, alpha) ** 2 * y ** (n - alpha)
        return value, _geometric_diag_tail(first, ratio_at, n)

    # radial power weight, alpha = beta
    s, a = base.s, base.a
    d0 = (alpha + 1.0) * int_factorial(alpha) ** 2 * beta_integral(a + 1.0, s + 1.0)

    def ratios(n_arr: np.ndarray) -> np.ndarray:
        return (
            (n_arr + 2.0)
            / (n_arr + 1.0)
            * ((n_arr + 1.0) / (n_arr + 1.0 - alpha)) ** 2
            * (n_arr - alpha + a + 1.0)
            / (n_arr - alpha + a + s + 2.0)
        )

    def diag_values(n_lo: int, n_hi: int, lead: float) -> np.ndarray:
        n_arr = np.arange(n_lo, n_hi, dtype=float)
        if n_arr.size == 0:
            return np.zeros(0)
        r = ratios(n_arr)
        return lead * np.concatenate(([1.0], np.cumprod(r[:-1])))

    d_head = diag_values(alpha, dim, d0)
    value = complex(math.fsum(d_head))
    if s - 2 * alpha - 1 <= 0.0:
        return value, math.inf
    # the diagonal starts at n = alpha; a truncation below that misses it all
    tail_start = max(dim, alpha)
    d_start = float(d_head[-1] * ratios(np.array([dim - 1.0]))[0]) if dim > alpha else d0
    m_far = max(8 * dim, 200_000)
    d_tail = diag_values(tail_start, m_far, d_start)
    head = float(math.fsum(d_tail))
    # power-law remainder beyond the summed stretch, doubled for safety
    c_loc = -math.log(d_tail[-1] / d_tail[-2]) / math.log(m_far / (m_far - 1.0))
    remainder = d_tail[-1] * m_far / (c_loc - 1.0) if c_loc > 1.0 else math.inf
    return value, head + 2.0 * remainder


def _sampler_error_budget(base: BaseMeasure, alpha: int, beta: int, point_tol: float) -> float:
    """Bound on how much the transform evaluations' own tolerance can move
    the invariant integral.  The transform carries a (1-|z|^2)^2 factor that
    cancels the invariant weight, so a pointwise sum tolerance integrates to
    at most the derivative-order factorials times it."""
    if isinstance(base, Combination):
        return sum(
            abs(c) * _sampler_error_budget(b, alpha, beta, point_tol) for c, b in base.terms
        )
    if isinstance(base, CircleRadialDerivative):
        return 2.0 / base.r0 * point_tol
    return int_factorial(alpha + 1) * int_factorial(beta + 1) * point_tol


def trace_berezin(symbol: SymbolSpec, tol: float = 1e-8) -> tuple[complex, float]:
    """Trace as the invariant-measure integral of the Berezin transform."""
    ensure_trace_class(symbol)
    radial = is_radial(symbol.base) and symbol.alpha == symbol.beta

    def sampler(z: np.ndarray) -> np.ndarray:
        return _berezin_values(symbol, z, tol / 10.0)[0]

    result = invariant_integral(sampler, radial_hint=radial, tol=tol)
    budget = _sampler_error_budget(symbol.base, symbol.alpha, symbol.beta, tol / 10.0)
    return result.value, result.est_error + budget


def trace_report(
    symbol: SymbolSpec,
    dim: int = 256,
    tol: float = 1e-8,
    reference_value: complex | None = None,
) -> TraceReport:
    """Run all three trace routes and check pairwise agreement.

    Agreement thresholds are absolute: closed-form vs matrix at 1e-8 plus
    the matrix tail, and any pair involving the quadrature route at 1e-5
    plus the reported error estimates.
    """
    closed = trace_closed_form(symbol, tol=min(tol, 1e-10))
    matrix_value, matrix_tail = trace_matrix(symbol, dim)
    berezin_value, berezin_err = trace_berezin(symbol, tol=tol)
    ok = (
        abs(closed - matrix_value) <= MATRIX_CLOSED_TOL + matrix_tail
        and abs(closed - berezin_value) <= BEREZIN_TOL + berezin_err
        and abs(matrix_value - berezin_value) <= BEREZIN_TOL + matrix_tail + berezin_err
    )
    ratio = None
    if reference_value is not None and reference_value != 0:
        ratio = float((closed / reference_value).real)
    return TraceReport(
        route_matrix=matrix_value,
        matrix_tail=matrix_tail,
        route_berezin=berezin_value,
        berezin_error=berezin_err,
        route_closed_form=closed,
        agree=bool(ok),
        reference_value=reference_value,
        reference_ratio=ratio,
    )


def jacobi_svd(
    matrix: np.ndarray,
    sweep_tol: float = JACOBI_SWEEP_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a square complex matrix: A = U diag(s) V^H.

    Column pairs are rotated (with a phase factor absorbing the complex
    inner product) until the relative off-diagonal mass of the implicit
    Gram matrix drops below ``sweep_tol``.  Deterministic: fixed cyclic
    pair order, no parallel reduction.
    """
    A = np.array(matrix, dtype=complex, order="F", copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("jacobi_svd expects a square matrix")
    n = A.shape[0]
    V = np.eye(n, dtype=complex, order="F")
    rel = 0.0
    converged = False
    for _sweep in range(max_sweeps):
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
                vj = V[:, j] * phase.conjugate()
                V[:, i], V[:, j] = c * V[:, i] - s * vj, s * V[:, i] + c * vj
                colsq[i] = max(a_sq * c * c + b_sq * s * s - 2.0 * c * s * ga, 0.0)
                colsq[j] = max(a_sq * s * s + b_sq * c * c + 2.0 * c * s * ga, 0.0)
        denom = math.sqrt(float(np.sum(colsq**2)))
        rel = math.sqrt(off2) / denom if denom > 0.0 else 0.0
        if rel < sweep_tol:
            converged = True
            break
    if not converged:
        raise NumericalFailureError(
            f"Jacobi sweeps exhausted ({max_sweeps}); off-diagonal mass {rel:.3e}",
            achieved=rel,
        )
    svals = np.sqrt(np.einsum("ij,ij->j", A.conj(), A).real)
    order = np.argsort(-svals, kind="stable")
    svals = svals[order]
    A = A[:, order]
    V = V[:, order]
    U = np.zeros_like(A)
    cutoff = svals[0] * n * np.finfo(float).eps if svals[0] > 0.0 else 0.0
    for k in range(n):
        if svals[k] > cutoff:
            U[:, k] = A[:, k] / svals[k]
    return U, svals, V


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix via the same Jacobi
    machinery: shift by a Gershgorin bound to reach positive semidefinite,
    take singular values, shift back."""
    H = np.asarray(matrix, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    herm_defect = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if herm_defect > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian")
    shift = float(np.max(np.sum(np.abs(H), axis=1))) if H.size else 0.0
    _, svals, _ = jacobi_svd(H + shift * np.eye(H.shape[0]))
    return svals - shift


def singular_values(op: TruncatedOperator | np.ndarray, rank_tol: float = 1e-12) -> SpectrumReport:
    """Full singular value set of a truncation, descending, with the count
    of values above rank_tol times the largest."""
    matrix = op.entries if isinstance(op, TruncatedOperator) else np.asarray(op)
    if matrix.shape[0] > 4096:
        raise ValueError("singular value decomposition capped at dimension 4096")
    _, svals, _ = jacobi_svd(matrix)
    if svals.size and svals[0] > 0.0:
        rank = int(np.sum(svals > rank_tol * svals[0]))
    else:
        rank = 0
    return SpectrumReport(svals=svals, numerical_rank=rank, fit=None)


def decay_fit(report: SpectrumReport, window: tuple[int, int]) -> DecayFit:
    """Ordinary least squares of ln s_n against n over indices n0..n1.

    Residual is the RMS of the fit errors in ln-space.
    """
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
    if not is_nonnegative(base):
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
