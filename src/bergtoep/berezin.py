"""Berezin transforms and the invariant-measure integral.

The transform of a derivative symbol at z reduces, after expanding the
normalized kernel, to

    (-1)^(a+b) (a+1)! (b+1)! conj(z)^a z^b (1-|z|^2)^2 * S(z),
    S(z) = sum over p, q of binom(p+a+1, p) binom(q+b+1, q)
           conj(z)^p z^q M(p, q),

with M the monomial moments of the base measure.  Radial bases collapse S
to a one-dimensional series; point masses have a closed form.  Near the
boundary the radial-power series is traded for an integral representation
through the Gauss hypergeometric function, which stays evaluable where the
series would need billions of terms.  Every route takes arrays of points:
series are summed row by row, each row stopping on its own tail bound.

The invariant integral uses composite Gauss-Legendre panels on a dyadic
mesh graded toward t = |z|^2 = 1, sampling a whole panel per call; the
unresolved boundary sliver is extrapolated and reported, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BoundaryError, NumericalFailureError
from .measures import (
    CircleRadialDerivative,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)
from .numutil import CompensatedSum, beta_integral, gauss_legendre, int_factorial
from .operators import TruncatedOperator

__all__ = [
    "BerezinSample",
    "berezin_series",
    "berezin_matrix",
    "weighted_berezin_radial",
    "invariant_integral",
    "InvariantIntegralResult",
]

BOUNDARY_MARGIN = 1e-6
SERIES_TERM_CAP = 100_000
# beyond this |z|^2 the radial-power series is replaced by the
# hypergeometric integral representation
_SERIES_T_MAX = 0.81


@dataclass(frozen=True)
class BerezinSample:
    """One Berezin-transform evaluation with its route and error estimate."""

    z: complex
    value: complex
    route: str
    est_error: float


def _ratio_series(first, ratio_at: Callable, tol: float, ratio_sup=0.0):
    """Sum positive-ratio series row by row with a term-ratio geometric tail bound.

    ``first`` holds each row's first term and ``ratio_at(p, rows)`` maps the
    index p to term(p+1)/term(p) for the listed rows; ``ratio_sup`` (a
    scalar or one value per row) is the limiting ratio the terms approach.
    The tail is bounded geometrically with the larger of the two, which
    stays valid when the ratio sequence dips below its limit before rising
    back.  Each row stops at the first term where its own bound meets
    ``tol``, so it sums the same terms whatever else shares the batch.
    Returns (sums, tail_bounds).
    """
    term = np.array(first, dtype=float).ravel()
    size = term.size
    sums = np.empty(size)
    tails = np.empty(size)
    rows = np.arange(size)
    sup = np.broadcast_to(np.asarray(ratio_sup, dtype=float), (size,))
    acc = np.zeros(size)
    comp = np.zeros(size)
    p = 0
    while rows.size:
        if p >= SERIES_TERM_CAP:
            raise NumericalFailureError(
                f"series did not converge within {SERIES_TERM_CAP} terms",
                partial=float(acc[0] + comp[0]),
            )
        # Neumaier-compensated running sum, row by row
        total = acc + term
        comp += np.where(np.abs(acc) >= np.abs(term), (acc - total) + term, (term - total) + acc)
        acc = total
        ratio = ratio_at(p, rows)
        rho = np.maximum(ratio, sup)
        below = rho < 1.0
        tail = np.where(below, np.abs(term) * rho / np.where(below, 1.0 - rho, 1.0), np.inf)
        done = tail <= tol
        if done.any():
            sums[rows[done]] = acc[done] + comp[done]
            tails[rows[done]] = tail[done]
            keep = ~done
            rows, term, acc, comp = rows[keep], term[keep], acc[keep], comp[keep]
            ratio, sup = ratio[keep], sup[keep]
        term = term * ratio
        p += 1
    return sums, tails


def _ipow(w: np.ndarray, k: int) -> np.ndarray:
    """w**k for an integer k by repeated multiplication, elementwise."""
    if k < 0:
        return 1.0 / _ipow(w, -k)
    out = np.ones_like(w)
    for _ in range(k):
        out = out * w
    return out


def _weighted_sum(weights: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sum of weights[k] * f[..., k] over k, in index order."""
    acc = weights[0] * f[..., 0]
    for k in range(1, weights.size):
        acc = acc + weights[k] * f[..., k]
    return acc


# dyadic panels of the hypergeometric integral: toward x = 1, then toward 0
_HYP_PANELS_ONE = 51
_HYP_PANELS_ZERO = 47
# radii per hypergeometric batch, which bounds its arrays to ~0.5 MB each
_HYP_BATCH = 24


@lru_cache(maxsize=8)
def _hyp_panel_table(s: float, a: float):
    """Every candidate panel of the hypergeometric integral, 16 + 8 Gauss
    nodes each: x nodes, the weight x^a (1-x)^s there, panel half widths,
    and panel indices j.

    The mesh is dyadic on x in (1/2, 1), graded in u = 1 - x toward the
    kernel singularity, and on x in (0, 1/2), graded toward the weight
    kink at 0; panel j spans 2^-(j+1) .. 2^-j in u or in x.
    """
    x16, _ = gauss_legendre(16)
    x8, _ = gauss_legendre(8)
    nodes = np.concatenate([x16, x8])
    j = np.concatenate([np.arange(1, _HYP_PANELS_ONE + 1), np.arange(1, _HYP_PANELS_ZERO + 1)])
    lo, hi = 2.0 ** -(j + 1.0), 2.0 ** -j.astype(float)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    vv = mid[:, None] + half[:, None] * nodes
    toward_one = (np.arange(j.size) < _HYP_PANELS_ONE)[:, None]
    x = np.where(toward_one, 1.0 - vv, vv)
    u = np.where(toward_one, vv, 1.0 - vv)
    table = (x, x**a * u**s, half, j)
    for array in table:  # shared by every caller through the cache
        array.setflags(write=False)
    return table


def _first_stop(stop: np.ndarray) -> np.ndarray:
    """Per row, the index of the first True, or the last index if none."""
    return np.where(stop.any(axis=1), stop.argmax(axis=1), stop.shape[1] - 1)


def _radial_power_integral(alpha: int, beta: int, s: float, a: float, t: np.ndarray, tol: float):
    """S(t) = integral over x in (0,1) of x^a (1-x)^s 2F1(alpha+2, beta+2; 1; t x) dx.

    All candidate panels of a batch go through one hypergeometric call;
    each row then keeps the panels up to its own stopping panel: toward
    x = 1 the first with 2^-j <= (1-t)/8, |p16| < tol/20 and j >= 2, toward
    x = 0 the first with |p16| < tol/20 and j >= 2.  The 8-point rule gives
    the per-panel error estimate.
    """
    from scipy.special import hyp2f1

    _, w16 = gauss_legendre(16)
    _, w8 = gauss_legendre(8)
    x, weight, half, j = _hyp_panel_table(s, a)
    n_one = _HYP_PANELS_ONE
    total = np.empty(t.size)
    est = np.empty(t.size)
    for lo in range(0, t.size, _HYP_BATCH):
        tb = t[lo : lo + _HYP_BATCH]
        f = weight * hyp2f1(alpha + 2.0, beta + 2.0, 1.0, tb[:, None, None] * x)
        p16 = half * _weighted_sum(w16, f[..., :16])
        p8 = half * _weighted_sum(w8, f[..., 16:])
        small = (np.abs(p16) < tol / 20.0) & (j >= 2)
        stop_one = _first_stop(small[:, :n_one] & (2.0**-j[:n_one] <= (1.0 - tb[:, None]) / 8.0))
        stop_zero = _first_stop(small[:, n_one:])
        col = np.arange(j.size)
        used = (col <= stop_one[:, None]) | ((col >= n_one) & (col - n_one <= stop_zero[:, None]))
        # running sums in panel order, as the panels are visited
        total[lo : lo + _HYP_BATCH] = np.cumsum(np.where(used, p16, 0.0), axis=1)[:, -1]
        est[lo : lo + _HYP_BATCH] = np.cumsum(np.where(used, np.abs(p16 - p8), 0.0), axis=1)[:, -1]
    return total, est


def _radial_power_S(alpha: int, beta: int, s: float, a: float, t, tol: float):
    """Diagonal sum S for a radial power base at each t = |z|^2.

    Power series up to _SERIES_T_MAX; beyond it the Beta moments are
    unfolded back into their defining integral and the p-sum is done in
    closed form (``_radial_power_integral``).  Returns (S, est) arrays.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    S = np.empty(t.size)
    est = np.empty(t.size)
    low = t <= _SERIES_T_MAX
    if low.any():
        t_low = t[low]

        def ratio_at(p: int, rows: np.ndarray) -> np.ndarray:
            return (
                (p + alpha + 2.0)
                * (p + beta + 2.0)
                / ((p + 1.0) * (p + 1.0))
                * t_low[rows]
                * (p + a + 1.0)
                / (p + a + s + 2.0)
            )

        first = np.full(t_low.size, beta_integral(a + 1.0, s + 1.0))
        S[low], est[low] = _ratio_series(first, ratio_at, tol, ratio_sup=t_low)
    if not low.all():
        S[~low], est[~low] = _radial_power_integral(alpha, beta, s, a, t[~low], tol)
    return S, est


def _circle_uniform_S(alpha: int, beta: int, r0: float, t: np.ndarray, tol: float):
    y = t * r0 * r0

    def ratio_at(p: int, rows: np.ndarray) -> np.ndarray:
        return (p + alpha + 2.0) * (p + beta + 2.0) / ((p + 1.0) * (p + 1.0)) * y[rows]

    return _ratio_series(np.ones(t.size), ratio_at, tol)


def _circle_derivative_values(r0: float, t: np.ndarray, tol: float):
    """Transform of the radial circle derivative: minus the radial
    derivative, at r0, of the angular average of |k_z|^2 on radius r."""
    y = t * r0 * r0

    # sum of p (p+1)^2 y^p from p = 1; term ratio ((p+1)/p) ((p+2)/(p+1))^2 y
    def ratio_at(p_index: int, rows: np.ndarray) -> np.ndarray:
        p = p_index + 1
        return (p + 1.0) / p * ((p + 2.0) / (p + 1.0)) ** 2 * y[rows]

    series, tail = _ratio_series(4.0 * y, ratio_at, tol)
    scale = (1.0 - t) ** 2 * 2.0 / r0
    return -scale * series, scale * tail


def _berezin_values(symbol: SymbolSpec, z, tol: float):
    """Analytic-route transform at every point of the array ``z``, unfenced;
    returns (values, est_errors) shaped like ``z``."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    t = (flat * flat.conjugate()).real
    if np.any(t >= 1.0):
        raise BoundaryError("Berezin transform is defined inside the disk")
    value, err = _berezin_flat(symbol.alpha, symbol.beta, symbol.base, flat, t, tol)
    return value.reshape(z.shape), err.reshape(z.shape)


def _berezin_flat(alpha: int, beta: int, base, z: np.ndarray, t: np.ndarray, tol: float):
    """Transform at the points of the 1-d array ``z``, with t = |z|^2.

    Point masses use their closed form elementwise.  Radial atoms evaluate
    the diagonal sum S once per distinct t and broadcast it, times
    conj(z)^alpha z^beta, over the points sharing that t.
    """
    if isinstance(base, Combination):
        value = np.zeros(z.size, dtype=complex)
        err = np.zeros(z.size)
        for c, b in base.terms:
            v, e = _berezin_flat(alpha, beta, b, z, t, tol)
            value += c * v
            err += abs(c) * e
        return value, err

    if isinstance(base, CircleRadialDerivative):
        return _circle_derivative_values(base.r0, t, tol)

    sign = -1.0 if (alpha + beta) % 2 else 1.0
    fa = int_factorial(alpha + 1)
    fb = int_factorial(beta + 1)
    # conj(z)^alpha z^beta as t^min(alpha, beta) times the leftover power,
    # so that equal orders give exactly real prefactors
    leftover = z.conjugate() if alpha > beta else z
    monomial = _ipow(t, min(alpha, beta)) * _ipow(leftover, abs(alpha - beta))
    prefactor = sign * fa * fb * monomial * (1.0 - t) ** 2
    if isinstance(base, PointMass):
        z0 = base.z0
        value = (
            prefactor
            * _ipow(1.0 - z.conjugate() * z0, -(2 + alpha))
            * _ipow(1.0 - z * z0.conjugate(), -(2 + beta))
        )
        return value, 1e-14 * np.abs(value)

    t_distinct, where = np.unique(t, return_inverse=True)
    if isinstance(base, RadialPower):
        S, est = _radial_power_S(alpha, beta, base.s, base.a, t_distinct, tol)
    else:
        S, est = _circle_uniform_S(alpha, beta, base.r0, t_distinct, tol)
    S, est = S[where], est[where]
    value = prefactor * S
    return value, np.abs(prefactor) * est + 1e-15 * np.abs(prefactor) * np.abs(S)


def berezin_series(symbol: SymbolSpec, z: complex, tol: float = 1e-10) -> BerezinSample:
    """Berezin transform at z by the analytic route (series or closed form)."""
    z = complex(z)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if abs(z) > 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(
            f"transform evaluation needs |z| <= {1.0 - BOUNDARY_MARGIN}, got {abs(z)}"
        )
    value, est = _berezin_values(symbol, np.array([z]), tol)
    return BerezinSample(z=z, value=complex(value[0]), route="series", est_error=float(est[0]))


def berezin_matrix(op: TruncatedOperator, z: complex) -> BerezinSample:
    """Berezin transform of a truncated operator: the quadratic form on the
    normalized kernel's coefficient vector a_n(z) = (1-|z|^2) sqrt(n+1) conj(z)^n.

    The error estimate covers the discarded kernel tail beyond the
    truncation, scaled by the truncation's Frobenius norm.
    """
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(
            f"transform evaluation needs |z| <= {1.0 - BOUNDARY_MARGIN}, got {abs(z)}"
        )
    n = op.dim
    t = (z * z.conjugate()).real
    idx = np.arange(n)
    coeff = (1.0 - t) * np.sqrt(idx + 1.0) * z.conjugate() ** idx
    value = complex(np.vdot(coeff, op.entries @ coeff))
    fro = float(np.linalg.norm(op.entries))
    # squared norm of the kernel coefficients beyond the truncation
    tail_sq = t**n * ((n + 1.0) - n * t)
    est = 2.0 * fro * math.sqrt(max(tail_sq, 0.0)) + 1e-15 * fro
    return BerezinSample(z=z, value=value, route="matrix", est_error=est)


def weighted_berezin_radial(
    f_spec: tuple[float, float], alpha: int, z: complex, tol: float = 1e-10
) -> complex:
    """Berezin transform, on the weight-alpha Bergman space, of the radial
    function f(w) = (1 - |w|^2)^m_exp |w|^(2 a_exp), evaluated at z.

    B_alpha(f)(z) = (alpha+1) (1-|z|^2)^(2+alpha)
                    sum_p binom(p+alpha+1, p)^2 |z|^(2p) *
                    B(p + a_exp + 1, m_exp + alpha + 1).
    """
    m_exp, a_exp = f_spec
    if not m_exp + alpha > -1.0:
        raise ValueError("weighted transform needs m_exp + alpha > -1")
    if not a_exp > -1.0:
        raise ValueError("weighted transform needs a_exp > -1")
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(
            f"transform evaluation needs |z| <= {1.0 - BOUNDARY_MARGIN}, got {abs(z)}"
        )
    t = (z * z.conjugate()).real
    first = beta_integral(a_exp + 1.0, m_exp + alpha + 1.0)
    t_row = np.array([t])

    def ratio_at(p: int, rows: np.ndarray) -> np.ndarray:
        return (
            ((p + alpha + 2.0) / (p + 1.0)) ** 2
            * t_row[rows]
            * (p + a_exp + 1.0)
            / (p + a_exp + m_exp + alpha + 2.0)
        )

    series, _ = _ratio_series([first], ratio_at, tol, ratio_sup=t)
    return complex((alpha + 1.0) * (1.0 - t) ** (2 + alpha) * float(series[0]))


@dataclass(frozen=True)
class InvariantIntegralResult:
    """Integral against (1-|z|^2)^(-2) dA with split error accounting."""

    value: complex
    quad_error: float
    boundary_tail: float

    @property
    def est_error(self) -> float:
        return self.quad_error + self.boundary_tail


def _sampled(sampler, z: np.ndarray) -> np.ndarray:
    """Sampler values at z as a complex array shaped like z."""
    return np.broadcast_to(np.asarray(sampler(z), dtype=complex), z.shape)


def _theta_average(sampler, radii: np.ndarray, start: int, tol: float) -> np.ndarray:
    """Trapezoid averages over the circles of the given radii, each doubled
    to tolerance.

    Exact for trigonometric polynomials of degree below the node count and
    geometrically convergent for integrands analytic in the angle.  One
    sampler call per doubling covers every radius still open, and a
    doubling samples only the new odd nodes: the node sums of the earlier
    ones are kept.  Node sums are reduced in a fixed order.
    """
    out = np.empty(radii.size, dtype=complex)
    sums = np.zeros(radii.size, dtype=complex)
    rows = np.arange(radii.size)
    prev = None
    n, first, step = start, 0, 1  # nodes first, first + step, ... below n
    while n <= 4096:
        angles = 2.0 * math.pi * np.arange(first, n, step) / n
        z = radii[rows, None] * np.exp(1j * angles)
        sums[rows] += _sampled(sampler, z).sum(axis=1)
        cur = sums[rows] / n
        if prev is not None:
            done = np.abs(cur - prev) <= tol + 1e-13 * np.abs(cur)
            out[rows[done]] = cur[done]
            rows, cur = rows[~done], cur[~done]
            if not rows.size:
                return out
        prev = cur
        n, first, step = 2 * n, 1, 2
    raise NumericalFailureError(
        "angular average did not stabilize within 4096 nodes", partial=prev
    )


def invariant_integral(
    sampler: Callable[[np.ndarray], np.ndarray],
    radial_hint: bool,
    tol: float = 1e-8,
    *,
    max_panels: int = 48,
    theta_start: int = 64,
) -> InvariantIntegralResult:
    """Integral of ``sampler`` against the invariant measure (1-|z|^2)^(-2) dA.

    In t = |z|^2 the mesh is dyadic toward t = 1 (edges 1 - 2^-j) with
    16-point Gauss-Legendre panels, stopping once the last panel falls
    below tol/10.  ``radial_hint`` collapses the angular direction; the
    remaining boundary sliver is power-law extrapolated into
    ``boundary_tail`` (reported, never dropped).

    ``sampler`` maps an ndarray of points z to an ndarray of values of the
    same shape (or a scalar, broadcast over it), evaluating each point
    independently of the others in the array.  It is called with batches:
    with ``radial_hint`` once per panel with its 24 radii (16 + 8 Gauss
    nodes, on the real axis); otherwise once per angular doubling with
    the new nodes of every radius of the panel still open, at most
    24 x 2048 points.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x16, w16 = gauss_legendre(16)
    x8, w8 = gauss_legendre(8)
    nodes = np.concatenate([x16, x8])

    total = CompensatedSum()
    quad_error = 0.0
    panel_means: list[tuple[float, float]] = []  # (u midpoint, |mean h|)
    u_edge = 1.0
    converged = False
    for j in range(max_panels):
        u_hi, u_lo = 2.0**-j, 2.0 ** -(j + 1)
        mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
        u = mid + half * nodes
        r = np.sqrt(1.0 - u)
        if radial_hint:
            h = _sampled(sampler, r.astype(complex))
        else:
            h = _theta_average(sampler, r, theta_start, tol / 50.0)
        vals = h / u**2
        p16 = half * complex(np.dot(w16, vals[:16]))
        p8 = half * complex(np.dot(w8, vals[16:]))
        total.add(p16)
        quad_error += abs(p16 - p8)
        panel_means.append((mid, abs(p16) / (2.0 * half)))
        u_edge = u_lo
        if j >= 3 and abs(p16) < tol / 10.0:
            converged = True
            break

    # extrapolate h ~ C u^e over the unresolved sliver (0, u_edge)
    exponent = 0.0
    if len(panel_means) >= 2 and panel_means[-2][1] > 0.0 and panel_means[-1][1] > 0.0:
        (u2, h2), (u1, h1) = panel_means[-2], panel_means[-1]
        exponent = math.log(h1 / h2) / math.log(u1 / u2)
    if not converged and exponent <= -0.95:
        raise NumericalFailureError(
            "graded-mesh panel budget exhausted against a divergent-looking boundary",
            partial=total.value,
            achieved=quad_error,
        )
    exponent = min(max(exponent, -0.95), 8.0)
    u1, h1 = panel_means[-1]
    h_edge = h1 * (u_edge / u1) ** exponent if h1 > 0.0 else 0.0
    boundary_tail = 3.0 * h_edge * u_edge / (1.0 + exponent)
    return InvariantIntegralResult(
        value=total.value, quad_error=quad_error, boundary_tail=boundary_tail
    )
