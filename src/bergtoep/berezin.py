"""Berezin transforms and the invariant-measure integral.

The transform of a derivative symbol at z reduces, after expanding the
normalized kernel, to

    (-1)^(a+b) (a+1)! (b+1)! conj(z)^a z^b (1-|z|^2)^2 * S(z),
    S(z) = sum over p, q of binom(p+a+1, p) binom(q+b+1, q)
           conj(z)^p z^q M(p, q),

with M the monomial moments of the base measure.  The orders are integers,
so 2F1(alpha+2, beta+2; 1; y) is, by Euler's transformation, a polynomial
over a power of 1 - y.  The point mass, the uniform circle (S is that 2F1
at y = |z|^2 r0^2) and its radial derivative have closed forms with
rounding-only error bars.  A radial power base collapses S to a series;
near the boundary it is traded for an integral of the 2F1 against the
weight, evaluable where the series would need billions of terms: dyadic
Gauss-Legendre panels toward the kernel singularity at x = 1, evaluated
only as deep as the rows need, and one Gauss-Jacobi rule for the weight
x^a on the half toward x = 0.  Every route takes arrays of points: series
are summed row by row, each row stopping on its own tail bound.

The invariant integral uses composite 15-node Gauss-Kronrod panels on a
dyadic mesh graded toward t = |z|^2 = 1, each panel's error estimate read
from the 7-node Gauss rule nested in its nodes, sampling a whole panel
per call (one call per resolved panel, also off the radial case); the
unresolved boundary sliver is extrapolated and reported, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bergman import BOUNDARY_MARGIN
from .errors import BoundaryError, NumericalFailureError
from .numutil import (
    beta_integral,
    check_tol,
    falling_factorial,
    gauss_kronrod_15,
    gauss_legendre,
    int_factorial,
    ratio_series,
)

__all__ = [
    "BerezinSample",
    "berezin_series",
    "berezin_matrix",
    "weighted_berezin_radial",
    "invariant_integral",
    "InvariantIntegralResult",
]

_EPS = np.finfo(float).eps
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


# dyadic panels of the hypergeometric integral on x in (1/2, 1), and the
# panels a batch evaluates past its deepest forced panel before it looks
# for every row's stop
_HYP_PANELS = 51
_HYP_MARGIN = 6
# radii per hypergeometric batch, which bounds its arrays to ~0.5 MB each
_HYP_BATCH = 24


@lru_cache(maxsize=8)
def _hyp_panel_table(s: float, a: float):
    """Every candidate panel of the hypergeometric integral on x in
    (1/2, 1), 16 + 8 Gauss nodes each: x nodes, the weight x^a (1-x)^s
    there, panel half widths, and panel indices j.

    The mesh is dyadic in u = 1 - x, graded toward the kernel singularity
    at x = 1; panel j spans u in 2^-(j+1) .. 2^-j.
    """
    x16, _ = gauss_legendre(16)
    x8, _ = gauss_legendre(8)
    nodes = np.concatenate([x16, x8])
    j = np.arange(1, _HYP_PANELS + 1)
    lo, hi = 2.0 ** -(j + 1.0), 2.0 ** -j.astype(float)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = mid[:, None] + half[:, None] * nodes
    x = 1.0 - u
    table = (x, x**a * u**s, half, j)
    for array in table:  # shared by every caller through the cache
        array.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _gauss_jacobi_half(n: int, a: float):
    """n-node Gauss rule for the weight x^a on (0, 1/2), by Golub & Welsch
    (Math. Comp. 23, 1969): the nodes are the eigenvalues of the Jacobi
    matrix of the monic orthogonal polynomials, the weights the squared
    first eigenvector components times the mass (1/2)^(a+1) / (a+1).

    Returns (nodes, weights, weight_error).  ``weight_error`` is the
    largest relative error of the rule, as computed, on the moments
    x^(a+k), k < 2n, which it integrates exactly in exact arithmetic.
    """
    # the Jacobi (0, a) recurrence on (-1, 1), weight (1+y)^a, mapped by x = (1+y)/4
    k = np.arange(1.0, n)
    diag = np.concatenate([[a / (a + 2.0)], a * a / ((2.0 * k + a) * (2.0 * k + a + 2.0))])
    b = 4.0 * k * k * (k + a) ** 2 / ((2.0 * k + a) ** 2 * (2.0 * k + a + 1.0) * (2.0 * k + a - 1.0))
    off = np.sqrt(b) / 4.0
    jacobi = np.diag((1.0 + diag) / 4.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    mass = 0.5 ** (a + 1.0) / (a + 1.0)
    weights = mass * vectors[0] ** 2
    powers = np.arange(2 * n, dtype=float)
    moments = 0.5 ** (a + powers + 1.0) / (a + powers + 1.0)
    rule = (weights * nodes ** powers[:, None]).sum(axis=1)
    weight_error = float(np.max(np.abs(rule - moments) / moments))
    for array in (nodes, weights):
        array.setflags(write=False)
    return nodes, weights, weight_error


def _euler_hyp2f1(alpha: int, beta: int, y: np.ndarray) -> np.ndarray:
    """2F1(alpha+2, beta+2; 1; y) for integer orders, elementwise on y < 1.

    Euler's transformation (DLMF 15.8.1) gives (1-y)^-(alpha+beta+3) P(y),
    with P = 2F1(-alpha-1, -beta-1; 1; y) a polynomial of degree
    min(alpha, beta) + 1 whose coefficients (alpha+1)_k (beta+1)_k / (k!)^2
    (falling factorials) are all positive, so nothing cancels.
    """
    # in place: a batch is ~0.5 MB per array, and each fresh one is a new
    # mapping, with its page faults, once the allocator has given it back
    poly = np.zeros_like(y)
    for k in range(min(alpha, beta) + 1, -1, -1):  # Horner, top coefficient first
        coeff = falling_factorial(alpha + 1, k) * falling_factorial(beta + 1, k) / int_factorial(k) ** 2
        poly *= y
        poly += coeff
    denom = 1.0 - y
    denom **= alpha + beta + 3
    poly /= denom
    return poly


def _first_stop(stop: np.ndarray) -> np.ndarray:
    """Per row, the index of the first True, or the last index if none."""
    return np.where(stop.any(axis=1), stop.argmax(axis=1), stop.shape[1] - 1)


def _toward_one(alpha: int, beta: int, s: float, a: float, t: np.ndarray, tol: float):
    """The panels on x in (1/2, 1) for one batch of rows t.

    Each row keeps the panels up to its own stopping panel, the first with
    2^-j <= (1-t)/8 (forced), |p16| < tol/20 and j >= 2.  The batch
    evaluates its panels up to its deepest forced panel plus _HYP_MARGIN,
    and the rest only if some row has not stopped there, so every row's
    panels, stop and sums are those of a full evaluation, whatever its
    batch.  Returns per row the running sum of the kept 16-point panel
    values in panel order, the sum of |p16 - p8| over them, and the stop.
    """
    _, w16 = gauss_legendre(16)
    _, w8 = gauss_legendre(8)
    x, weight, half, j = _hyp_panel_table(s, a)
    forced = 2.0**-j <= (1.0 - t[:, None]) / 8.0

    def panels(cols: slice):
        f = weight[cols] * _euler_hyp2f1(alpha, beta, t[:, None, None] * x[cols])
        p16 = half[cols] * _weighted_sum(w16, f[..., :16])
        p8 = half[cols] * _weighted_sum(w8, f[..., 16:])
        return p16, p8, (np.abs(p16) < tol / 20.0) & (j[cols] >= 2) & forced[:, cols]

    cut = min(int(_first_stop(forced).max()) + 1 + _HYP_MARGIN, _HYP_PANELS)
    p16, p8, stop = panels(slice(0, cut))
    if cut < _HYP_PANELS and not stop.any(axis=1).all():
        deeper = panels(slice(cut, _HYP_PANELS))
        p16, p8, stop = (np.concatenate([head, tail], axis=1) for head, tail in zip((p16, p8, stop), deeper))
    stop = _first_stop(stop)
    used = np.arange(p16.shape[1]) <= stop[:, None]
    # running sums in panel order, as the panels are visited
    kept = np.cumsum(np.where(used, p16, 0.0), axis=1)[:, -1]
    quad_err = np.cumsum(np.where(used, np.abs(p16 - p8), 0.0), axis=1)[:, -1]
    return kept, quad_err, j[stop]


def _radial_power_integral(alpha: int, beta: int, s: float, a: float, t: np.ndarray, tol: float):
    """S(t) = integral over x in (0,1) of x^a (1-x)^s 2F1(alpha+2, beta+2; 1; t x) dx.

    On x in (1/2, 1) a dyadic mesh graded toward the kernel singularity at
    x = 1 (``_toward_one``), its sliver past each row's stop bracketed in
    closed form.  On x in (0, 1/2) the integrand is x^a times a function
    analytic out to x = 1, so one Gauss-Jacobi rule for the weight x^a
    integrates it: the value is the 24-node rule's, the estimate
    |G24 - G16| plus the rounding of the rule's own weights
    (``_gauss_jacobi_half``) and of its sum.  The estimate adds the 8-point
    rule's per-panel error and the bracket's half width.
    """
    x24, w24, weight_error = _gauss_jacobi_half(24, a)
    x16, w16, _ = _gauss_jacobi_half(16, a)
    # the rest of the integrand's weight, (1-x)^s, joins the rules' weights
    w24, w16 = w24 * (1.0 - x24) ** s, w16 * (1.0 - x16) ** s
    rounding = weight_error + 24 * _EPS
    x_zero = np.concatenate([x24, x16])
    total = np.empty(t.size)
    est = np.empty(t.size)
    for lo in range(0, t.size, _HYP_BATCH):
        tb = t[lo : lo + _HYP_BATCH]
        kept, quad_err, j_stop = _toward_one(alpha, beta, s, a, tb, tol)
        f = _euler_hyp2f1(alpha, beta, tb[:, None] * x_zero)
        g24 = _weighted_sum(w24, f[:, : x24.size])
        g16 = _weighted_sum(w16, f[:, x24.size :])
        # the sliver past the stopping panel, u in (0, u_end), is not
        # integrated: (1-x)^s is integrated exactly and the other two
        # factors are bracketed by their values at the sliver's ends
        # (2F1(., t x) grows with x, as its Euler polynomial's coefficients
        # are positive).  The value takes the bracket's midpoint, the
        # estimate its half width.
        u_end = 2.0 ** -(j_stop + 1.0)
        x_pow = (1.0 - u_end) ** a
        one = u_end ** (s + 1.0) / (s + 1.0)
        upper = np.maximum(1.0, x_pow) * _euler_hyp2f1(alpha, beta, tb) * one
        lower = np.minimum(1.0, x_pow) * _euler_hyp2f1(alpha, beta, tb * (1.0 - u_end)) * one
        total[lo : lo + _HYP_BATCH] = kept + g24 + 0.5 * (upper + lower)
        # the integrand is positive on (0, 1/2), so g24 is also the sum of |terms|
        est[lo : lo + _HYP_BATCH] = quad_err + 0.5 * (upper - lower) + np.abs(g24 - g16) + rounding * g24
    return total, est


def _radial_power_S(alpha: int, beta: int, s: float, a: float, t, tol: float):
    """Diagonal sum S for a radial power base at each t = |z|^2.

    Power series up to _SERIES_T_MAX; beyond it the Beta moments are
    unfolded back into their defining integral and the p-sum is done in
    closed form (``_radial_power_integral``).  Each distinct t is summed
    once and broadcast over the points that share it.  Returns (S, est)
    arrays.
    """
    t, where = np.unique(np.atleast_1d(np.asarray(t, dtype=float)), return_inverse=True)
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
        S[low], est[low] = ratio_series(first, ratio_at, tol, ratio_sup=t_low)
    if not low.all():
        S[~low], est[~low] = _radial_power_integral(alpha, beta, s, a, t[~low], tol)
    return S[where], est[where]


def _prefactor(alpha: int, beta: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(-1)^(a+b) (a+1)! (b+1)! conj(z)^a z^b (1-|z|^2)^2 at the points z.

    conj(z)^alpha z^beta is formed as t^min(alpha, beta) times the leftover
    power, so that equal orders give exactly real prefactors.
    """
    sign = -1.0 if (alpha + beta) % 2 else 1.0
    fa = int_factorial(alpha + 1)
    fb = int_factorial(beta + 1)
    leftover = z.conjugate() if alpha > beta else z
    monomial = _ipow(t, min(alpha, beta)) * _ipow(leftover, abs(alpha - beta))
    return sign * fa * fb * monomial * (1.0 - t) ** 2


def _flat_points(z):
    """The array ``z`` as complex, its flat view and t = |z|^2 there,
    rejecting points on or outside the circle."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    t = (flat * flat.conjugate()).real
    if np.any(t >= 1.0):
        raise BoundaryError("Berezin transform is defined inside the disk")
    return z, flat, t


def _berezin_values(symbol, z, tol: float):
    """Analytic-route transform of the ``SymbolSpec`` at every point of the
    array ``z``, unfenced; returns (values, est_errors) shaped like ``z``."""
    z, flat, t = _flat_points(z)
    value, err = symbol.base.berezin(symbol.alpha, symbol.beta, flat, t, tol)
    return value.reshape(z.shape), err.reshape(z.shape)


def _berezin_value_only(symbol, z, tol: float):
    """The values of ``_berezin_values``, bitwise, without their error
    estimates."""
    z, flat, t = _flat_points(z)
    return symbol.base.berezin_value(symbol.alpha, symbol.beta, flat, t, tol).reshape(z.shape)


def _check_fence(z: complex) -> None:
    if not abs(z) <= 1.0 - BOUNDARY_MARGIN:  # NaN fails every comparison
        raise BoundaryError(
            f"transform evaluation needs |z| <= {1.0 - BOUNDARY_MARGIN}, got {abs(z)}"
        )


def berezin_series(symbol, z: complex, tol: float = 1e-10) -> BerezinSample:
    """Berezin transform of the ``SymbolSpec`` at z by the analytic route
    (series or closed form)."""
    z = complex(z)
    check_tol(tol)
    _check_fence(z)
    value, est = _berezin_values(symbol, np.array([z]), tol)
    return BerezinSample(z=z, value=complex(value[0]), route="series", est_error=float(est[0]))


def berezin_matrix(op, z: complex) -> BerezinSample:
    """Berezin transform of a truncated operator: the quadratic form on the
    normalized kernel's coefficient vector a_n(z) = (1-|z|^2) sqrt(n+1) conj(z)^n,
    summed over the operator's (c, factor) pairs in O(dim): sign conj(row . a)
    (col . a) for rank one, the sum of conj(a_n) v_n a_(n+offset) for a band.

    The error estimate covers the discarded kernel tail beyond the
    truncation, scaled by sum |c| ||F||: the Frobenius norm for one atom
    (||row|| ||col||, or ||v||) and a triangle bound above it for a combination.
    """
    z = complex(z)
    _check_fence(z)
    n = op.dim
    t = (z * z.conjugate()).real
    idx = np.arange(n)
    coeff = (1.0 - t) * np.sqrt(idx + 1.0) * z.conjugate() ** idx
    value = complex(sum(c * factor.form(coeff) for c, factor in op.factors))
    fro = float(sum(abs(c) * factor.norm() for c, factor in op.factors))
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
    check_tol(tol)
    m_exp, a_exp = f_spec
    if not m_exp + alpha > -1.0:
        raise ValueError("weighted transform needs m_exp + alpha > -1")
    if not a_exp > -1.0:
        raise ValueError("weighted transform needs a_exp > -1")
    z = complex(z)
    _check_fence(z)
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

    series, _ = ratio_series([first], ratio_at, tol, ratio_sup=t)
    return complex((alpha + 1.0) * (1.0 - t) ** (2 + alpha) * float(series[0]))


# dyadic panels of the invariant integral, and trapezoid nodes per circle
# before the first angular doubling
_INVARIANT_PANELS = 48
_THETA_START = 64


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
    geometrically convergent for integrands analytic in the angle.  The
    first sampler call takes 2 * start nodes per circle: its even half is
    the start-node rule, and adding the odd half gives the first doubling,
    so a circle that resolves there costs one call.  Each later call
    samples only the new odd nodes of every radius still open: the node
    sums of the earlier ones are kept.  Node sums are reduced in a fixed
    order, even half first.
    """
    out = np.empty(radii.size, dtype=complex)
    sums = np.zeros(radii.size, dtype=complex)
    rows = np.arange(radii.size)
    n = 2 * start
    values = _sampled(sampler, radii[:, None] * np.exp(1j * (2.0 * math.pi * np.arange(n) / n)))
    sums += values[:, 0::2].sum(axis=1)
    prev = sums / start
    sums += values[:, 1::2].sum(axis=1)
    while True:
        cur = sums[rows] / n
        done = np.abs(cur - prev) <= tol + 1e-13 * np.abs(cur)
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
        if not rows.size:
            return out
        n *= 2
        if n > 4096:
            raise NumericalFailureError(
                "angular average did not stabilize within 4096 nodes", partial=prev
            )
        angles = 2.0 * math.pi * np.arange(1, n, 2) / n
        z = radii[rows, None] * np.exp(1j * angles)
        sums[rows] += _sampled(sampler, z).sum(axis=1)


def invariant_integral(
    sampler: Callable[[np.ndarray], np.ndarray],
    radial_hint: bool,
    tol: float = 1e-8,
) -> InvariantIntegralResult:
    """Integral of ``sampler`` against the invariant measure (1-|z|^2)^(-2) dA.

    In t = |z|^2 the mesh is dyadic toward t = 1 (edges 1 - 2^-j) with
    15-point Gauss-Kronrod panels, stopping once the last panel falls
    below tol/10.  A panel's value is its Kronrod sum K15; ``quad_error``
    adds |K15 - G7|, with G7 the Gauss rule on the odd-indexed Kronrod
    nodes, so the estimate costs no sample of its own.  ``radial_hint``
    collapses the angular direction; the remaining boundary sliver is
    power-law extrapolated into ``boundary_tail`` (reported, never
    dropped).

    ``sampler`` maps an ndarray of points z to an ndarray of values of the
    same shape (or a scalar, broadcast over it), evaluating each point
    independently of the others in the array.  It is called with batches:
    with ``radial_hint`` once per panel with its 15 radii (the Kronrod
    nodes, on the real axis); otherwise once per panel with 2 x
    _THETA_START = 128 angular nodes on each of its 15 radii, which
    settles every circle that resolves at the first doubling, then once
    per further angular doubling with the new nodes of every radius still
    open, at most 15 x 2048 points.
    """
    check_tol(tol)
    nodes, w15, w7 = gauss_kronrod_15()

    panels: list[complex] = []  # 15-point Kronrod panel values
    quad_error = 0.0
    panel_means: list[tuple[float, float]] = []  # (u midpoint, |mean h|)
    u_edge = 1.0
    converged = False
    for j in range(_INVARIANT_PANELS):
        u_hi, u_lo = 2.0**-j, 2.0 ** -(j + 1)
        mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
        u = mid + half * nodes
        r = np.sqrt(1.0 - u)
        if radial_hint:
            h = _sampled(sampler, r.astype(complex))
        else:
            h = _theta_average(sampler, r, _THETA_START, tol / 50.0)
        vals = h / u**2
        p15 = half * complex(np.dot(w15, vals))
        p7 = half * complex(np.dot(w7, vals[1::2]))
        panels.append(p15)
        quad_error += abs(p15 - p7)
        panel_means.append((mid, abs(p15) / (2.0 * half)))
        u_edge = u_lo
        if j >= 3 and abs(p15) < tol / 10.0:
            converged = True
            break

    value = complex(math.fsum(p.real for p in panels), math.fsum(p.imag for p in panels))

    # extrapolate h ~ C u^e over the unresolved sliver (0, u_edge)
    exponent = 0.0
    if len(panel_means) >= 2 and panel_means[-2][1] > 0.0 and panel_means[-1][1] > 0.0:
        (u2, h2), (u1, h1) = panel_means[-2], panel_means[-1]
        exponent = math.log(h1 / h2) / math.log(u1 / u2)
    if not converged and exponent <= -0.95:
        raise NumericalFailureError(
            "graded-mesh panel budget exhausted against a divergent-looking boundary",
            partial=value,
            achieved=quad_error,
        )
    exponent = min(max(exponent, -0.95), 8.0)
    u1, h1 = panel_means[-1]
    h_edge = h1 * (u_edge / u1) ** exponent if h1 > 0.0 else 0.0
    boundary_tail = 3.0 * h_edge * u_edge / (1.0 + exponent)
    return InvariantIntegralResult(
        value=value, quad_error=quad_error, boundary_tail=boundary_tail
    )
