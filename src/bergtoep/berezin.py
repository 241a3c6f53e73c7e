"""Berezin transforms and the invariant-measure integral.

The transform of a derivative symbol at z reduces, after expanding the
normalized kernel, to

    (-1)^(a+b) (a+1)! (b+1)! conj(z)^a z^b (1-|z|^2)^2 * S(z),
    S(z) = sum over p, q of binom(p+a+1, p) binom(q+b+1, q)
           conj(z)^p z^q M(p, q),

with M the monomial moments of the base measure.  Each measure kind's
``berezin`` returns S with S's own error bar, and ``_berezin_values``
alone applies the prefactor and bounds its rounding, relative to the
value.  The orders are integers,
so 2F1(alpha+2, beta+2; 1; y) is, by Euler's transformation, a polynomial
over a power of 1 - y.  The point mass, the uniform circle (S is that 2F1
at y = |z|^2 r0^2) and its radial derivative have closed forms with
rounding-only error bars.  A radial power base turns S into an integral
of that 2F1 against the weight, which one trapezoid rule on a log scale
evaluates at every |z| < 1 with a derived error bound and no tolerance
(``_radial_power_S``).  Every route takes arrays of points.

The invariant integral is one trapezoid rule in v = ln(t/(1-t)),
t = |z|^2, a log scale like the radial power's rule: its error
estimate is the gap to the rule on every other node, and its two cut-off
tails are bounded from the end samples and the integrand's stated
boundary decay.  All 285 radii are sampled in one call, on a trapezoid
rule per circle, Moebius-mapped around a centre (``_circle_rule``), with
as many nodes as the integrand's stated degree in the rule's variable
makes exact: one node for a radial integrand, a few for a point mass's
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bergman import BOUNDARY_MARGIN
from .errors import BoundaryError, NumericalFailureError
from .numutil import (
    beta_integral,
    check_integer,
    falling_factorial,
    int_factorial,
)

__all__ = [
    "BerezinSample",
    "berezin_series",
    "berezin_matrix",
    "weighted_berezin_radial",
    "invariant_integral",
    "InvariantIntegralResult",
]

_U = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class BerezinSample:
    """One Berezin-transform evaluation with its route and error estimate."""

    z: complex
    value: complex
    route: str
    est_error: float


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * _U / (1.0 - n * _U)


def _ipow(w: np.ndarray, k: int) -> np.ndarray:
    """w**k for an integer k by repeated multiplication, elementwise."""
    if k < 0:
        return 1.0 / _ipow(w, -k)
    out = np.ones_like(w)
    for _ in range(k):
        out = out * w
    return out


def _euler_coeffs(alpha: int, beta: int) -> list[float]:
    """Coefficients, top first, of P(y) = 2F1(-alpha-1, -beta-1; 1; y): a
    polynomial of degree min(alpha, beta) + 1 whose coefficients
    (alpha+1)_k (beta+1)_k / (k!)^2 (falling factorials) are all positive,
    so nothing cancels for y >= 0."""
    ks = range(min(alpha, beta) + 1, -1, -1)
    return [falling_factorial(alpha + 1, k) * falling_factorial(beta + 1, k) / int_factorial(k) ** 2 for k in ks]


def _euler_poly(coeffs: list[float], y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P(y) elementwise by Horner from ``_euler_coeffs``, in the one array ``out`` (not ``y``)."""
    out[...] = coeffs[0]
    for coeff in coeffs[1:]:
        out *= y
        out += coeff
    return out


def _euler_hyp2f1(alpha: int, beta: int, y: np.ndarray) -> np.ndarray:
    """2F1(alpha+2, beta+2; 1; y) for integer orders, elementwise on y < 1:
    (1-y)^-(alpha+beta+3) P(y) by Euler's transformation (DLMF 15.8.1)."""
    poly = _euler_poly(_euler_coeffs(alpha, beta), y, np.empty_like(y))
    denom = 1.0 - y
    denom **= alpha + beta + 3
    poly /= denom
    return poly


_LN2 = math.log(2.0)
_LN_INV_U = -math.log(_U)
# ln(1/(1-t)) for the largest float t < 1, whose window is the widest
_LN_INV_EPS_MIN = 53.0 * _LN2


def _radial_power_S(alpha: int, beta: int, s: float, a: float, t):
    """Diagonal sum S for a radial power base at each t = |z|^2 < 1.

    S(t) = integral over x in (0, 1) of x^a (1-x)^s P(t x) (1-t x)^-m dx,
    m = alpha + beta + 3, P the Euler polynomial (``_euler_poly``).  With
    eps = 1 - t, x = 1/(1+w) and w = eps e^v it is the integral over all
    real v of

        f(v) = w^(s+1) (eps+w)^-m (1+w)^q P(t/(1+w)),  q = m - a - s - 2,

    positive, decaying like e^((s+1) v) toward -inf and like e^(-(a+1) v)
    past v = ln(1/eps).  It is evaluated as r1^(s+1) r2^p r3^(a+1) P(t r3),
    p = s + 1 - m, with r1 = e^v/(1+e^v), r2 = (eps+w)/(1+w) = 1 - t x and
    r3 = 1/(1+w) = x: all in (0, 1], and r2 >= eps, so no factor overflows
    or underflows where S is a normal float.

    f is analytic for |Im v| < pi.  There |1+e^(v+iy)| >= (1+e^v) cos(y/2),
    the same with w for e^v, and P has nonnegative coefficients, so
    |f(v+iy)| <= K f(v), K = sec(d/2)^(m + max(0, -q) + deg P).  By
    Trefethen & Weideman (SIAM Rev. 56, 2014, Thm 5.1) the trapezoid rule
    of step h errs by at most 2 K S / (e^(2 pi d/h) - 1); with d = 2 pi/3
    (sec(d/2) = 2), h is the largest 2^-j that makes this at most u S.
    The nodes k h start where the lower tail falls below u S whatever t and
    end where t's upper tail does, v = above + ln(1/eps), the count rounded
    up to a multiple of 32: a window of t alone.  Both tails are bounded in
    closed form; over 2^16 nodes at the largest float t < 1 (s or a past
    several hundred) raise NumericalFailureError.

    The estimate adds: u S for the rule; the two tails; the rounding of
    each node, c u relative from its operation count (exp and pow within
    one ulp, P by Horner); the rounding of the running sum, u per partial
    sum; and S's sensitivity to the rounding of t = |z|^2, gamma_2 t S'(t),
    its first order summed from the same nodes as
    h sum f_k (deg P + m t x_k/(1 - t x_k)).  Each distinct t is one row of
    a row-major tile, summed once along its contiguous nodes in one fixed
    order, whatever else shares the batch.
    Returns (S, est) arrays.
    """
    t, where = np.unique(np.atleast_1d(np.asarray(t, dtype=float)), return_inverse=True)
    m, deg = alpha + beta + 3, min(alpha, beta) + 1
    p, q = s + 1.0 - m, m - a - s - 2.0
    # the largest h = 2^-j with e^(2 pi d/h) >= 2 K/u + 1, d = 2 pi/3
    log_k = (m + max(0.0, -q) + deg) * _LN2
    log_bound = log_k + _LN2 + _LN_INV_U + math.log1p(_U * math.exp(-log_k - _LN2))
    h = 2.0 ** -max(0, math.ceil(math.log2(log_bound / (4.0 * math.pi**2 / 3.0))))
    # the tails' bounds against lower bounds of S over v < 0 and over w > 1
    # (P(1) = binom(m-1, alpha+1) by Vandermonde's identity), where e^v is finite
    below = min((_LN_INV_U + (s + a + 2.0 + deg + abs(p)) * _LN2) / (s + 1.0), 700.0)
    above = (_LN_INV_U + (s + a + 2.0 + abs(p)) * _LN2 + math.log(math.comb(m - 1, alpha + 1))) / (a + 1.0)
    first = -math.ceil(below / h)
    size = math.ceil(min(above + _LN_INV_EPS_MIN, 700.0) / h) - first + 1
    if size > 2**16:
        raise NumericalFailureError(f"radial power transform at s={s}, a={a} needs {size} trapezoid nodes, over 2^16")
    eps = 1.0 - t
    # t's window ends past above + ln(1/eps), where w = eps e^v > e^above
    counts = np.ceil(np.minimum(above - np.log(eps), 700.0) / h) - first + 1
    counts = np.minimum(np.ceil(counts / 32.0) * 32.0, size).astype(int)
    k = np.arange(first, first + counts.max())
    e = np.exp(k * h)
    one_e = 1.0 + e
    r1 = (e / one_e) ** (s + 1.0)
    coeffs = _euler_coeffs(alpha, beta)

    # t is sorted, so rows of one node count come in runs; tiles of at most 2^13 floats or one row
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), t.size]
    widths = [int(counts[lo]) for lo in bounds[:-1]]
    runs = [(lo, hi, n, max(1, 2**13 // n)) for lo, hi, n in zip(bounds, bounds[1:], widths)]
    buffers = np.empty((3, max(n * min(rows, hi - lo) for lo, hi, n, rows in runs)))
    S, partials, sensitivity = np.empty((3, t.size))
    for lo, hi, n, rows in runs:
        for i in range(lo, hi, rows):
            tile = slice(i, min(i + rows, hi))
            tc, ec = t[tile, None], eps[tile, None]
            r3, f, work = (b[: n * tc.size].reshape(tc.size, n) for b in buffers)
            # in place, r3 = 1/(1 + eps e) and f = r1 (eps (1 + e) r3)^p r3^(a+1) P(t r3), each operation as written
            np.divide(1.0, np.add(1.0, np.multiply(ec, e[:n], out=r3), out=r3), out=r3)
            np.multiply(np.multiply(ec, one_e[:n], out=f), r3, out=f)
            f **= p
            f *= r1[:n]
            f *= np.power(r3, a + 1.0, out=work)
            f *= _euler_poly(coeffs, np.multiply(tc, r3, out=work), out=r3)
            # from the far end of the slow e^(-(a+1) v) tail, so that the
            # partial sums, whose total bounds the sum's rounding, stay small there
            partial = np.cumsum(f[:, ::-1], axis=1, out=work)
            S[tile] = h * partial[:, -1]
            partials[tile] = h * partial.sum(axis=1)
            # t S'(t) = h sum f (t x P'(t x)/P(t x) + m t x/(1 - t x)), where t x P'/P <= deg P
            # and t x/(1 - t x) = t/(eps (1 + e^v))
            weighted = np.divide(f, one_e[:n], out=r3)
            sensitivity[tile] = h * (deg * partial[:, -1] + m * tc[:, 0] / ec[:, 0] * weighted.sum(axis=1))

    P_t = _euler_poly(coeffs, t, np.empty_like(t))
    # v < v_lo: r1 < e^v, r2^p <= eps^p (1 + e^v_lo)^max(p, 0), r3 <= 1, P(t r3) <= P(t)
    v_lo = first * h
    tail_lo = h * math.exp((s + 1.0) * v_lo) / math.expm1((s + 1.0) * h) * (1.0 + math.exp(v_lo)) ** max(p, 0.0)
    tail_lo = tail_lo * eps**p * P_t
    # v > v_hi, each t's last node: r1 <= 1, r2^p <= (1 + 1/w_hi)^max(-p, 0), r3^(a+1) < w^-(a+1)
    w_hi = eps * np.exp((first + counts - 1) * h)
    tail_hi = h * w_hi ** -(a + 1.0) / math.expm1((a + 1.0) * h) * (1.0 + 1.0 / w_hi) ** max(-p, 0.0) * P_t
    tails = tail_lo + tail_hi
    # per node: r1 6u, 1 - t u, r3 6u, r2 12u, then each pow adds one ulp
    # to its exponent times its base's error; t r3 7u into P, Horner
    # (2 deg + 1) u; three products
    c = 6.0 * (s + 1.0) + 12.0 * abs(p) + 6.0 * (a + 1.0) + 9.0 * deg + 10.0
    # the running sum errs by u/(1-u) per partial sum; 2u covers it with
    # the rounding of their own sum
    est = (
        tails
        + _U * (S + tails)
        + _gamma(c) * S
        + 2.0 * _U * partials
        + _gamma(2.0) * sensitivity
    )
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


def _berezin_values(symbol, z):
    """Analytic-route transform of the ``SymbolSpec`` at every point of the
    array ``z``, unfenced; returns (values, est_errors) shaped like ``z``."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    t = (flat * flat.conjugate()).real
    if np.any(t >= 1.0):
        raise BoundaryError("Berezin transform is defined inside the disk")
    alpha, beta = symbol.alpha, symbol.beta
    S, bar = symbol.base.berezin(alpha, beta, flat, t)
    prefactor = _prefactor(alpha, beta, flat, t)
    value = prefactor * S
    # Higham's gamma_n, a complex product counted as gamma_3: the factorials,
    # alpha + beta; the monomial, 3 per power (t's own gamma_2 in
    # t^min(alpha, beta)); the prefactor's products and (1 - t)^2, 6; its
    # product with S, 3.  The rounding of t = |z|^2 moves (1 - t)^2 by
    # 2 eps/(1 - t) relative
    relative = _gamma(alpha + beta + 3 * max(alpha, beta) + 9) + 4.0 * _U / (1.0 - t)
    err = np.abs(prefactor) * bar + relative * np.abs(value)
    return value.reshape(z.shape), err.reshape(z.shape)


def _check_fence(z: complex) -> None:
    if not abs(z) <= 1.0 - BOUNDARY_MARGIN:  # NaN fails every comparison
        raise BoundaryError(
            f"transform evaluation needs |z| <= {1.0 - BOUNDARY_MARGIN}, got {abs(z)}"
        )


def berezin_series(symbol, z: complex) -> BerezinSample:
    """Berezin transform of the ``SymbolSpec`` at z by the analytic route
    (closed form, or the radial power's trapezoid rule)."""
    z = complex(z)
    _check_fence(z)
    value, est = _berezin_values(symbol, np.array([z]))
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


# the weighted transform's term cap: near the 1 - 1e-6 fence its terms
# fall too slowly to meet the rounding level within it
_WEIGHTED_TERM_CAP = 100_000


def weighted_berezin_radial(f_spec: tuple[float, float], alpha: int, z: complex) -> complex:
    """Berezin transform, on the weight-alpha Bergman space, of the radial
    function f(w) = (1 - |w|^2)^m_exp |w|^(2 a_exp), evaluated at z.

    B_alpha(f)(z) = (alpha+1) (1-|z|^2)^(2+alpha)
                    sum_p binom(p+alpha+1, p)^2 |z|^(2p) *
                    B(p + a_exp + 1, m_exp + alpha + 1).

    The positive terms are summed until the tail bound
    term_p rho_p / (1 - rho_p), rho_p = |z|^2 ((p+alpha+2)/(p+1))^2, is
    within the unit roundoff of the running sum: every later term ratio is
    at most rho_p, since ((q+alpha+2)/(q+1))^2 falls with q for alpha > -1
    and the Beta ratio (q+a_exp+1)/(q+a_exp+m_exp+alpha+2) is below 1.
    """
    m_exp, a_exp = f_spec
    # NaN fails every comparison, and +inf the upper one
    if not -1.0 < alpha < math.inf:
        raise ValueError("weighted Bergman space A^2_alpha needs finite alpha > -1")
    if not -1.0 < m_exp + alpha < math.inf:
        raise ValueError("weighted transform needs finite m_exp with m_exp + alpha > -1")
    if not -1.0 < a_exp < math.inf:
        raise ValueError("weighted transform needs finite a_exp > -1")
    z = complex(z)
    _check_fence(z)
    t = (z * z.conjugate()).real
    scale = (alpha + 1.0) * (1.0 - t) ** (2 + alpha)
    term = beta_integral(a_exp + 1.0, m_exp + alpha + 1.0)
    terms, running = [], 0.0
    for p in range(_WEIGHTED_TERM_CAP):
        terms.append(term)
        running += term
        rho = t * ((p + alpha + 2.0) / (p + 1.0)) ** 2
        if rho < 1.0 and term * rho <= _U * (1.0 - rho) * running:
            return complex(scale * math.fsum(terms))
        term *= rho * (p + a_exp + 1.0) / (p + a_exp + m_exp + alpha + 2.0)
    raise NumericalFailureError(
        f"weighted transform did not converge within {_WEIGHTED_TERM_CAP} terms",
        partial=scale * math.fsum(terms),
    )


# the invariant integral's trapezoid rule in v = ln(t/(1-t)): step 1/4 over
# [-37, 34], 285 radii, where 1 - t falls to 1.7e-15, and e^v; and the largest
# circle-rule degree, so that one sampler call stays within 285 x 64 points
_STEP = 0.25
_V = -37.0 + _STEP * np.arange(285)
_RADII, _E_V = np.sqrt(1.0 / (1.0 + np.exp(-_V))), np.exp(_V)
_MAX_DEGREE = 63


@dataclass(frozen=True)
class InvariantIntegralResult:
    """Integral against (1-|z|^2)^(-2) dA with split error accounting (the
    quadrature's, which includes the samples' own error bars, and the two
    cut-off tails') and the number of points handed to the sampler."""

    value: complex
    quad_error: float
    boundary_tail: float
    samples: int

    @property
    def est_error(self) -> float:
        return self.quad_error + self.boundary_tail


def _circle_rule(radii: np.ndarray, centre: complex, n: int, k: np.ndarray):
    """Nodes and weights of the n-node trapezoid rule on the circles |z| = r
    of the 1-d ``radii``, Moebius-mapped around ``centre``, at the node
    indices k: (z, weights), one row per radius, weights None for centre 0.

    With rho = r |centre| and w = e^(2 pi i k/n), the nodes are
    z = r (centre/|centre|) (w + rho)/(1 + rho w) and the weights
    (1 - rho^2)/|1 + rho w|^2, the map's derivative, so that the rule's
    average is the sum of weight * f(z) over n.  The map clusters the nodes
    where a kernel with its pole at 1/conj(centre) peaks, and the rule is
    exact for Laurent polynomials in w of degree below n (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  Centre 0 is the plain rule: nodes r w.
    """
    w = np.exp(1j * (2.0 * math.pi * k / n))
    r = radii[:, None]
    if not centre:
        return r * w, None
    rho = r * abs(centre)
    z = (r * (centre / abs(centre))) * ((w + rho) / (1.0 + rho * w))
    # 1 - rho^2 as a product, which does not cancel as rho nears 1
    return z, ((1.0 - rho) * (1.0 + rho)) / np.abs(1.0 + rho * w) ** 2


def _check_circle(circle) -> tuple[complex, int]:
    """(centre, degree) of a circle rule, or ValueError: a finite centre
    inside the disk and an integer degree in 0.._MAX_DEGREE."""
    centre, degree = circle
    centre = complex(centre)
    if not abs(centre) < 1.0:  # NaN fails every comparison; inf is not below 1
        raise ValueError(f"circle rule centre must lie inside the disk, got {centre}")
    check_integer("circle rule degree", degree)
    if not 0 <= degree <= _MAX_DEGREE:
        raise ValueError(f"circle rule degree must lie in 0..{_MAX_DEGREE}, got {degree}")
    return centre, int(degree)


def invariant_integral(
    sampler: Callable[[np.ndarray], tuple],
    circle: tuple[complex, int],
    decay: float,
) -> InvariantIntegralResult:
    """Integral of ``sampler`` against the invariant measure (1-|z|^2)^(-2) dA.

    With t = |z|^2 = 1/(1+e^(-v)) the measure is e^v dv dtheta/(2 pi), and
    the integral that of f(v) = e^v times the circle average at radius
    sqrt(t), by one trapezoid rule of step 1/4 over v in [-37, 34]
    (Trefethen & Weideman, SIAM Rev. 56, 2014, §5): 1/4 the sum of the 285
    f_k.  ``quad_error`` adds |T_1/4 - T_1/2|, T_1/2 the rule on the even
    nodes, so the estimate costs no sample of its own; the samples' error
    bars through the same positive weights as their values; and the
    rounding.  ``boundary_tail`` bounds the cut-off tails from the end
    samples and their bars: |f_0| below v = -37, where t < 1e-16 and the
    average is constant to the rounding; above v = 34, where f decays like
    e^(-decay v), |f_end| (1 + 2/v_end)/decay.  The 2/v_end covers, at
    decay 1, a logarithm f ~ (v + c) e^(-v) with c >= -v_end/2 (a radial
    power's transform at s = 2 + 2 alpha has c = -2 H_(alpha+1)) and the
    lower-order terms of the other sign that approach it.  A smaller
    ``decay`` only loosens the bar; a bound above the sampled mass, the
    rule on the modulus of each weighted sample, raises
    NumericalFailureError with the partial value and the error reached.

    ``sampler`` maps an ndarray of points z to a pair (values, error
    estimates), each an ndarray of the same shape as z or a scalar
    broadcast over it, the estimates nonnegative, evaluating each point
    independently of the others in the array.  Each radius carries the
    trapezoid rule ``_circle_rule`` mapped around ``circle``'s centre with
    n nodes, n the smallest power of two above its degree: exact when the
    integrand times the rule's weight is a Laurent polynomial of that
    degree in the mapped variable.  Degree 0 about centre 0 is one node,
    z = r, on each circle.  The whole rule is one sampler call of 285 x n
    points; a centre outside the open disk, a degree outside 0..63, or a
    decay that is not finite and positive raises ValueError before any
    sampling.
    """
    centre, degree = _check_circle(circle)
    if not 0.0 < decay < math.inf:  # NaN fails every comparison
        raise ValueError(f"boundary decay rate must be finite and positive, got {decay}")
    n = 1 << degree.bit_length()
    z, weights = _circle_rule(_RADII, centre, n, np.arange(n))
    values, errors = sampler(z)
    values = np.broadcast_to(np.asarray(values, dtype=complex), z.shape)
    errors = np.broadcast_to(np.asarray(errors, dtype=float), z.shape)
    if weights is not None:
        values, errors = weights * values, weights * errors
    e_v = _E_V / n
    f, bars = values.sum(axis=1) * e_v, errors.sum(axis=1) * e_v
    # fsum over Python floats: over an ndarray it boxes every element first; from
    # the v = 34 end, in which order these terms sum about twice as fast, and fsum
    # is correctly rounded, so the order cannot change the sum
    rule = lambda terms, step: step * complex(*(math.fsum(part[::-1].tolist()) for part in (terms.real, terms.imag)))
    value = rule(f, _STEP)
    # the rule on |weight * value|: each term errs by at most gamma_(n+11)
    # of its share of this mass, from the mapped weight (9) and its product,
    # the circle sum (n - 1), e^v and its product; the value errs by that
    # and the rounding of its sum, at most u times the mass, and T_1/2, on
    # the even terms at twice the step, by at most twice as much
    mass = _STEP * float(np.abs(values).sum(axis=1) @ e_v)
    rounding = 4.0 * _gamma(n + 12) * mass
    quad_error = abs(value - rule(f[::2], 2.0 * _STEP)) + _STEP * float(bars.sum()) + rounding
    below = abs(f[0]) + bars[0]
    above = (abs(f[-1]) + bars[-1]) * (1.0 + 2.0 / _V[-1]) / decay
    if above > mass:
        raise NumericalFailureError(
            f"invariant integral's boundary tail bound {above:.3g} exceeds its sampled mass {mass:.3g}",
            partial=value,
            achieved=quad_error + below + above,
        )
    return InvariantIntegralResult(value=value, quad_error=quad_error, boundary_tail=below + above, samples=z.size)
