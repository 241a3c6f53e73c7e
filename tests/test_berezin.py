"""Berezin transform routes, the weighted radial transform, and the
invariant-measure quadrature."""

from __future__ import annotations

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

from bergtoep.berezin import (
    _berezin_values,
    _circle_rule,
    _euler_hyp2f1,
    _ipow,
    _radial_power_S,
    berezin_matrix,
    berezin_series,
    invariant_integral,
    weighted_berezin_radial,
)
from bergtoep.bergman import BOUNDARY_MARGIN, d_alpha_beta_eval
from bergtoep.errors import BoundaryError, NumericalFailureError
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
    moment,
)
from bergtoep.numutil import int_factorial
from bergtoep.operators import assemble


def _double_series_oracle(symbol, z, cutoff=300):
    """Literal double sum over (p, q) with explicit moments; independent of
    the production per-family reductions."""
    alpha, beta, base = symbol.alpha, symbol.beta, symbol.base
    sign = (-1.0) ** (alpha + beta)
    total = 0.0 + 0.0j
    for p in range(cutoff):
        for q in range(cutoff):
            m_pq = moment(base, p, q)
            if m_pq == 0.0:
                continue
            total += (
                math.comb(p + alpha + 1, p)
                * math.comb(q + beta + 1, q)
                * z.conjugate() ** p
                * z**q
                * m_pq
            )
    t = abs(z) ** 2
    return (
        sign
        * int_factorial(alpha + 1)
        * int_factorial(beta + 1)
        * z.conjugate() ** alpha
        * z**beta
        * (1.0 - t) ** 2
        * total
    )


def test_series_point_mass_at_origin_is_total_mass():
    for z0 in (0.0, 0.3, 0.5 + 0.2j):
        assert berezin_series(SymbolSpec(0, 0, PointMass(z0)), 0.0).value == pytest.approx(1.0)


def test_series_vanishes_at_origin_for_one_sided_orders():
    assert berezin_series(SymbolSpec(1, 0, PointMass(0.5)), 0.0).value == 0.0


def test_series_radial_power_matches_double_series_oracle():
    symbol = SymbolSpec(1, 1, RadialPower(s=4.0))
    z = 0.5 + 0.0j
    oracle = _double_series_oracle(symbol, z)
    sample = berezin_series(symbol, z)
    assert sample.value == pytest.approx(oracle, abs=1e-8)
    op = assemble(symbol, 256)
    assert berezin_matrix(op, z).value == pytest.approx(oracle, abs=1e-8)


def test_series_point_mass_matches_double_series_oracle():
    symbol = SymbolSpec(1, 0, PointMass(0.4 + 0.1j))
    z = 0.3 - 0.2j
    oracle = _double_series_oracle(symbol, z, cutoff=200)
    assert berezin_series(symbol, z).value == pytest.approx(oracle, abs=1e-10)


def test_matrix_route_at_origin_returns_top_entry():
    op = assemble(SymbolSpec(1, 1, PointMass(0.5)), 32)
    assert berezin_matrix(op, 0.0).value == op.entries[0, 0]


def test_matrix_route_circle_uniform_geometric_oracle():
    op = assemble(SymbolSpec(0, 0, CircleUniform(0.5)), 64)
    z = 0.3
    y = (abs(z) * 0.5) ** 2
    oracle = (1 - abs(z) ** 2) ** 2 * (1 + y) / (1 - y) ** 3
    assert berezin_matrix(op, z).value == pytest.approx(oracle, rel=1e-12)


def test_matrix_route_point_mass_kernel_norm():
    op = assemble(SymbolSpec(0, 0, PointMass(0.5)), 64)
    assert berezin_matrix(op, 0.5).value == pytest.approx(16.0 / 9.0, rel=1e-12)


@pytest.mark.parametrize(
    "symbol",
    [
        SymbolSpec(0, 0, CircleRadialDerivative(0.5)),
        SymbolSpec(1, 1, CircleUniform(0.6)),
        SymbolSpec(1, 1, RadialPower(s=4.0)),
        SymbolSpec(2, 1, PointMass(0.3 + 0.2j)),
        SymbolSpec(1, 1, Combination(((1.0, RadialPower(s=4.0)), (0.5, PointMass(0.4))))),
        SymbolSpec(0, 0, Combination(((1.0, CircleRadialDerivative(0.5)), (2.0, CircleUniform(0.3))))),
    ],
)
def test_route_agreement_on_grid(symbol):
    op = assemble(symbol, 256)
    for radius in (0.0, 0.3, 0.6, 0.9):
        for k in range(4):
            z = radius * cmath.exp(2j * math.pi * k / 4)
            series = berezin_series(symbol, z)
            matrix = berezin_matrix(op, z)
            tol = 1e-8 + series.est_error + matrix.est_error
            assert abs(series.value - matrix.value) <= tol


def test_reality_and_sign_for_diagonal_nonnegative_symbols():
    for symbol in (
        SymbolSpec(1, 1, PointMass(0.4)),
        SymbolSpec(2, 2, CircleUniform(0.5)),
        SymbolSpec(1, 1, RadialPower(s=4.0)),
    ):
        for z in (0.2, 0.5 + 0.3j, -0.7j):
            v = berezin_series(symbol, z).value
            assert abs(v.imag) <= 1e-12 * max(abs(v), 1.0)
            assert v.real >= -1e-12 * abs(v)


def test_radial_power_integral_representation_matches_brute_series():
    # oracle: the raw coefficient series summed far past convergence
    from scipy.special import gammaln

    def brute(alpha, beta, s, a, t, terms=4000):
        total = 0.0
        for p in range(terms):
            log_m = gammaln(p + a + 1.0) + gammaln(s + 1.0) - gammaln(p + a + s + 2.0)
            total += (
                math.comb(p + alpha + 1, p)
                * math.comb(p + beta + 1, p)
                * t**p
                * math.exp(log_m)
            )
        return total

    for alpha, beta, s, a, t in ((1, 1, 4.0, 0.0, 0.9), (2, 1, 5.5, 0.5, 0.85)):
        production, _ = _radial_power_S(alpha, beta, s, a, t)
        assert production == pytest.approx(brute(alpha, beta, s, a, t), rel=1e-10)


def test_euler_closed_form_matches_scipy_hyp2f1():
    # the circle evaluates 2F1(alpha+2, beta+2; 1; y) by Euler's
    # transformation; oracle: scipy's general-purpose hyp2f1
    from scipy.special import hyp2f1

    rng = np.random.default_rng(9)
    y = np.concatenate([
        rng.uniform(0.0, 1.0, 2000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2000),
        [0.0, 0.5, 0.81, 1.0 - 1e-16],
    ])
    for alpha in range(6):
        for beta in range(3):
            for a, b in ((alpha, beta), (beta, alpha)):
                ref = hyp2f1(a + 2.0, b + 2.0, 1.0, y)
                rel = np.abs(_euler_hyp2f1(a, b, y) - ref) / ref
                assert rel.max() <= 2e-15, (a, b, rel.max())


# integer s - alpha - beta - 2 (the first), near-integer (the next two),
# fractional a, s at and below 0, and high orders
_GATE_PARAMETERS = (
    (1, 1, 4.0, 0.0), (1, 1, 4.001, 0.0), (1, 1, 4.0 + 1e-7, 0.0), (2, 1, 5.5, 0.5), (0, 0, 2.5, -0.5),
    (1, 0, 3.3, 2.3), (0, 0, 0.0, 0.0), (2, 2, -0.5, 0.0), (3, 3, 8.5, 0.0), (8, 8, 20.0, 0.0),
)


def _radial_power_S_reference(alpha, beta, s, a, t, euler=False):
    """S(t) = B(a+1, s+1) 3F2(alpha+2, beta+2, a+1; 1, a+s+2; t) at mpmath's
    working precision and the exact binary values of s, a and t; with
    ``euler`` the same S as the sum over k of binom(alpha+1, k)
    binom(beta+1, k) t^k B(a+k+1, s+1) 2F1(m, a+k+1; a+k+s+2; t), m =
    alpha + beta + 3, from Euler's transformation of the 2F1 under the
    integral."""
    import mpmath

    s, a, t = mpmath.mpf(s), mpmath.mpf(a), mpmath.mpf(t)
    if not euler:
        return mpmath.beta(a + 1, s + 1) * mpmath.hyp3f2(alpha + 2, beta + 2, a + 1, 1, a + s + 2, t)
    return mpmath.fsum(
        math.comb(alpha + 1, k) * math.comb(beta + 1, k) * t**k * mpmath.beta(a + k + 1, s + 1)
        * mpmath.hyp2f1(alpha + beta + 3, a + k + 1, a + k + s + 2, t)
        for k in range(min(alpha, beta) + 2)
    )


@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-12])
def test_radial_power_error_bar_holds_against_mpmath_3f2(gap):
    # 40 digits, from t = 0 to 1 - gap.  mpmath's 3F2 takes seconds near
    # t = 1 at fractional a; there the reference is the Euler form, which
    # is checked against the 3F2 at t = 0.9 first
    import mpmath

    cases = [
        (params, r * r)
        for params in (
            (1, 1, 4.0, 0.0), (0, 0, 2.0, 0.0), (2, 1, 5.0, 0.0),
            (1, 0, 2.5, 0.0), (1, 1, 3.5, 0.5), (2, 2, 6.0, 1.5),
        )
        for r in (0.5, 0.85, 0.92, 0.95, 0.99)
    ] + [
        (params, t)
        for params in _GATE_PARAMETERS
        for t in (0.0, 0.5, 0.81, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - gap)
    ]
    with mpmath.workdps(40):
        for params in _GATE_PARAMETERS:
            euler, direct = (_radial_power_S_reference(*params, 0.9, form) for form in (True, False))
            assert abs(euler / direct - 1) < 1e-30, params
        for params, t in cases:
            ref = _radial_power_S_reference(*params, t, euler=params[3] != int(params[3]) and t > 0.9)
            S, est = _radial_power_S(*params, t)
            assert abs(S[0] - ref) <= est[0], (params, t)


def test_radial_power_node_budget_is_refused_before_any_work():
    # s = 1e6 would need ~4.6e7 nodes per radius; the rule refuses it at once
    start = time.perf_counter()
    with pytest.raises(NumericalFailureError, match="trapezoid nodes"):
        _radial_power_S(1, 1, 1e6, 0.0, np.array([0.5]))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("alpha, beta, s, a", [*_GATE_PARAMETERS, (16, 16, 40.0, 0.0)])
def test_trapezoid_integrand_obeys_its_strip_envelope(alpha, beta, s, a):
    # f(v) = w^(s+1) (eps+w)^-m (1+w)^q P(t/(1+w)), w = eps e^v, the
    # integrand of _radial_power_S, at y = +-0.999 d off the real axis, d =
    # 2 pi/3: |f(v+iy)| <= K f(v) with K = 2^(m + max(0, -q) + deg P), the
    # constant of its error bound; in mpmath, on principal branches
    import mpmath

    m, deg = alpha + beta + 3, min(alpha, beta) + 1
    q = m - a - s - 2
    K = 2.0 ** (m + max(0.0, -q) + deg)
    coeffs = [math.comb(alpha + 1, k) * math.comb(beta + 1, k) for k in range(deg + 1)]

    def f(v, eps):
        w = eps * mpmath.exp(v)
        y = (1 - eps) / (1 + w)
        return w ** (s + 1) * (eps + w) ** -m * (1 + w) ** q * mpmath.fsum(c * y**k for k, c in enumerate(coeffs))

    worst = 0.0
    with mpmath.workdps(30):
        for eps in (0.5, 1e-3, 1e-12):
            for v in np.arange(-40.0, 40.0 - math.log(eps), 0.5):
                real = f(v, eps)
                for y in (0.999 * 2.0 * math.pi / 3.0, -0.999 * 2.0 * math.pi / 3.0):
                    worst = max(worst, float(abs(f(mpmath.mpc(v, y), eps)) / (K * real)))
    assert worst <= 1.0


@pytest.mark.parametrize(
    "alpha, beta, s", [(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.5), (2, 1, -0.5), (16, 16, 40.0)]
)
def test_radial_power_transform_bar_holds_next_to_the_circle(alpha, beta, s):
    # the prefactor times B(1, s+1) 3F2(alpha+2, beta+2, 1; 1, s+2; t) at 40
    # digits and at the exact binary value of each z, up to the fence
    import mpmath

    symbol = SymbolSpec(alpha, beta, RadialPower(s=s))
    sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
    with mpmath.workdps(40):
        for radius in (0.999, 0.99999, 0.999998):
            for angle in (0.0, 0.7, 2.0, 3.5, 5.1):
                z = cmath.rect(radius, angle)
                w = mpmath.mpc(z.real, z.imag)
                t = w.real**2 + w.imag**2
                ref = sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2 * _radial_power_S_reference(
                    alpha, beta, s, 0.0, t
                )
                sample = berezin_series(symbol, z)
                assert abs(mpmath.mpc(sample.value) - ref) <= sample.est_error, z


@pytest.mark.parametrize("alpha, beta, s, a", [(1, 1, 4.0, 0.0), (2, 1, 5.5, 0.5), (0, 0, 2.0, -0.5), (1, 0, 3.3, 2.3)])
def test_radial_power_integral_within_its_estimate_of_mpmath_quadrature(alpha, beta, s, a):
    # S(t) = integral over (0, 1) of x^a (1-x)^s 2F1(alpha+2, beta+2; 1; t x),
    # by 40-digit tanh-sinh quadrature with mpmath's own 2F1, split at 1/2
    # and at 1 - 2^k (1-t) toward the kernel peak
    import mpmath

    with mpmath.workdps(40):
        for t in (0.82, 0.9, 0.99, 1.0 - 1e-6):
            tm, u = mpmath.mpf(t), 1.0 - t
            edges = [1.0 - u * 2.0**k for k in range(int(math.log2(0.5 / u)), -3, -1)]
            ref = mpmath.quad(
                lambda x: x**a * (1 - x) ** s * mpmath.hyp2f1(alpha + 2, beta + 2, 1, tm * x),
                [0.0, 0.5, *edges, 1.0],
            )
            S, est = _radial_power_S(alpha, beta, s, a, t)
            assert abs(S[0] - ref) <= est[0], t


@pytest.mark.parametrize(
    "z0, z",
    [(0.9999, 0.999), (0.999, 0.998), (0.9999, cmath.rect(0.999, 1e-4)), (cmath.rect(0.999, 0.7), cmath.rect(0.998, 0.7))],
)
def test_point_mass_bar_covers_the_conditioning_of_one_minus_conj_z_z0(z0, z):
    # near z0 the rounded product conj(z) z0 moves 1 - conj(z) z0, and the
    # powers -(2+alpha), -(2+beta) amplify it; 40-digit mpmath at the exact
    # binary values of z and z0
    import mpmath

    z, z0 = complex(z), complex(z0)
    with mpmath.workdps(40):
        w, w0 = mpmath.mpc(z.real, z.imag), mpmath.mpc(z0.real, z0.imag)
        t = w.real**2 + w.imag**2
        for alpha in range(3):
            for beta in range(3):
                sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
                ref = complex(
                    sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2
                    * (1 - mpmath.conj(w) * w0) ** -(2 + alpha) * (1 - w * mpmath.conj(w0)) ** -(2 + beta)
                )
                sample = berezin_series(SymbolSpec(alpha, beta, PointMass(z0)), z)
                assert abs(sample.value - ref) <= sample.est_error, (alpha, beta)


@pytest.mark.parametrize("z0", [cmath.rect(0.5, 0.7), 0.95, 0.9999])
def test_point_mass_bar_holds_against_mpmath_up_to_the_circle(z0):
    # the relative term counted from the operations, with the t rounding and
    # the conditioning of the gaps, at 50 digits and at the exact binary
    # value of each z, unfenced out to |z| = 1 - 1e-12, near z0 too
    import mpmath

    radii = (0.0, 0.3, 0.9, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)
    points = [cmath.rect(r, a) for r in radii for a in (0.0, 1e-4, 0.7, 2.0, 3.5)]
    points += [z0 * 0.9999999, z0 * (1.0 + 1e-7), z0 * cmath.exp(1e-6j)]
    with mpmath.workdps(50):
        w0 = mpmath.mpc(complex(z0).real, complex(z0).imag)
        for alpha in range(4):
            for beta in range(4):
                values, bars = _berezin_values(SymbolSpec(alpha, beta, PointMass(z0)), np.array(points))
                sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
                for z, value, bar in zip(points, values, bars):
                    w = mpmath.mpc(z.real, z.imag)
                    t = w.real**2 + w.imag**2
                    ref = (
                        sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2
                        * (1 - mpmath.conj(w) * w0) ** -(2 + alpha) * (1 - w * mpmath.conj(w0)) ** -(2 + beta)
                    )
                    assert abs(value - ref) <= bar, (alpha, beta, z)


def test_radial_power_bar_sums_the_sensitivity_to_t():
    # S'(t) stays bounded as t -> 1 where s + 1 > m, and the bar's term for
    # the rounding of t = |z|^2 is its first order summed from the nodes:
    # 2.2e-10 relative here, where gamma_2 (deg P + m t/(1-t)) S gave 4.1e-9
    import mpmath

    z = 1.0 - 1e-6
    sample = berezin_series(SymbolSpec(16, 16, RadialPower(40.0)), z)
    with mpmath.workdps(50):
        t = mpmath.mpf(z) ** 2
        ref = (math.factorial(17) ** 2 * t**16 * (1 - t) ** 2) * _radial_power_S_reference(16, 16, 40.0, 0.0, t)
        assert abs(sample.value - ref) <= sample.est_error
    assert sample.est_error <= 3e-10 * abs(sample.value)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 1), (2, 1), (3, 3)])
@pytest.mark.parametrize("s", [4.0, 8.5])
def test_radial_power_S_bar_holds_up_to_the_circle(alpha, beta, s):
    # 50 digits, t from 0.5 to 1 - 1e-12; where s >= m S' is bounded and the
    # bar stays near the rounding, 1e-13 relative, all the way
    import mpmath

    with mpmath.workdps(50):
        for t in (0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            S, est = _radial_power_S(alpha, beta, s, 0.0, t)
            assert abs(S[0] - _radial_power_S_reference(alpha, beta, s, 0.0, t)) <= est[0], t
            if s >= alpha + beta + 3:
                assert est[0] <= 1e-13 * S[0], t


_FENCE_RADII = (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - BOUNDARY_MARGIN)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 1), (2, 1), (1, 0), (3, 3), (0, 4)])
def test_circle_closed_form_bar_holds_against_mpmath_2f1(alpha, beta):
    # the transform is the prefactor times 2F1(alpha+2, beta+2; 1; |z|^2 r0^2),
    # at 40 digits and at the exact binary value of each z, up to the fence
    import mpmath

    sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
    with mpmath.workdps(40):
        for r0 in (0.3, 0.6, 0.9, 0.99, 0.999):
            symbol = SymbolSpec(alpha, beta, CircleUniform(r0))
            for radius in _FENCE_RADII:
                for z in (complex(radius), cmath.rect(radius, 0.7), cmath.rect(radius, 2.0)):
                    if abs(z) > 1.0 - BOUNDARY_MARGIN:
                        continue
                    w = mpmath.mpc(z.real, z.imag)
                    t = w.real**2 + w.imag**2
                    ref = complex(
                        sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2
                        * mpmath.hyp2f1(alpha + 2, beta + 2, 1, t * mpmath.mpf(r0) ** 2)
                    )
                    sample = berezin_series(symbol, z)
                    assert abs(sample.value - ref) <= sample.est_error, (r0, z)


def test_circle_derivative_closed_form_bar_holds_against_mpmath_nsum():
    # minus (1-t)^2 (2/r0) sum_{p>=1} p (p+1)^2 y^p, y = |z|^2 r0^2, summed by
    # mpmath at 40 digits at the exact binary value of each z
    import mpmath

    with mpmath.workdps(40):
        for r0 in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999):
            symbol = SymbolSpec(0, 0, CircleRadialDerivative(r0))
            for radius in _FENCE_RADII:
                for z in (complex(radius), cmath.rect(radius, 1.1)):
                    if abs(z) > 1.0 - BOUNDARY_MARGIN:
                        continue
                    t = mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
                    y = t * mpmath.mpf(r0) ** 2
                    series = mpmath.nsum(lambda p: p * (p + 1) ** 2 * y**p, [1, mpmath.inf])
                    ref = float(-((1 - t) ** 2) * 2 / mpmath.mpf(r0) * series)
                    sample = berezin_series(symbol, z)
                    assert abs(sample.value - ref) <= sample.est_error, (r0, z)


@pytest.mark.parametrize("kind", ["point_mass", "circle"])
@pytest.mark.parametrize("gap", [1e-8, 1e-12, 1e-15])
def test_bar_holds_where_two_terms_nearly_cancel(kind, gap):
    # the prefactor's rounding is relative to the value, the prefactor
    # times the combined sum, so it stays small where the terms cancel;
    # each term's sum carries its own bar.  50 digits, at the exact binary
    # value of each z and of each atom's parameter
    import mpmath

    if kind == "point_mass":
        first, second = PointMass(cmath.rect(0.5, 0.7)), PointMass(cmath.rect(0.5, 0.7) + gap)
    else:
        first, second = CircleUniform(0.6), CircleUniform(0.6 + gap)
    points = [cmath.rect(r, a) for r in (0.0, 0.3, 0.9, 0.99, 0.999, 0.9999) for a in (0.0, 0.7, 2.0)]
    with mpmath.workdps(50):

        def S(atom, alpha, beta, w, t):
            if kind == "circle":
                return mpmath.hyp2f1(alpha + 2, beta + 2, 1, t * mpmath.mpf(atom.r0) ** 2)
            w0 = mpmath.mpc(atom.z0.real, atom.z0.imag)
            return (1 - mpmath.conj(w) * w0) ** -(2 + alpha) * (1 - w * mpmath.conj(w0)) ** -(2 + beta)

        for c in (1.0, 0.7 - 0.2j):
            for alpha in range(4):
                for beta in range(4):
                    symbol = SymbolSpec(alpha, beta, Combination(((c, first), (-c, second))))
                    values, bars = _berezin_values(symbol, np.array(points))
                    sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
                    for z, value, bar in zip(points, values, bars):
                        w = mpmath.mpc(z.real, z.imag)
                        t = w.real**2 + w.imag**2
                        prefactor = sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2
                        cm = mpmath.mpc(c.real, c.imag)
                        ref = prefactor * cm * (S(first, alpha, beta, w, t) - S(second, alpha, beta, w, t))
                        assert abs(value - ref) <= bar, (c, alpha, beta, z)


@pytest.mark.parametrize(
    "symbol",
    [
        SymbolSpec(0, 0, PointMass(0.3 + 0.2j)),
        SymbolSpec(1, 1, PointMass(0.3 + 0.2j)),
        SymbolSpec(1, 0, PointMass(0.3 + 0.2j)),
        SymbolSpec(1, 1, RadialPower(s=4.0)),
        SymbolSpec(0, 0, RadialPower(s=2.0)),
        SymbolSpec(2, 1, RadialPower(s=5.0)),
    ],
)
def test_bar_covers_the_rounding_of_t_next_to_the_fence(symbol):
    # at |z| = 1 - 1e-6 the rounding of t = |z|^2 moves (1-t)^2 by 2 eps/(1-t)
    # relative; 40-digit mpmath at the exact binary value of each z
    import mpmath

    alpha, beta, base = symbol.alpha, symbol.beta, symbol.base
    sign = (-1) ** (alpha + beta) * math.factorial(alpha + 1) * math.factorial(beta + 1)
    with mpmath.workdps(40):
        for z in (complex(1.0 - BOUNDARY_MARGIN), cmath.rect(1.0 - BOUNDARY_MARGIN, 0.7)):
            w = mpmath.mpc(z.real, z.imag)
            t = w.real**2 + w.imag**2
            prefactor = sign * mpmath.conj(w) ** alpha * w**beta * (1 - t) ** 2
            if base.kind == "point_mass":
                z0 = mpmath.mpc(base.z0.real, base.z0.imag)
                S = (1 - mpmath.conj(w) * z0) ** -(2 + alpha) * (1 - w * mpmath.conj(z0)) ** -(2 + beta)
            else:
                S = mpmath.beta(base.a + 1, base.s + 1) * mpmath.hyp3f2(
                    alpha + 2, beta + 2, base.a + 1, 1, base.a + base.s + 2, t
                )
            sample = berezin_series(symbol, z)
            assert abs(sample.value - complex(prefactor * S)) <= sample.est_error, z


def test_weighted_transform_fixes_constants():
    for alpha in (0, 1, 3):
        for z in (0.0, 0.5, 0.3 + 0.4j):
            assert weighted_berezin_radial((0.0, 0.0), alpha, z) == pytest.approx(
                1.0, rel=1e-9
            )


def test_weighted_transform_linear_weight_at_origin():
    assert weighted_berezin_radial((1.0, 0.0), 0, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_weighted_transform_identity_with_diagonal_symbol():
    # transform of the weight (1-t)^(2k) with orders alpha = beta equals
    # alpha! (alpha+1)! t^alpha (1-t)^(-alpha) times the weighted transform
    # of (1-t)^(2k - alpha)
    k, alpha = 2, 1
    symbol = SymbolSpec(alpha, alpha, RadialPower(s=2.0 * k))
    for z in (0.1, 0.4, 0.3 + 0.35j, 0.6j):
        t = abs(z) ** 2
        lhs = berezin_series(symbol, z).value
        rhs = (
            int_factorial(alpha)
            * int_factorial(alpha + 1)
            * t**alpha
            * (1 - t) ** -alpha
            * weighted_berezin_radial((2.0 * k - alpha, 0.0), alpha, z)
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_weighted_transform_rejects_non_integrable_weights():
    # A^2_alpha needs alpha > -1, and the weight (1-|w|^2)^m_exp needs
    # m_exp + alpha > -1; a non-finite input is rejected before any term
    for f_spec, alpha in [
        ((-1.5, 0.0), 0),
        ((3.0, 0.0), -1),
        ((3.0, 0.0), -2),
        ((3.0, 0.0), math.nan),
        ((math.inf, 0.0), 0),
        ((0.0, math.inf), 0),
        ((0.0, 0.0), math.inf),
    ]:
        start = time.perf_counter()
        with pytest.raises(ValueError):
            weighted_berezin_radial(f_spec, alpha, 0.5)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 3])
def test_weighted_transform_matches_mpmath_hypergeometric(alpha):
    # (alpha+1) (1-t)^(2+alpha) B(a+1, m+alpha+1)
    #   3F2(alpha+2, alpha+2, a+1; 1, a+m+alpha+2; t) at 50 digits; the term
    # ratios approach t from above when m_exp < alpha + 1 and from below
    # when m_exp > alpha + 1
    import mpmath

    pairs = [(-0.5, 0.0), (0.0, 0.0), (0.3, -0.5), (1.0, 0.0), (2.5, 0.5), (4.0, 0.0), (6.0, 2.0)]
    with mpmath.workdps(50):
        for m_exp, a_exp in pairs:
            for z in (0.0, 0.3, 0.6, 0.3 + 0.5j, 0.8j, 0.9, 0.95, 0.99):
                t = mpmath.mpf(abs(z)) ** 2
                exact = (
                    (alpha + 1)
                    * (1 - t) ** (2 + alpha)
                    * mpmath.beta(a_exp + 1, m_exp + alpha + 1)
                    * mpmath.hyp3f2(alpha + 2, alpha + 2, a_exp + 1, 1, a_exp + m_exp + alpha + 2, t)
                )
                value = weighted_berezin_radial((m_exp, a_exp), alpha, z)
                assert abs(value - complex(exact)) <= 1e-13 * abs(exact), (m_exp, a_exp, z)


def test_invariant_integral_radial_polynomials():
    r = invariant_integral(lambda z: ((1 - abs(z) ** 2) ** 2, 0.0), (0j, 0), 1.0)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)
    assert abs(r.value - 1.0) <= r.est_error and r.boundary_tail > 0.0
    r = invariant_integral(lambda z: ((1 - abs(z) ** 2) ** 3, 0.0), (0j, 0), 1.0)
    assert r.value.real == pytest.approx(0.5, abs=1e-8)
    assert abs(r.value - 0.5) <= r.est_error


def test_invariant_integral_non_radial_kernel_norm():
    sampler = lambda z: ((1 - abs(z) ** 2) ** 2 * abs(1 - z.conjugate() * 0.5) ** -4, 0.0)
    # the point mass's transform at (0, 0): degree 1 on the rule mapped around 0.5
    r = invariant_integral(sampler, (0.5, 1), 1.0)
    assert r.value.real == pytest.approx(16.0 / 9.0, abs=1e-7)


def test_invariant_integral_linearity():
    f = lambda z: (1 - abs(z) ** 2) ** 2
    g = lambda z: (1 - abs(z) ** 2) ** 3
    combined = invariant_integral(lambda z: (2.0 * f(z) + 3.0 * g(z), 0.0), (0j, 0), 1.0)
    separate = (
        2.0 * invariant_integral(lambda z: (f(z), 0.0), (0j, 0), 1.0).value
        + 3.0 * invariant_integral(lambda z: (g(z), 0.0), (0j, 0), 1.0).value
    )
    assert combined.value == pytest.approx(separate, abs=1e-8)


def test_boundary_guards():
    with pytest.raises(BoundaryError):
        berezin_series(SymbolSpec(0, 0, PointMass(0.0)), 0.9999999)
    with pytest.raises(BoundaryError):
        berezin_matrix(assemble(SymbolSpec(0, 0, PointMass(0.0)), 8), 1.0 - 1e-9)
    with pytest.raises(BoundaryError):
        weighted_berezin_radial((0.0, 0.0), 0, 1.0 - 1e-9)


@pytest.mark.parametrize("z", [complex("nan"), complex(0.3, math.nan), complex(math.inf, 0.0)])
def test_non_finite_points_are_outside_the_fence(z):
    symbol = SymbolSpec(1, 1, PointMass(0.3))
    with pytest.raises(BoundaryError):
        berezin_series(symbol, z)
    with pytest.raises(BoundaryError):
        berezin_matrix(assemble(symbol, 8), z)
    with pytest.raises(BoundaryError):
        weighted_berezin_radial((0.0, 0.0), 0, z)
    with pytest.raises(BoundaryError):
        d_alpha_beta_eval(z, 1, 1)


_BUFFER_BYTES = 16.0 * 4096 * 4096


@pytest.mark.parametrize(
    "base",
    [
        PointMass(0.6 + 0.3j),
        RadialPower(4.0),
        Combination(((1.0, PointMass(0.6 + 0.3j)), (0.5, CircleUniform(0.5)))),
    ],
    ids=["point_mass", "radial_power", "point_plus_circle"],
)
def test_matrix_route_at_the_cap_builds_no_dense_buffer(base):
    tracemalloc.start()
    try:
        op = assemble(SymbolSpec(1, 1, base), 4096)
        for z in (0.3, 0.5 + 0.4j, 0.95):
            berezin_matrix(op, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * _BUFFER_BYTES
    assert "entries" not in vars(op)


# every atom kind, a combination, alpha != beta, z = 0, and radii from the
# origin to |z| = 0.999, some shared so that one diagonal sum serves
# several points
_BATCH_SYMBOLS = [
    SymbolSpec(1, 1, RadialPower(s=4.0)),
    SymbolSpec(2, 1, RadialPower(s=5.5, a=0.5)),
    SymbolSpec(1, 0, PointMass(0.4 + 0.1j)),
    SymbolSpec(2, 1, CircleUniform(0.6)),
    SymbolSpec(0, 0, CircleRadialDerivative(0.5)),
    SymbolSpec(
        1,
        2,
        Combination(
            ((1.0, RadialPower(s=4.0)), (0.5j, PointMass(0.3 - 0.2j)), (2.0, CircleUniform(0.3)))
        ),
    ),
]
_BATCH_POINTS = np.array(
    [0.0, 0.3, -0.3, 0.3j, -0.5 + 0.2j, 0.899j, 0.9, 0.901, -0.7 - 0.6j, 0.6 + 0.7j, 0.95, 0.999j]
)

# the rule's abscissae in v = ln(t/(1-t)), and its radii sqrt(t)
_RULE_V = -37.0 + 0.25 * np.arange(285)
_RULE_RADII = np.sqrt(1.0 / (1.0 + np.exp(-_RULE_V)))


@pytest.mark.parametrize(
    "symbol, points",
    [pytest.param(symbol, _BATCH_POINTS, id=f"symbol{k}") for k, symbol in enumerate(_BATCH_SYMBOLS)]
    # the invariant integral's 285 radii in one batch: a wide batch must
    # not change the order in which any point's radial power sums add up
    + [
        pytest.param(SymbolSpec(1, 1, RadialPower(s=4.0)), _RULE_RADII, id="radial-1-1-rule-radii"),
        pytest.param(SymbolSpec(0, 0, RadialPower(s=1.3)), _RULE_RADII, id="radial-0-0-rule-radii"),
        # a fractional a: neighbouring radii fall in different node windows
        # here as in the two above (test_rule_radii_cross_node_windows_and_tiles)
        pytest.param(SymbolSpec(2, 1, RadialPower(s=3.0, a=0.5)), _RULE_RADII, id="radial-2-1-rule-radii"),
        # windows of 768 to 1024 nodes: the 157 radii of the first fill
        # sixteen tiles of the reused buffers, the last one partial
        pytest.param(SymbolSpec(16, 16, RadialPower(s=40.0)), _RULE_RADII, id="radial-16-16-rule-radii"),
        pytest.param(
            SymbolSpec(2, 1, Combination(((1.0, PointMass(0.4 + 0.1j)), (0.5j, PointMass(-0.7j))))),
            _BATCH_POINTS,
            id="two-point-masses",
        ),
    ],
)
def test_array_sampler_matches_one_point_calls_bitwise(symbol, points):
    values, errors = _berezin_values(symbol, points)
    assert values.shape == errors.shape == points.shape
    for k, z in enumerate(points):
        one_value, one_error = _berezin_values(symbol, points[k : k + 1])
        assert one_value.tobytes() == values[k : k + 1].tobytes()
        assert one_error.tobytes() == errors[k : k + 1].tobytes()
        if abs(z) <= 1.0 - BOUNDARY_MARGIN:
            sample = berezin_series(symbol, z)
            assert sample.value == values[k] and sample.est_error == errors[k]
    grid, grid_errors = _berezin_values(symbol, points.reshape(3, -1))
    assert grid.tobytes() == values.tobytes() and grid_errors.tobytes() == errors.tobytes()


def _tile_shapes(params, t):
    """(rows, nodes) of each tile that one ``_radial_power_S`` call at the
    array ``t`` sums: the shape of every 2-d array it hands np.cumsum."""
    shapes, cumsum = [], np.cumsum

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 2:
            shapes.append(a.shape)
        return cumsum(a, *args, **kwargs)

    np.cumsum = recording
    try:
        _radial_power_S(*params, t)
    finally:
        np.cumsum = cumsum
    return shapes


def test_rule_radii_cross_node_windows_and_tiles():
    # the 285-radius batches of the test above: each t has its own node
    # window, so the rule radii span several, and one window's rows may
    # fill several tiles of at most 2^13 floats
    for params in ((1, 1, 4.0, 0.0), (0, 0, 1.3, 0.0), (2, 1, 3.0, 0.5)):
        shapes = _tile_shapes(params, _RULE_RADII**2)
        assert len({n for _, n in shapes}) >= 4, params
        assert all(rows * n <= 2**13 for rows, n in shapes), params
    widths = [n for _, n in _tile_shapes((16, 16, 40.0, 0.0), _RULE_RADII**2)]
    assert max(widths.count(n) for n in widths) >= 16


def _window_steps(params):
    """Pairs of adjacent floats t < t' where one-point calls change node
    window, found by bisection on a grid in ln(1/(1-t)) up to the largest
    float below 1."""
    width = lambda t: _tile_shapes(params, np.array([t]))[0][1]
    grid = np.append(-np.expm1(-np.arange(0.0, 36.5, 0.5)), 1.0 - 2.0**-53)
    steps = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        if width(lo) == width(hi):
            continue
        while np.nextafter(lo, 1.0) < hi:
            mid = lo + (hi - lo) / 2.0
            lo, hi = (mid, hi) if width(mid) == width(lo) else (lo, mid)
        steps.append((lo, hi))
    return steps


@pytest.mark.parametrize("params", [(1, 1, 4.0, 0.0), (0, 0, 1.3, 0.0), (2, 1, 3.0, 0.5), (1, 0, 3.3, 2.3)])
def test_radial_power_S_bar_holds_on_both_sides_of_each_window_step(params):
    # each t's last node is set by its own upper tail bound, so the bar
    # rests on that bound at t just short of a step, where the window is
    # shortest for its t (at a = 2.3 the window ends closest to the bulk);
    # 50 digits at every step up to t = 1 - 1e-12 and there (the Euler form
    # of the reference past t = 0.9 at fractional a)
    import mpmath

    steps = [pair for pair in _window_steps(params) if pair[1] <= 1.0 - 1e-12]
    assert len(steps) >= 3
    with mpmath.workdps(50):
        for t in [x for pair in steps for x in pair] + [1.0 - 1e-12]:
            S, est = _radial_power_S(*params, t)
            ref = _radial_power_S_reference(*params, t, euler=params[3] != int(params[3]) and t > 0.9)
            assert abs(S[0] - ref) <= est[0], t


def test_radial_power_scratch_stays_under_a_megabyte():
    # three buffers of at most 2^13 floats serve every tile, so the widest
    # batch of the trace route at the deepest order in the tests stays small
    tracemalloc.start()
    try:
        _radial_power_S(16, 16, 40.0, 0.0, _RULE_RADII**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("z0", [0.5, -0.5, 0.5j, complex(0.5, -0.0), 0.2 + 0.2j, cmath.rect(0.9999, 0.7)])
def test_point_mass_transform_forms_both_gaps_from_one_product_bitwise(z0):
    # 1 - z conj(z0) is read off the product conj(z) z0: the values equal
    # the two-product form to the bit, signed zeros on the axes included
    parts = [0.0, -0.0, 0.3, -0.3, 0.7]
    z = np.array([complex(a, b) for a in parts for b in parts] + list(_BATCH_POINTS))
    t = (z * z.conjugate()).real
    for alpha, beta in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)]:
        value, _ = PointMass(z0).berezin(alpha, beta, z, t)
        reference = _ipow(1.0 - z.conjugate() * z0, -(2 + alpha)) * _ipow(1.0 - z * z0.conjugate(), -(2 + beta))
        assert value.tobytes() == reference.tobytes(), (alpha, beta)


def _on_the_rule(f):
    """A radial sampler whose circle average at each radius of the rule is
    f(v) e^-v, f an mpmath function of v: the rounded t of a node keeps
    only a few digits of 1 - t near v = 34, so v is read back from the
    node and snapped to the rule's grid of step 1/4."""
    import mpmath

    def sampler(z):
        t = np.abs(z) ** 2
        v = np.round((np.log(t) - np.log1p(-t)) * 4.0) / 4.0
        return np.array([[complex(f(mpmath.mpf(x)) * mpmath.exp(-x)) for x in row] for row in v]), 0.0

    return sampler


def test_invariant_integral_is_the_quarter_step_rule_with_the_half_step_gap():
    # f(v) = exp(-(v/0.15)^2): the step 1/2 rule misses its integral
    # 0.15 sqrt(pi) by ~3%, the step 1/4 rule by ~1e-6; the value is 1/4
    # the sum over the rule, the quadrature error at least the gap between
    # the two, and the bar covers the integral
    import mpmath

    f = lambda v: mpmath.exp(-((v / 0.15) ** 2))
    r = invariant_integral(_on_the_rule(f), (0j, 0), 1.0)
    terms = [float(f(mpmath.mpf(v))) for v in _RULE_V]
    quarter, half = 0.25 * math.fsum(terms), 0.5 * math.fsum(terms[::2])
    assert r.value.real == pytest.approx(quarter, rel=1e-15) and r.value.imag == 0.0
    assert abs(quarter - half) <= r.quad_error <= abs(quarter - half) * (1.0 + 1e-12)
    assert abs(r.value - 0.15 * math.sqrt(math.pi)) <= r.est_error
    assert abs(half - 0.15 * math.sqrt(math.pi)) > 1e-3


@pytest.mark.parametrize("rate, shift", [(1.0, 0.0), (1.0, -3.0), (1.0, -12.0), (0.3, 0.0), (0.05, 0.0)])
def test_invariant_integral_tail_bounds_cover_the_cut_off_tails(rate, shift):
    # f = t u^rate, and f = t u (ln(1/u) + shift) at rate 1, whose tail
    # past v = 34 is f(34) (1 + 1/(34 + shift)): neither f(34)/rate nor, for
    # shift < 0, f(34) (1 + 1/34) bounds it.  shift = -3 is the radial power
    # s = 4 at (1, 1), whose transform is 24 t u (ln(1/u) - 3) to leading order
    import mpmath

    def f(v):
        t, u = 1 / (1 + mpmath.exp(-v)), 1 / (1 + mpmath.exp(v))
        return t * u**rate if rate != 1.0 else t * u * (shift - mpmath.log(u))

    with mpmath.workdps(30):
        r = invariant_integral(_on_the_rule(f), (0j, 0), rate)
        below, above = (abs(mpmath.quad(f, edges)) for edges in ([-mpmath.inf, -37], [34, mpmath.inf]))
        end = f(mpmath.mpf(34))
    assert below + above <= r.boundary_tail <= (below + above) * (1.0 + 2.0 / 34.0)
    if rate == 1.0:
        assert end / rate < above
    if shift < 0.0:
        assert end * (1.0 + 1.0 / 34.0) < above


@pytest.mark.parametrize("circle", [(0j, 0), (0j, 3), (0.5j, 1)])
def test_invariant_integral_adds_the_samples_error_bars_through_its_weights(circle):
    # a bar of 1e-6 |f| at every sample adds 1e-6 times the integral of |f|,
    # here of f itself, positive: the circle and trapezoid weights are positive
    f = lambda z: (1 - abs(z) ** 2) ** 2 * abs(1 - z.conjugate() * 0.5j) ** -4
    exact = invariant_integral(lambda z: (f(z), 0.0), circle, 1.0)
    barred = invariant_integral(lambda z: (f(z), 1e-6 * f(z)), circle, 1.0)
    assert barred.value == exact.value
    assert barred.quad_error - exact.quad_error == pytest.approx(1e-6 * exact.value.real, rel=1e-9)


class _RecordingSampler:
    """Records every batch handed to the sampler."""

    def __init__(self, f):
        self.f = f
        self.batches = []

    def __call__(self, z):
        self.batches.append(z)
        return self.f(z)


def test_invariant_integral_radial_hint_samples_the_mesh_in_one_call():
    # degree 0 about centre 0: one node per circle, z = r on the real axis
    sampler = _RecordingSampler(lambda z: ((1 - abs(z) ** 2) ** 2, 0.0))
    r = invariant_integral(sampler, (0j, 0), 1.0)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)
    (z,) = sampler.batches
    assert isinstance(z, np.ndarray) and z.shape == (285, 1) and r.samples == 285
    assert z.ravel().tobytes() == _RULE_RADII.astype(complex).tobytes()


# a trigonometric polynomial of degree 63 averages exactly on 64 nodes
def _degree_63(z):
    w = 1 - abs(z) ** 2
    return w**2 * (1.0 + z**3 + 2.0 * z.conjugate() ** 63 + (z * z.conjugate()) ** 5), 0.0


def test_invariant_integral_samples_each_circle_once_at_its_degree():
    # the plain rule's 64 nodes on all 285 circles in one call, the first
    # node of each on the radii that degree 0 samples
    sampler = _RecordingSampler(_degree_63)
    r = invariant_integral(sampler, (0j, 63), 1.0)
    radial = _RecordingSampler(lambda z: ((1 - abs(z) ** 2) ** 2 * (1.0 + abs(z) ** 10), 0.0))
    oracle = invariant_integral(radial, (0j, 0), 1.0)
    (z,) = sampler.batches
    assert z.shape == (285, 64) and r.samples == 285 * 64
    assert np.array_equal(z[:, 0], radial.batches[0].ravel())
    assert abs(r.value - oracle.value) <= 1e-13


@pytest.mark.parametrize(
    "circle",
    [(2.0, 1), (1.0, 0), (-1j, 1), (complex(math.nan, 0.0), 1), (complex(math.inf, 0.0), 0),
     (0j, -3), (0j, 2.5), (0j, True), (0j, 64), (0.5, 1.0)],
)
def test_invariant_integral_rejects_a_bad_circle_rule_before_sampling(circle):
    sampler = _RecordingSampler(lambda z: ((1 - abs(z) ** 2) ** 2, 0.0))
    with pytest.raises(ValueError, match="circle rule"):
        invariant_integral(sampler, circle, 1.0)
    assert sampler.batches == []


@pytest.mark.parametrize("decay", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_invariant_integral_rejects_a_bad_decay_before_sampling(decay):
    sampler = _RecordingSampler(lambda z: ((1 - abs(z) ** 2) ** 2, 0.0))
    with pytest.raises(ValueError, match="decay rate must be finite and positive"):
        invariant_integral(sampler, (0j, 0), decay)
    assert sampler.batches == []


def test_invariant_integral_fails_on_a_divergent_boundary():
    # h = 1 - |z|^2 makes f = t, which tends to 1: at a slow stated decay the
    # bound on the tail past v = 34 exceeds the sampled mass, the rule's sum
    # ln(1 + e^34) + f(34)/8 read from the sampled 1 - |z|^2, which keeps
    # only a few digits of u near v = 34
    for decay in (1e-2, 1e-3):
        with pytest.raises(NumericalFailureError, match="tail bound") as info:
            invariant_integral(lambda z: (1 - abs(z) ** 2, 0.0), (0j, 0), decay)
        assert 34.0 < info.value.partial.real < 34.25
        assert info.value.achieved > 1.0 / decay


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 1), (2, 1), (3, 2), (0, 7), (16, 16), (20, 12)])
@pytest.mark.parametrize("modulus", [0.4, 0.9, 0.99])
def test_mapped_circle_rule_is_exact_from_its_start_nodes(alpha, beta, modulus):
    # on the rule mapped around z0 the point mass's transform times the
    # weight is a Laurent polynomial of degree 1 + max(alpha, beta), so the
    # rule invariant_integral samples, the smallest power of two above it,
    # agrees with a 1024-node rule to the rounding of the sum and of the
    # sampled values; half as many nodes do not
    z0 = cmath.rect(modulus, 0.7)
    ((c, atom, centre, degree),) = PointMass(z0).circle_rules(alpha, beta)
    assert (c, atom, centre, degree) == (1.0, PointMass(z0), z0, 1 + max(alpha, beta))
    start = 1 << degree.bit_length()
    symbol = SymbolSpec(alpha, beta, atom)
    u = np.finfo(float).eps / 2.0

    def average(n, r):
        z, weights = _circle_rule(np.array([r]), centre, n, np.arange(n))
        values, bars = _berezin_values(symbol, z)
        terms = weights * values / n
        return terms.sum(), np.abs(terms).max(), (weights * bars).sum() / n

    for r in (0.5, 0.97, 0.999):
        exact, biggest, exact_bar = average(1024, r)
        got, _, bar = average(start, r)
        bound = 4.0 * 1024 * u * biggest + exact_bar + bar
        assert abs(got - exact) <= bound, r
        assert abs(average(start // 2, r)[0] - exact) > bound, r
