"""Berezin transform routes, the weighted radial transform, and the
invariant-measure quadrature."""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from bergtoep.berezin import (
    _berezin_values,
    _euler_hyp2f1,
    _radial_power_S,
    berezin_matrix,
    berezin_series,
    invariant_integral,
    weighted_berezin_radial,
)
from bergtoep.bergman import BOUNDARY_MARGIN, d_alpha_beta_eval
from bergtoep.errors import BoundaryError
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
    sample = berezin_series(symbol, z, tol=1e-12)
    assert sample.value == pytest.approx(oracle, abs=1e-8)
    op = assemble(symbol, 256)
    assert berezin_matrix(op, z).value == pytest.approx(oracle, abs=1e-8)


def test_series_point_mass_matches_double_series_oracle():
    symbol = SymbolSpec(1, 0, PointMass(0.4 + 0.1j))
    z = 0.3 - 0.2j
    oracle = _double_series_oracle(symbol, z, cutoff=200)
    assert berezin_series(symbol, z, tol=1e-12).value == pytest.approx(oracle, abs=1e-10)


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
            series = berezin_series(symbol, z, tol=1e-10)
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
            v = berezin_series(symbol, z, tol=1e-11).value
            assert abs(v.imag) <= 1e-12 * max(abs(v), 1.0)
            assert v.real >= -1e-12 * abs(v)


def test_radial_power_integral_representation_matches_brute_series():
    # beyond t = 0.81 production switches to the hypergeometric integral;
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
        production, _ = _radial_power_S(alpha, beta, s, a, t, 1e-12)
        assert production == pytest.approx(brute(alpha, beta, s, a, t), rel=1e-10)


def test_euler_closed_form_matches_scipy_hyp2f1():
    # the hypergeometric branch evaluates 2F1(alpha+2, beta+2; 1; y) by
    # Euler's transformation; oracle: scipy's general-purpose hyp2f1
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


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_radial_power_error_bar_holds_against_mpmath_3f2(tol):
    # S(t) = B(a+1, s+1) 3F2(alpha+2, beta+2, a+1; 1, a+s+2; t) at 40
    # digits; radii on the series side (t <= 0.81) and past the handover
    import mpmath

    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for alpha, beta, s, a in (
            (1, 1, 4.0, 0.0), (0, 0, 2.0, 0.0), (2, 1, 5.0, 0.0),
            (1, 0, 2.5, 0.0), (1, 1, 3.5, 0.5), (2, 2, 6.0, 1.5),
        ):
            for r in (0.5, 0.85, 0.92, 0.95, 0.99):
                t = r * r
                ref = float(
                    mpmath.beta(a + 1, s + 1)
                    * mpmath.hyp3f2(alpha + 2, beta + 2, a + 1, 1, a + s + 2, t)
                )
                S, est = _radial_power_S(alpha, beta, s, a, t, tol)
                assert abs(S[0] - ref) <= est[0] + 16.0 * eps * abs(ref), (alpha, beta, s, a, r)


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


def test_radial_power_branches_are_continuous_at_handover():
    s_below, _ = _radial_power_S(1, 1, 4.0, 0.0, 0.809999, 1e-13)
    s_above, _ = _radial_power_S(1, 1, 4.0, 0.0, 0.810001, 1e-13)
    assert s_above == pytest.approx(s_below, rel=1e-4)


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
        lhs = berezin_series(symbol, z, tol=1e-12).value
        rhs = (
            int_factorial(alpha)
            * int_factorial(alpha + 1)
            * t**alpha
            * (1 - t) ** -alpha
            * weighted_berezin_radial((2.0 * k - alpha, 0.0), alpha, z, tol=1e-12)
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_weighted_transform_rejects_non_integrable_weights():
    with pytest.raises(ValueError):
        weighted_berezin_radial((-1.5, 0.0), 0, 0.3)


def test_invariant_integral_radial_polynomials():
    r = invariant_integral(lambda z: (1 - abs(z) ** 2) ** 2, True, 1e-8)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)
    assert r.boundary_tail > 0.0
    r = invariant_integral(lambda z: (1 - abs(z) ** 2) ** 3, True, 1e-8)
    assert r.value.real == pytest.approx(0.5, abs=1e-8)


def test_invariant_integral_non_radial_kernel_norm():
    sampler = lambda z: (1 - abs(z) ** 2) ** 2 * abs(1 - z.conjugate() * 0.5) ** -4
    r = invariant_integral(sampler, False, 1e-8)
    assert r.value.real == pytest.approx(16.0 / 9.0, abs=1e-7)


def test_invariant_integral_linearity():
    f = lambda z: (1 - abs(z) ** 2) ** 2
    g = lambda z: (1 - abs(z) ** 2) ** 3
    combined = invariant_integral(lambda z: 2.0 * f(z) + 3.0 * g(z), True, 1e-9)
    separate = (
        2.0 * invariant_integral(f, True, 1e-9).value
        + 3.0 * invariant_integral(g, True, 1e-9).value
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_tolerances_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        berezin_series(SymbolSpec(1, 1, RadialPower(s=4.0)), 0.3, tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        invariant_integral(lambda z: 1.0, True, tol=tol)


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


# every atom kind, a combination, alpha != beta, z = 0, and points on both
# sides of the series/hypergeometric handover at |z|^2 = 0.81, some sharing
# a radius so that one diagonal sum serves several points
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


@pytest.mark.parametrize("symbol", _BATCH_SYMBOLS)
def test_array_sampler_matches_one_point_calls_bitwise(symbol):
    values, errors = _berezin_values(symbol, _BATCH_POINTS, 1e-10)
    assert values.shape == errors.shape == _BATCH_POINTS.shape
    for k, z in enumerate(_BATCH_POINTS):
        one_value, one_error = _berezin_values(symbol, _BATCH_POINTS[k : k + 1], 1e-10)
        assert one_value.tobytes() == values[k : k + 1].tobytes()
        assert one_error.tobytes() == errors[k : k + 1].tobytes()
        sample = berezin_series(symbol, z, tol=1e-10)
        assert sample.value == values[k] and sample.est_error == errors[k]
    grid, grid_errors = _berezin_values(symbol, _BATCH_POINTS.reshape(3, 4), 1e-10)
    assert grid.tobytes() == values.tobytes() and grid_errors.tobytes() == errors.tobytes()


class _RecordingSampler:
    """Records every batch handed to the sampler."""

    def __init__(self, f):
        self.f = f
        self.batches = []

    def __call__(self, z):
        self.batches.append(z)
        return self.f(z)


def test_invariant_integral_radial_hint_samples_one_panel_per_call():
    sampler = _RecordingSampler(lambda z: (1 - abs(z) ** 2) ** 2)
    r = invariant_integral(sampler, True, 1e-8)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)
    assert len(sampler.batches) >= 4
    for z in sampler.batches:
        assert isinstance(z, np.ndarray) and z.shape == (24,)
        assert np.all(z.imag == 0.0)


def test_invariant_integral_angular_nodes_are_reused_across_doublings():
    # a trigonometric polynomial of degree below 64 averages exactly on the
    # first 64 nodes, so every radius stops at its first doubling
    def f(z):
        w = 1 - abs(z) ** 2
        return w**2 * (1.0 + z**3 + 2.0 * z.conjugate() ** 63 + (z * z.conjugate()) ** 5)

    sampler = _RecordingSampler(f)
    r = invariant_integral(sampler, False, 1e-8)
    oracle = invariant_integral(lambda z: (1 - abs(z) ** 2) ** 2 * (1.0 + abs(z) ** 10), True, 1e-8)
    assert abs(r.value - oracle.value) <= 1e-13
    points_per_radius: dict[float, int] = {}
    for z in sampler.batches:
        assert isinstance(z, np.ndarray) and z.ndim == 2 and z.shape[0] <= 24
        for row in z:
            radius = float(np.round(abs(row[0]), 14))
            points_per_radius[radius] = points_per_radius.get(radius, 0) + row.size
    assert set(points_per_radius.values()) == {128}
