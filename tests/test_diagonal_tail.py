"""The matrix route's diagonal tail against mpmath: the full pairing of the
measure with the derivative kernel minus the head of the diagonal, at 60
digits and more, for every kind."""

from __future__ import annotations

import math

import mpmath
import pytest

from bergtoep.bergman import d_alpha_beta_terms
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)
from bergtoep.spectral import trace_matrix


def _mass_tail(x, alpha: int, beta: int, dim: int):
    """Sum over n >= dim of (n+1) n^(alpha) n^(beta) x^(n - (alpha+beta)/2):
    D(alpha, beta) at the real point sqrt(x) minus the head."""
    w = mpmath.sqrt(x)
    full = mpmath.fsum(
        mpmath.mpf(c) * w ** (p_conj + p) * (1 - x) ** (-m) for c, p_conj, p, m in d_alpha_beta_terms(alpha, beta)
    )
    shift = mpmath.mpf(alpha + beta) / 2
    head = mpmath.fsum(
        (n + 1) * mpmath.ff(n, alpha) * mpmath.ff(n, beta) * x ** (n - shift) for n in range(max(alpha, beta), dim)
    )
    return full - head


def _radial_tail(base: RadialPower, alpha: int, dim: int):
    s, a = mpmath.mpf(base.s), mpmath.mpf(base.a)
    full = mpmath.fsum(
        mpmath.mpf(c) * mpmath.beta(p_conj + a + 1, s - m + 1) for c, p_conj, _p, m in d_alpha_beta_terms(alpha, alpha)
    )
    head, n = mpmath.mpf(0), max(alpha, 0)
    if n < dim:  # the diagonal entries by their term ratio, from the first
        term = (n + 1) * mpmath.ff(n, alpha) ** 2 * mpmath.beta(n - alpha + a + 1, s + 1)
        while n < dim:
            head += term
            x = n - alpha + a + 1
            term *= mpmath.mpf(n + 2) / (n + 1) * (mpmath.mpf(n + 1) / (n + 1 - alpha)) ** 2 * x / (x + s + 1)
            n += 1
    return full - head


def _exact_tail(base, alpha: int, beta: int, dim: int):
    if isinstance(base, Combination):
        return mpmath.fsum(abs(c) * _exact_tail(atom, alpha, beta, dim) for c, atom in base.terms)
    if isinstance(base, CircleRadialDerivative):
        return 2 * _mass_tail(mpmath.mpf(base.r0) ** 2, 1, 0, dim)
    if isinstance(base, PointMass):
        return _mass_tail(mpmath.mpf(base.z0.real) ** 2 + mpmath.mpf(base.z0.imag) ** 2, alpha, beta, dim)
    if alpha != beta:
        return mpmath.mpf(0)
    if isinstance(base, CircleUniform):
        return _mass_tail(mpmath.mpf(base.r0) ** 2, alpha, alpha, dim)
    return _radial_tail(base, alpha, dim)


CASES = [
    pytest.param(RadialPower(s=4.0), 1, 1, (1, 2, 64, 400, 4096), id="radial_s4_11"),
    pytest.param(RadialPower(s=3.2, a=-0.5), 1, 1, (1, 256, 4096), id="radial_s3.2_11"),
    pytest.param(RadialPower(s=6.0), 2, 2, (1, 2, 3, 64, 4096), id="radial_s6_22"),
    pytest.param(RadialPower(s=5.5, a=1.5), 2, 2, (2, 7, 4096), id="radial_s5.5_22"),
    pytest.param(RadialPower(s=2.5, a=0.25), 0, 0, (1, 64, 4096), id="radial_s2.5_00"),
    pytest.param(RadialPower(s=3.0), 1, 2, (1, 64), id="radial_off_diagonal"),
    pytest.param(CircleUniform(0.5), 1, 1, (1, 64, 256), id="circle_0.5_11"),
    pytest.param(CircleUniform(0.95), 3, 3, (1, 3, 64, 256), id="circle_0.95_33"),
    pytest.param(PointMass(0.3 - 0.2j), 2, 1, (1, 2, 7, 64), id="point_21"),
    pytest.param(PointMass(0.95), 3, 2, (1, 3, 64, 256), id="point_0.95_32"),
    pytest.param(PointMass(0.999999), 2, 2, (1, 2, 64, 256), id="point_0.999999_22"),
    pytest.param(PointMass(0.0), 1, 1, (1, 2), id="point_origin_11"),
    pytest.param(CircleRadialDerivative(0.6), 0, 0, (1, 64), id="circle_derivative_0.6"),
    pytest.param(CircleRadialDerivative(0.99), 0, 0, (1, 256), id="circle_derivative_0.99"),
    pytest.param(
        Combination(((1.0 + 1.0j, PointMass(0.3 + 0.1j)), (-2.0, CircleUniform(0.7)), (0.5, RadialPower(s=5.0)))),
        1, 1, (1, 64), id="combination_11",
    ),
]


@pytest.mark.parametrize("base,alpha,beta,dims", CASES)
def test_tail_is_exact_up_to_its_rounding_pad(base, alpha, beta, dims):
    whole = base.diagonal_tail(alpha, beta, 0)
    for dim in dims:
        tail = base.diagonal_tail(alpha, beta, dim)
        assert isinstance(tail, float) and math.isfinite(tail), dim
        # enough digits that full minus head keeps 50 of the tail's own
        lost = max(0, math.ceil(math.log10(whole / tail))) if tail > 0.0 else 0
        with mpmath.workdps(60 + lost):
            exact = _exact_tail(base, alpha, beta, dim)
            if exact == 0:
                assert tail == 0.0, dim
                continue
            assert exact <= tail <= exact * (1 + mpmath.mpf("1e-10")), (dim, tail, exact)


@pytest.mark.parametrize(
    "base",
    [RadialPower(s=8.0), RadialPower(s=7.5, a=0.5), CircleUniform(0.6), CircleUniform(0.99), PointMass(0.4 - 0.3j), PointMass(0.9j)],
)
@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_tail_from_zero_is_the_closed_trace(base, alpha):
    # at dim 0 the tail is the whole diagonal, which the closed-form route
    # pairs from the kernel's product-rule expansion instead
    closed = base.closed_trace(alpha, alpha, 1e-14)
    assert math.isfinite(closed.real) and closed.imag == 0.0
    assert base.diagonal_tail(alpha, alpha, 0) == pytest.approx(closed.real, rel=1e-13)


def test_overflowing_pairing_gives_infinite_tail():
    # (1 - t0)^-m past the float range next to the circle at high orders
    # is +inf, not an OverflowError
    assert CircleUniform(0.9999999).diagonal_tail(32, 32, 64) == math.inf
    assert PointMass(1.0 - 1e-12).diagonal_tail(13, 13, 64) == math.inf
    value, tail = trace_matrix(SymbolSpec(13, 13, CircleUniform(1.0 - 1e-12)), 64)
    assert math.isfinite(value.real) and tail == math.inf


def test_divergent_radial_power_is_the_only_infinite_tail():
    # s <= 2 alpha + 1 leaves the diagonal series divergent
    assert RadialPower(s=3.0).diagonal_tail(1, 1, 64) == math.inf
    assert RadialPower(s=3.0 + 1e-9).diagonal_tail(1, 1, 64) < math.inf
    assert RadialPower(s=2.0).diagonal_tail(1, 2, 64) == 0.0  # off the diagonal
