"""The matrix route's diagonal tail against mpmath: the full pairing of the
measure with the derivative kernel minus the head of the diagonal, at 60
digits and more, for every kind; and the closed route, that tail from
n = 0 times one unit factor, against the pairing itself."""

from __future__ import annotations

import cmath
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
from bergtoep.spectral import trace_closed_form, trace_matrix


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


def _kernel(x, y, alpha: int, beta: int):
    """d^alpha_x d^beta_y (1 - x y)^(-2) by Leibniz: the x-derivative is
    (alpha+1)! y^alpha (1 - x y)^(-2-alpha), whose y-derivatives split into
    C(beta, i) alpha!/(alpha-i)! y^(alpha-i) (2+alpha)_(beta-i) x^(beta-i)
    (1 - x y)^(-2-alpha-beta+i)."""
    return math.factorial(alpha + 1) * mpmath.fsum(
        math.comb(beta, i) * math.perm(alpha, i) * mpmath.rf(2 + alpha, beta - i)
        * y ** (alpha - i) * x ** (beta - i) * (1 - x * y) ** (i - 2 - alpha - beta)
        for i in range(min(alpha, beta) + 1)
    )


def _closed_reference(base, alpha: int, beta: int):
    """(-1)^(alpha+beta) <D(alpha, beta), mu> at the float parameters, exactly."""
    if isinstance(base, Combination):
        return mpmath.fsum(mpmath.mpc(c.real, c.imag) * _closed_reference(b, alpha, beta) for c, b in base.terms)
    sign = (-1) ** (alpha + beta)
    if isinstance(base, PointMass):
        w = mpmath.mpc(base.z0.real, base.z0.imag)
        return sign * _kernel(w, mpmath.conj(w), alpha, beta)
    if isinstance(base, CircleRadialDerivative):
        r = mpmath.mpf(base.r0)
        return -4 * r / (1 - r * r) ** 3
    if alpha != beta:  # rotation invariance
        return mpmath.mpf(0)
    if isinstance(base, CircleUniform):
        return _kernel(mpmath.mpf(base.r0), mpmath.mpf(base.r0), alpha, alpha)
    # Leibniz term by term against (1-t)^s t^a dt: each is a Beta integral
    s, a = mpmath.mpf(base.s), mpmath.mpf(base.a)
    return math.factorial(alpha + 1) * mpmath.fsum(
        math.comb(alpha, i) * math.perm(alpha, i) * mpmath.rf(2 + alpha, alpha - i)
        * mpmath.beta(alpha - i + a + 1, s - 1 - 2 * alpha + i)
        for i in range(alpha + 1)
    )


_ORDERS = [(0, 0), (1, 1), (2, 2), (3, 3), (5, 5), (1, 0), (2, 1), (4, 1), (1, 4), (3, 5)]


def _closed_cases():
    for z0 in (0.0, 0.5, 0.4 - 0.3j, -0.6 + 0.7j, cmath.rect(0.98, 2.0), cmath.rect(0.999, -1.0), 0.99999j):
        yield from (pytest.param(PointMass(z0), a, b, id=f"point-{z0:.5g}-{a}{b}") for a, b in _ORDERS)
    for r0 in (0.3, 0.9, 0.995):
        yield from (pytest.param(CircleUniform(r0), a, b, id=f"circle-{r0}-{a}{b}") for a, b in _ORDERS)
        yield pytest.param(CircleRadialDerivative(r0), 0, 0, id=f"circle-derivative-{r0}")
    for a, b in _ORDERS:
        s = 2 * max(a, b) + 1.5  # past the trace-class threshold 2 alpha + 1
        yield pytest.param(RadialPower(s=s), a, b, id=f"radial-{s}-{a}{b}")
        yield pytest.param(RadialPower(s=s + 0.25, a=0.5), a, b, id=f"radial-a-{s}-{a}{b}")
    combo = Combination(
        ((0.7 - 1.3j, PointMass(0.4 + 0.5j)), (2.0 + 0.5j, CircleUniform(0.9)), (-1.5, RadialPower(s=9.0, a=0.25)))
    )
    yield from (pytest.param(combo, a, b, id=f"combination-{a}{b}") for a, b in ((1, 1), (3, 3), (2, 1), (1, 4)))
    yield pytest.param(
        Combination(((1.5j, CircleRadialDerivative(0.7)), (-0.5, PointMass(0.9 - 0.2j)))), 0, 0,
        id="combination-with-distribution",
    )


@pytest.mark.parametrize("base,alpha,beta", list(_closed_cases()))
def test_closed_trace_within_its_bound_of_mpmath(base, alpha, beta):
    # the closed route against the pairing at 60 digits, with no slack
    # beyond the returned bound
    value, bound = trace_closed_form(SymbolSpec(alpha, beta, base))
    with mpmath.workdps(60):
        ref = _closed_reference(base, alpha, beta)
        assert abs(mpmath.mpc(value.real, value.imag) - ref) <= bound, (value, complex(ref), bound)
    assert bound <= 1e-12 * abs(ref) or (ref == 0 and bound == 0.0)


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
