"""Moment functionals and finiteness integrals against independent oracles."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bergtoep.errors import UnsupportedSymbolError
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    FinitenessReport,
    PointMass,
    RadialPower,
    SymbolSpec,
    boundary_weight_integral,
    carleson_integral,
    moment,
)


# ------------------------------------------------------------ frozen examples

def test_moment_point_mass_direct():
    assert moment(PointMass(0.5), 2, 1) == pytest.approx(0.125)


def test_moment_radial_power_beta_oracle():
    # independent oracle: B(2, 5) = 1! 4! / 6! = 1/30
    assert moment(RadialPower(s=4.0), 1, 1).real == pytest.approx(1.0 / 30.0, rel=1e-13)


def test_moment_circle_uniform_off_diagonal_is_exact_zero():
    assert moment(CircleUniform(0.5), 2, 3) == 0.0


def test_moment_circle_uniform_diagonal():
    assert moment(CircleUniform(0.5), 3, 3) == pytest.approx(0.015625)


def test_carleson_radial_power_finite_value():
    report = carleson_integral(RadialPower(s=4.0), 1)
    assert report.finite and report.value == pytest.approx(1.0, rel=1e-13)


def test_carleson_radial_power_divergent_exponent():
    report = carleson_integral(RadialPower(s=2.0), 1)
    assert not report.finite
    assert report.divergence_exponent == pytest.approx(-2.0)


def test_carleson_point_mass_origin():
    report = carleson_integral(PointMass(0.0), 3)
    assert report.finite and report.value == pytest.approx(1.0)


# ------------------------------------------------------- quadrature oracles

@pytest.mark.parametrize("s,a", [(4.0, 0.0), (2.5, 0.5), (0.0, -0.25)])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_radial_power_moment_matches_quadrature(s, a, p):
    oracle, err = quad(lambda t: t ** (p + a) * (1.0 - t) ** s, 0.0, 1.0)
    value = moment(RadialPower(s=s, a=a), p, p)
    assert value.imag == 0.0
    assert value.real == pytest.approx(oracle, abs=max(1e-12, 10 * err))


def test_circle_uniform_moment_matches_angular_average():
    # trapezoid in the angle integrates w^p conj(w)^q exactly for p, q < n
    r0, p, q, n = 0.7, 4, 4, 64
    acc = 0.0 + 0.0j
    for j in range(n):
        w = r0 * complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
        acc += w**p * w.conjugate() ** q
    assert moment(CircleUniform(r0), p, q) == pytest.approx(acc / n, abs=1e-14)


def test_carleson_combination_termwise_upper_bound():
    combo = Combination(((2.0, PointMass(0.5)), (1.0, CircleUniform(0.5))))
    report = carleson_integral(combo, 0)
    expected = 2.0 * (1 - 0.25) ** -2 + (1 - 0.25) ** -2
    assert report.finite and report.value == pytest.approx(expected)


def test_carleson_combination_divergent_if_any_term_diverges():
    combo = Combination(((1.0, RadialPower(s=2.0)), (1.0, PointMass(0.0))))
    report = carleson_integral(combo, 1)
    assert not report.finite and report.divergence_exponent == pytest.approx(-2.0)


def test_carleson_combination_zero_coefficient_term_ignored():
    combo = Combination(((0.0, RadialPower(s=2.0)), (1.0, PointMass(0.0))))
    assert carleson_integral(combo, 1).finite


# ----------------------------------------------------------------- contracts

def test_moment_rejects_distribution():
    with pytest.raises(UnsupportedSymbolError):
        moment(CircleRadialDerivative(0.5), 0, 0)
    with pytest.raises(UnsupportedSymbolError):
        moment(Combination(((1.0, CircleRadialDerivative(0.5)),)), 1, 1)


def test_moment_rejects_negative_indices():
    with pytest.raises(ValueError):
        moment(PointMass(0.0), -1, 0)


def test_carleson_rejects_distribution_and_negative_order():
    with pytest.raises(UnsupportedSymbolError):
        carleson_integral(CircleRadialDerivative(0.5), 1)
    with pytest.raises(ValueError):
        carleson_integral(PointMass(0.0), -1)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: RadialPower(s=-1.0),
        lambda: RadialPower(s=0.0, a=-1.5),
        lambda: PointMass(1.0),
        lambda: CircleUniform(0.0),
        lambda: CircleUniform(1.0),
        lambda: CircleRadialDerivative(1.2),
        lambda: Combination(()),
        lambda: Combination(((1.0, Combination(((1.0, PointMass(0.0)),))),)),
    ],
)
def test_invalid_measures_rejected(builder):
    with pytest.raises(ValueError):
        builder()


def test_symbol_spec_validation():
    with pytest.raises(ValueError):
        SymbolSpec(-1, 0, PointMass(0.0))
    with pytest.raises(ValueError):
        SymbolSpec(20, 20, PointMass(0.0))  # alpha + beta over the cap
    with pytest.raises(ValueError):
        SymbolSpec(1, 0, CircleRadialDerivative(0.5))
    SymbolSpec(0, 0, CircleRadialDerivative(0.5))  # allowed


@pytest.mark.parametrize("order", [True, False, 1.0, 2.5, math.inf, math.nan, "1", np.float64(1.0), np.bool_(True)])
def test_symbol_orders_must_be_integers(order):
    # bools and floats are rejected with ValueError, inf included
    with pytest.raises(ValueError, match="must be an integer"):
        SymbolSpec(order, 0, PointMass(0.3))
    with pytest.raises(ValueError, match="must be an integer"):
        SymbolSpec(0, order, PointMass(0.3))


def test_symbol_orders_accept_numpy_integers():
    symbol = SymbolSpec(np.int64(2), np.int32(1), PointMass(0.3))
    assert (symbol.alpha, symbol.beta) == (2, 1)


def test_finiteness_report_shape_is_enforced():
    with pytest.raises(ValueError):
        FinitenessReport(k=0, finite=True, value=None)
    with pytest.raises(ValueError):
        FinitenessReport(k=0, finite=False, value=1.0, divergence_exponent=-2.0)


def test_radial_and_sign_classifiers():
    assert RadialPower(1.0).radial and CircleRadialDerivative(0.3).radial
    assert not PointMass(0.3).radial
    assert PointMass(0.3).nonnegative and not CircleRadialDerivative(0.3).nonnegative
    assert not Combination(((-1.0, PointMass(0.0)),)).nonnegative


# ------------------------------------------------------------ property tests

_atoms = st.one_of(
    st.builds(
        RadialPower,
        s=st.floats(-0.5, 6.0, allow_nan=False),
        a=st.floats(-0.5, 3.0, allow_nan=False),
    ),
    st.builds(
        PointMass,
        z0=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    ),
    st.builds(CircleUniform, r0=st.floats(0.05, 0.95)),
)

_coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

_measures = st.one_of(
    _atoms,
    st.builds(
        Combination,
        st.lists(st.tuples(_coeffs, _atoms), min_size=1, max_size=3).map(tuple),
    ),
)

_orders = st.integers(0, 8)


@settings(max_examples=60, deadline=None)
@given(base=_measures, p=_orders, q=_orders)
def test_hermitian_symmetry_for_real_measures(base, p, q):
    if isinstance(base, Combination):
        base = Combination(tuple((complex(c.real, 0.0), b) for c, b in base.terms))
    assert moment(base, p, q) == moment(base, q, p).conjugate()


@settings(max_examples=60, deadline=None)
@given(
    base=st.one_of(
        st.builds(RadialPower, s=st.floats(-0.5, 6.0), a=st.floats(-0.5, 3.0)),
        st.builds(CircleUniform, r0=st.floats(0.05, 0.95)),
    ),
    p=_orders,
    q=_orders,
)
def test_radial_annihilation_exact(base, p, q):
    if p != q:
        assert moment(base, p, q) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    terms=st.lists(st.tuples(_coeffs, _atoms), min_size=1, max_size=3),
    p=_orders,
    q=_orders,
)
def test_moment_linearity_over_combinations(terms, p, q):
    combined = moment(Combination(tuple(terms)), p, q)
    expected = sum(c * moment(b, p, q) for c, b in terms)
    scale = max(abs(expected), 1e-30)
    assert abs(combined - expected) <= 1e-14 * scale + 1e-300


@settings(max_examples=40, deadline=None)
@given(base=_atoms, k=st.integers(1, 6))
def test_carleson_value_nondecreasing_in_k(base, k):
    if isinstance(base, PointMass) and base.z0 == 0:
        # constant in k at the origin; still nondecreasing
        pass
    later = carleson_integral(base, k)
    earlier = carleson_integral(base, k - 1)
    if later.finite and earlier.finite:
        assert later.value >= earlier.value * (1.0 - 1e-12)


def test_boundary_weight_integral_odd_orders():
    # full derivative order alpha + beta = 1 gives weight exponent 3
    report = boundary_weight_integral(RadialPower(s=2.5), 3)
    assert report.finite
    oracle, _ = quad(lambda t: (1.0 - t) ** (2.5 - 3.0), 0.0, 1.0)
    assert report.value == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("r", [0.9, 0.999, 1.0 - 1e-5, 1.0 - 1e-7])
def test_point_mass_boundary_weight_within_its_pairing_bound_of_mpmath(r):
    # (1 - |z0|^2)^(-order) at 50 digits from the float z0's exact |z0|^2:
    # 1 - |z0|^2 formed from the rounded |z0| would lose digits as it falls
    import mpmath

    with mpmath.workdps(50):
        for theta in (0.0, 0.3, 1.1, 2.0, 2.9, 4.4):
            mass = PointMass(cmath.rect(r, theta))
            x = mpmath.mpf(mass.z0.real) ** 2 + mpmath.mpf(mass.z0.imag) ** 2
            for order in range(2, 9):
                value, exponent = mass.boundary_weight(order)
                exact = (1 - x) ** -order
                assert exponent == math.inf
                assert abs(value - exact) <= mass._pairing_bound(0, order) * exact, (theta, order)
