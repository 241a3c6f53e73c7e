"""Trace routes, Jacobi SVD against an independent solver, decay fits,
and the Carleson bound probe."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

from bergtoep.errors import NotTraceClassError, UnsupportedSymbolError
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)
from bergtoep.operators import assemble
from bergtoep.spectral import (
    carleson_bound_estimate,
    decay_fit,
    ensure_trace_class,
    hermitian_eigenvalues,
    jacobi_svd,
    singular_values,
    trace_berezin,
    trace_closed_form,
    trace_matrix,
    trace_report,
)


# ------------------------------------------------------------- closed forms

def test_trace_closed_form_circle_radial_derivative():
    value = trace_closed_form(SymbolSpec(0, 0, CircleRadialDerivative(0.5)))
    assert value.real == pytest.approx(-4.0 * 0.5 / 0.75**3, rel=1e-13)


def test_trace_closed_form_point_derivative_at_origin():
    assert trace_closed_form(SymbolSpec(1, 1, PointMass(0.0))).real == pytest.approx(2.0)


def test_trace_closed_form_one_sided_point_derivative():
    value = trace_closed_form(SymbolSpec(1, 0, PointMass(0.5)))
    assert value.real == pytest.approx(-2.0 * 0.5 / 0.75**3, rel=1e-9)


def test_trace_closed_form_radial_power_telescoping_oracle():
    # oracle: sum over n >= 1 of 24 n / ((n+2)(n+3)(n+4)) telescopes to 4,
    # with exact partial-fraction tail 24 (N+1) / ((N+2)(N+3))
    n_cut = 4000
    partial = sum(24.0 * n / ((n + 2) * (n + 3) * (n + 4)) for n in range(1, n_cut))
    exact_tail = 24.0 * (n_cut + 1) / ((n_cut + 2.0) * (n_cut + 3.0))
    assert partial + exact_tail == pytest.approx(4.0, abs=1e-10)
    value = trace_closed_form(SymbolSpec(1, 1, RadialPower(s=4.0)))
    assert value.real == pytest.approx(4.0, rel=1e-12)


def test_trace_closed_form_radial_mixed_orders_vanish():
    assert trace_closed_form(SymbolSpec(1, 0, RadialPower(s=6.0))) == 0.0
    assert trace_closed_form(SymbolSpec(2, 1, CircleUniform(0.5))) == 0.0


def test_trace_gate_rejects_divergent_radial_power():
    with pytest.raises(NotTraceClassError) as err:
        trace_closed_form(SymbolSpec(1, 1, RadialPower(s=2.0)))
    assert err.value.divergence_exponent == pytest.approx(-2.0)
    ensure_trace_class(SymbolSpec(1, 1, RadialPower(s=4.0)))  # passes


# ------------------------------------------------------------- matrix route

def test_trace_matrix_circle_radial_derivative():
    value, tail = trace_matrix(SymbolSpec(0, 0, CircleRadialDerivative(0.5)), 60)
    assert value.real == pytest.approx(-4.0 * 0.5 / 0.75**3, abs=1e-8)
    assert tail <= 1e-8


def test_trace_matrix_point_mass_kernel_norm():
    value, tail = trace_matrix(SymbolSpec(0, 0, PointMass(0.5)), 200)
    assert value.real == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert tail <= 1e-20


def test_trace_matrix_radial_mixed_orders_zero():
    value, tail = trace_matrix(SymbolSpec(1, 0, RadialPower(s=4.0)), 64)
    assert value == 0.0 and tail == 0.0


def test_trace_matrix_radial_power_tail_covers_remainder():
    symbol = SymbolSpec(1, 1, RadialPower(s=4.0))
    for dim in (50, 400, 1500):
        value, tail = trace_matrix(symbol, dim)
        # exact remainder by partial fractions: sum over n >= dim of
        # 24 n / ((n+2)(n+3)(n+4)) = 24 (dim+1) / ((dim+2)(dim+3))
        exact_tail = 24.0 * (dim + 1.0) / ((dim + 2.0) * (dim + 3.0))
        assert value.real + exact_tail == pytest.approx(4.0, abs=1e-10)
        assert tail >= exact_tail * (1.0 - 1e-9)
        assert tail <= exact_tail * 1.5 + 1e-12


def test_trace_matrix_truncation_below_the_band_start():
    # for orders (2, 2) the diagonal begins at n = 2: tiny truncations see
    # nothing, and the tail estimate must still cover the whole trace
    symbol = SymbolSpec(2, 2, RadialPower(s=6.0))
    closed = trace_closed_form(symbol).real
    assert closed == pytest.approx(60.0, rel=1e-12)  # finite Beta-sum oracle
    for dim in (1, 2):
        value, tail = trace_matrix(symbol, dim)
        assert value == 0.0
        assert math.isfinite(tail) and tail >= closed
    value, tail = trace_matrix(symbol, 3)
    assert value.real == pytest.approx(3.0 * 4.0 / 7.0, rel=1e-12)  # single entry
    assert tail >= closed - value.real


def test_trace_matrix_divergent_diagonal_reports_infinite_tail():
    value, tail = trace_matrix(SymbolSpec(1, 1, RadialPower(s=2.0)), 32)
    assert math.isinf(tail)
    assert value.real > 0.0


def test_trace_linearity_over_combinations():
    terms = ((2.0, PointMass(0.5)), (1.0 + 1.0j, CircleUniform(0.5)))
    combo = SymbolSpec(1, 1, Combination(terms))
    combined = trace_closed_form(combo)
    separate = sum(c * trace_closed_form(SymbolSpec(1, 1, b)) for c, b in terms)
    assert abs(combined - separate) <= 1e-10 * max(abs(separate), 1.0)
    m_combined, _ = trace_matrix(combo, 64)
    m_separate = sum(c * trace_matrix(SymbolSpec(1, 1, b), 64)[0] for c, b in terms)
    assert abs(m_combined - m_separate) <= 1e-10 * max(abs(m_separate), 1.0)


def test_trace_matrix_point_mass_near_boundary_tail_is_valid():
    symbol = SymbolSpec(1, 1, PointMass(0.9))
    closed = trace_closed_form(symbol, tol=1e-12).real
    for dim in (64, 200):
        value, tail = trace_matrix(symbol, dim)
        remainder = abs(closed - value.real)
        assert tail >= remainder * (1.0 - 1e-12)
        assert math.isfinite(tail)


# ------------------------------------------------------------ Berezin route

def test_trace_berezin_point_mass_kernel_norm():
    value, err = trace_berezin(SymbolSpec(0, 0, PointMass(0.5)))
    assert value.real == pytest.approx(16.0 / 9.0, abs=1e-6)
    assert abs(value.real - 16.0 / 9.0) <= err + 1e-9


def test_trace_berezin_mixed_orders_vanish_by_angular_orthogonality():
    value, err = trace_berezin(SymbolSpec(1, 2, PointMass(0.0)))
    assert abs(value) <= 1e-8


def test_trace_berezin_radial_power_matches_telescoping_oracle():
    value, err = trace_berezin(SymbolSpec(1, 1, RadialPower(s=4.0)))
    assert value.real == pytest.approx(4.0, abs=1e-5)


def test_trace_berezin_gate():
    with pytest.raises(NotTraceClassError):
        trace_berezin(SymbolSpec(1, 1, RadialPower(s=2.0)))


def test_trace_report_bit_identical_across_runs():
    # the graded non-radial symbol exercises angular batches of both atoms
    symbol = SymbolSpec(
        1,
        1,
        Combination(((1.0, CircleUniform(0.3)), (0.3, PointMass(cmath.rect(0.3, 0.7))))),
    )
    first = trace_report(symbol, dim=256)
    second = trace_report(symbol, dim=256)
    assert first.agree
    assert repr(dataclasses.astuple(first)) == repr(dataclasses.astuple(second))


def test_trace_report_routes_agree():
    report = trace_report(SymbolSpec(1, 1, PointMass(0.5)), dim=128)
    assert report.agree
    assert report.route_closed_form.real == pytest.approx(
        2.0 * 1.5 / 0.75**4, rel=1e-10
    )
    report = trace_report(
        SymbolSpec(1, 1, RadialPower(s=4.0)), dim=400, reference_value=2.0
    )
    assert report.agree
    assert report.reference_ratio == pytest.approx(2.0, abs=1e-9)


def test_trace_report_mixed_combination_symbol():
    terms = ((1.0, PointMass(0.5)), (0.5, CircleUniform(0.4)))
    symbol = SymbolSpec(1, 1, Combination(terms))
    report = trace_report(symbol, dim=128)
    assert report.agree
    expected = sum(c * trace_closed_form(SymbolSpec(1, 1, b)) for c, b in terms)
    assert report.route_closed_form == pytest.approx(expected, rel=1e-10)
    assert abs(report.route_berezin - expected) <= report.berezin_error + 1e-6


# ---------------------------------------------------------------- Jacobi SVD

def test_jacobi_svd_against_numpy_oracle():
    rng = np.random.default_rng(42)
    for n in (3, 8, 17):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, s, v = jacobi_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]
        recon = u @ np.diag(s) @ v.conj().T
        assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12


def test_jacobi_svd_zero_matrix():
    u, s, v = jacobi_svd(np.zeros((4, 4), dtype=complex))
    assert np.all(s == 0.0)


def test_singular_values_rank_one_projection():
    op = assemble(SymbolSpec(0, 0, PointMass(0.0)), 32)
    report = singular_values(op)
    assert report.numerical_rank == 1
    assert report.svals[0] == pytest.approx(1.0)
    assert report.svals[1] <= 1e-12


def test_singular_values_diagonal_circle():
    op = assemble(SymbolSpec(0, 0, CircleUniform(0.5)), 8)
    report = singular_values(op)
    expected = sorted(((n + 1) * 0.25**n for n in range(8)), reverse=True)
    assert np.allclose(report.svals, expected, rtol=1e-13)


def test_hermitian_svals_equal_absolute_eigenvalues():
    symbol = SymbolSpec(0, 0, CircleRadialDerivative(0.5))  # signed diagonal
    op = assemble(symbol, 16)
    report = singular_values(op)
    eigs = hermitian_eigenvalues(op.entries)
    assert np.allclose(report.svals, np.sort(np.abs(eigs))[::-1], atol=1e-12)


def test_hermitian_eigenvalues_against_numpy_oracle():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = h + h.conj().T
    eigs = hermitian_eigenvalues(h)
    ref = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert np.max(np.abs(eigs - ref)) <= 1e-11 * max(np.abs(ref))


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----------------------------------------------------------------- decay fit

def test_decay_fit_exact_exponential():
    svals = np.exp(-np.arange(64.0))
    report = singular_values(np.diag(svals))
    fit = decay_fit(report, (0, 20))
    assert fit.C == pytest.approx(1.0, rel=1e-10)
    assert fit.sigma == pytest.approx(1.0, rel=1e-12)
    assert fit.residual <= 1e-12


def test_decay_fit_circle_rate():
    op = assemble(SymbolSpec(1, 1, CircleUniform(0.6)), 128)
    report = singular_values(op)
    fit = decay_fit(report, (20, 60))
    target = -2.0 * math.log(0.6)
    assert abs(fit.sigma - target) / target <= 0.10
    # self-consistency of the reported residual against a direct refit
    idx = np.arange(20, 61, dtype=float)
    y = np.log(report.svals[20:61])
    slope, intercept = np.polyfit(idx, y, 1)
    resid = float(np.sqrt(np.mean((intercept + slope * idx - y) ** 2)))
    assert fit.residual == pytest.approx(resid, rel=1e-12)


def test_decay_fit_window_errors():
    op = assemble(SymbolSpec(0, 0, PointMass(0.0)), 32)
    report = singular_values(op)
    with pytest.raises(ValueError):
        decay_fit(report, (2, 20))  # zeros inside the window
    with pytest.raises(ValueError):
        decay_fit(report, (0, 3))  # too narrow
    with pytest.raises(ValueError):
        decay_fit(report, (0, 64))  # outside the spectrum


# -------------------------------------------------------------- bound probe

def test_carleson_probe_identity_weight():
    probe = carleson_bound_estimate(RadialPower(s=0.0), 0, [8, 16])
    assert [d for d, _ in probe] == [8, 16]
    for _, top in probe:
        assert top == pytest.approx(1.0, abs=1e-12)


def test_carleson_probe_circle_saturates():
    probe = carleson_bound_estimate(CircleUniform(0.5), 1, [16, 32, 64])
    tops = [t for _, t in probe]
    expected = max((n + 1) * n * n * 0.25 ** (n - 1) for n in range(64))
    assert tops[-1] == pytest.approx(expected, rel=1e-12)
    assert tops[0] <= tops[1] <= tops[2] + 1e-12
    assert tops[2] / tops[0] < 1.01  # saturated early


def test_carleson_probe_linear_growth_refutes_embedding():
    probe = carleson_bound_estimate(RadialPower(s=1.0), 1, [32, 64, 128])
    tops = [t for _, t in probe]
    # diagonal entries are exactly n, so the top eigenvalue is dim - 1
    assert tops[0] == pytest.approx(31.0, rel=1e-12)
    assert tops[-1] == pytest.approx(127.0, rel=1e-12)


def test_carleson_probe_input_validation():
    with pytest.raises(UnsupportedSymbolError):
        carleson_bound_estimate(CircleRadialDerivative(0.5), 0, [8])
    with pytest.raises(ValueError):
        carleson_bound_estimate(PointMass(0.0), 0, [16, 8])
