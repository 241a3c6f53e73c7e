"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance here is pinned by the criterion text.  Criterion 6 asserts
that the fitted decay rate of the circle family (1, 1) CircleUniform(0.6)
lies within 10% of -2 ln 0.6, and that the fitted prefactor C, rate and
ln-space RMS residual over the window (20, 60) each agree to 1e-9 relative
with an ordinary least squares fit, solved from the normal equations inside
the test, of the exact spectrum (n+1) n^2 r0^(2n-2) sorted descending.  An
absolute residual ceiling of 0.05 is unattainable here: the cubic prefactor
(n+1) n^2 curves ln s_n away from a line, so even the exact spectrum leaves
an RMS residual of 0.12535 on that window.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
import pytest

from bergtoep.berezin import berezin_matrix, berezin_series
from bergtoep.bergman import kernel_deriv_norm
from bergtoep.cli import _jsonable, main
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)
from bergtoep.operators import adjoint_symbol, assemble
from bergtoep.spectral import (
    carleson_bound_estimate,
    decay_fit,
    hermitian_eigenvalues,
    singular_values,
    trace_berezin,
    trace_closed_form,
    trace_matrix,
    trace_report,
)
from bergtoep.verify import run_examples


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_circle_radial_derivative_trace_three_routes():
    worst = 0.0
    for r0 in (0.3, 0.5, 0.7):
        symbol = SymbolSpec(0, 0, CircleRadialDerivative(r0))
        reference = -4.0 * r0 / (1.0 - r0 * r0) ** 3
        closed = trace_closed_form(symbol)[0].real
        matrix, _ = trace_matrix(symbol, 120)
        berezin, _ = trace_berezin(symbol)
        for value in (closed, matrix.real, berezin.real):
            worst = max(worst, abs(value - reference) / abs(reference))
    ok = worst <= 1e-6
    assert _report(1, ok, f"worst relative deviation {worst:.3e} (tol 1e-6)")


def test_criterion_02_point_derivative_traces():
    worst = 0.0
    for a in (0, 1, 2):
        reference = math.factorial(a) * math.factorial(a + 1)
        value, _ = trace_matrix(SymbolSpec(a, a, PointMass(0.0)), 64)
        worst = max(worst, abs(value.real - reference))
    for a, b in ((1, 0), (2, 1)):
        value, _ = trace_matrix(SymbolSpec(a, b, PointMass(0.0)), 64)
        worst = max(worst, abs(value))
    ok_origin = worst <= 1e-8

    symbol = SymbolSpec(1, 1, PointMass(0.5))
    reference = 2.0 * 1.5 / 0.75**4
    closed = trace_closed_form(symbol)[0].real
    matrix, _ = trace_matrix(symbol, 64)
    berezin, _ = trace_berezin(symbol)
    dev = max(abs(v - reference) for v in (closed, matrix.real, berezin.real))
    ok_point = dev <= 1e-6

    ok = ok_origin and ok_point
    assert _report(
        2, ok, f"origin deviations {worst:.3e} (tol 1e-8), z0=0.5 deviations {dev:.3e} (tol 1e-6)"
    )


def test_criterion_03_norm_identity():
    worst = 0.0
    for z0 in (0.0, 0.3, 0.5):
        x = z0 * z0
        reference = math.sqrt(1.0 + 2.0 * x) / (math.sqrt(2.0) * (1.0 - x) ** 2)
        computed = kernel_deriv_norm(z0, 1) / 2.0
        worst = max(worst, abs(computed - reference))
    ok = worst <= 1e-10
    assert _report(3, ok, f"worst norm deviation {worst:.3e} (tol 1e-10)")


def test_criterion_04_radial_weight_adjudication():
    symbol = SymbolSpec(1, 1, RadialPower(s=4.0))
    matrix, tail = trace_matrix(symbol, 400)
    berezin, berr = trace_berezin(symbol)
    # the derived value is 4.0 (telescoping); the matrix partial sum plus
    # its tail bound and the quadrature route must agree there
    ok_routes = abs(matrix.real - berezin.real) <= 1e-5 + tail + berr
    ok_value = abs(berezin.real - 4.0) <= 1e-5
    ok_matrix_vs_value = abs(matrix.real - 4.0) <= tail + 1e-8
    report = trace_report(symbol, dim=400, reference_value=2.0)
    ok_ratio = report.reference_ratio == pytest.approx(2.0, abs=1e-9)
    ok = ok_routes and ok_value and ok_matrix_vs_value and ok_ratio
    assert _report(
        4,
        ok,
        f"berezin {berezin.real:.8f} vs derived 4.0, matrix {matrix.real:.6f}+tail {tail:.4f}, "
        f"ratio to reference display {report.reference_ratio:.6f}",
    )


def test_criterion_05_rank_one_law():
    # the law on the spectrum the library reports, and on an independent
    # LAPACK SVD of the dense truncation, with the same two thresholds
    ok = True
    details = []
    for alpha, beta in ((0, 0), (1, 1), (1, 0)):
        symbol = SymbolSpec(alpha, beta, PointMass(0.5))
        op = assemble(symbol, 128)
        library, lapack = singular_values(op).svals, np.linalg.svd(op.entries, compute_uv=False)
        for route, svals in (("library", library), ("lapack", lapack)):
            ratio = svals[1] / svals[0]
            ok = ok and ratio <= 1e-10
            details.append(f"({alpha},{beta}) {route} s1/s0={ratio:.2e}")
            if alpha == beta:
                trace = trace_closed_form(symbol)[0].real
                ok = ok and abs(svals[0] - trace) <= 1e-8
    assert _report(5, ok, ", ".join(details))


def _exact_circle_decay_fit(
    r0: float, dim: int, window: tuple[int, int]
) -> tuple[float, float, float]:
    """Prefactor C, rate and RMS residual of the OLS line through ln s_n over the window,
    for the exact (1, 1) circle spectrum (n+1) n^2 r0^(2n-2), 0 < n < dim
    (the n = 0 value is zero and sorts last), sorted descending; solved
    from the normal equations with math.fsum."""
    logs = sorted(
        (math.log(n + 1) + 2.0 * math.log(n) + (2 * n - 2) * math.log(r0) for n in range(1, dim)),
        reverse=True,
    )
    n0, n1 = window
    xs = range(n0, n1 + 1)
    ys = logs[n0 : n1 + 1]
    count = len(ys)
    x_mean = math.fsum(xs) / count
    y_mean = math.fsum(ys) / count
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residual = math.sqrt(math.fsum((intercept + slope * x - y) ** 2 for x, y in zip(xs, ys)) / count)
    return math.exp(intercept), -slope, residual


def test_criterion_06_exponential_decay():
    r0, dim, window = 0.6, 128, (20, 60)
    op = assemble(SymbolSpec(1, 1, CircleUniform(r0)), dim)
    fit = decay_fit(singular_values(op), window)
    target = -2.0 * math.log(r0)
    sigma_ok = abs(fit.sigma - target) / target <= 0.10
    exact_c, exact_sigma, exact_residual = _exact_circle_decay_fit(r0, dim, window)
    c_dev = abs(fit.C - exact_c) / exact_c
    sigma_dev = abs(fit.sigma - exact_sigma) / exact_sigma
    residual_dev = abs(fit.residual - exact_residual) / exact_residual
    fit_ok = c_dev <= 1e-9 and sigma_dev <= 1e-9 and residual_dev <= 1e-9
    ok = sigma_ok and fit_ok
    assert _report(
        6,
        ok,
        f"sigma {fit.sigma:.4f} vs {target:.4f} ({'ok' if sigma_ok else 'off'}), "
        f"fit vs exact spectrum: C dev {c_dev:.1e}, sigma {exact_sigma:.10f} dev {sigma_dev:.1e}, "
        f"ln-residual {exact_residual:.10f} dev {residual_dev:.1e} (tol 1e-9)",
    )


def test_criterion_07_trace_class_gate(capsys):
    code_bad = main(
        ["trace", "--symbol", '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":2,"a":0}}']
    )
    err = capsys.readouterr().err
    exponent = json.loads(err)["error"]["divergence_exponent"]
    code_good = main(
        ["trace", "--symbol", '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":4,"a":0}}',
         "--dim", "400"]
    )
    capsys.readouterr()
    ok = code_bad == 3 and exponent == pytest.approx(-2.0) and code_good == 0
    with capsys.disabled():
        _report(7, ok, f"s=2 exit {code_bad} exponent {exponent}, s=4 exit {code_good}")
    assert ok


_FAMILY_INSTANCES = [
    SymbolSpec(0, 0, CircleRadialDerivative(0.3)),
    SymbolSpec(0, 0, CircleRadialDerivative(0.5)),
    SymbolSpec(0, 0, CircleRadialDerivative(0.7)),
    SymbolSpec(0, 0, PointMass(0.0)),
    SymbolSpec(1, 1, PointMass(0.0)),
    SymbolSpec(2, 2, PointMass(0.0)),
    SymbolSpec(1, 0, PointMass(0.0)),
    SymbolSpec(2, 1, PointMass(0.0)),
    SymbolSpec(0, 0, PointMass(0.5)),
    SymbolSpec(1, 1, PointMass(0.5)),
    SymbolSpec(1, 0, PointMass(0.5)),
    SymbolSpec(1, 1, RadialPower(s=4.0)),
    SymbolSpec(1, 1, CircleUniform(0.6)),
]


def test_criterion_08_berezin_route_agreement():
    worst = -1.0
    for symbol in _FAMILY_INSTANCES:
        op = assemble(symbol, 256)
        for radius in (0.0, 0.3, 0.6, 0.9):
            for k in range(8):
                z = radius * cmath.exp(2j * math.pi * k / 8)
                series = berezin_series(symbol, z)
                matrix = berezin_matrix(op, z)
                slack = 1e-8 + matrix.est_error + series.est_error
                worst = max(worst, abs(series.value - matrix.value) - slack)
    ok = worst <= 0.0
    assert _report(8, ok, f"worst excess over 1e-8 + tail estimates: {worst:.3e}")


def test_criterion_09_structural_invariants():
    adjoint_ok = True
    band_ok = True
    for symbol in _FAMILY_INSTANCES + [
        SymbolSpec(1, 2, Combination(((1j, PointMass(0.2)), (0.5, RadialPower(3.0))))),
    ]:
        a = assemble(symbol, 48)
        b = assemble(adjoint_symbol(symbol), 48)
        adjoint_ok = adjoint_ok and np.array_equal(a.entries.conj().T, b.entries)
        if a.is_radial_band:
            n_idx, m_idx = np.indices((48, 48))
            off_band = (m_idx - symbol.alpha) != (n_idx - symbol.beta)
            band_ok = band_ok and bool(np.all(a.entries[off_band] == 0.0))

    positivity_ok = True
    for symbol in _FAMILY_INSTANCES:
        if symbol.alpha != symbol.beta or not symbol.base.nonnegative:
            continue
        op = assemble(symbol, 64)
        eigs = hermitian_eigenvalues(op.entries)
        positivity_ok = positivity_ok and eigs[-1] >= -1e-12 * max(eigs[0], 1e-300)

    first = json.dumps(_jsonable(run_examples()), sort_keys=True).encode()
    second = json.dumps(_jsonable(run_examples()), sort_keys=True).encode()
    determinism_ok = first == second

    ok = adjoint_ok and band_ok and positivity_ok and determinism_ok
    assert _report(
        9,
        ok,
        f"adjoint exact: {adjoint_ok}, band zeros exact: {band_ok}, "
        f"positivity: {positivity_ok}, report bit-identical: {determinism_ok}",
    )


def test_criterion_10_carleson_bound_probe():
    flat = carleson_bound_estimate(RadialPower(s=0.0), 0, [8, 16, 32])
    identity_ok = all(abs(top - 1.0) <= 1e-12 for _, top in flat)
    growing = carleson_bound_estimate(RadialPower(s=1.0), 1, [32, 64, 128, 256])
    tops = {dim: top for dim, top in growing}
    growth = tops[256] / tops[32]
    growth_ok = growth >= 1.5
    ok = identity_ok and growth_ok
    assert _report(
        10, ok, f"identity tops == 1.0: {identity_ok}, growth x{growth:.2f} from N=32 to N=256"
    )
