"""Trace routes, singular values (exact from a single factor, Jacobi
otherwise) against independent solvers, decay fits, and the Carleson bound
probe."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bergtoep import measures, spectral
from bergtoep.cli import main, symbol_to_config
from bergtoep.errors import NotTraceClassError, NumericalFailureError, UnsupportedSymbolError
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
    value, _ = trace_closed_form(SymbolSpec(0, 0, CircleRadialDerivative(0.5)))
    assert value.real == pytest.approx(-4.0 * 0.5 / 0.75**3, rel=1e-13)


def test_trace_closed_form_point_derivative_at_origin():
    assert trace_closed_form(SymbolSpec(1, 1, PointMass(0.0)))[0].real == pytest.approx(2.0)


def test_trace_closed_form_one_sided_point_derivative():
    value, _ = trace_closed_form(SymbolSpec(1, 0, PointMass(0.5)))
    assert value.real == pytest.approx(-2.0 * 0.5 / 0.75**3, rel=1e-9)


def test_trace_closed_form_radial_power_telescoping_oracle():
    # oracle: sum over n >= 1 of 24 n / ((n+2)(n+3)(n+4)) telescopes to 4,
    # with exact partial-fraction tail 24 (N+1) / ((N+2)(N+3))
    n_cut = 4000
    partial = sum(24.0 * n / ((n + 2) * (n + 3) * (n + 4)) for n in range(1, n_cut))
    exact_tail = 24.0 * (n_cut + 1) / ((n_cut + 2.0) * (n_cut + 3.0))
    assert partial + exact_tail == pytest.approx(4.0, abs=1e-10)
    value, _ = trace_closed_form(SymbolSpec(1, 1, RadialPower(s=4.0)))
    assert value.real == pytest.approx(4.0, rel=1e-12)


def test_trace_closed_form_radial_mixed_orders_vanish():
    assert trace_closed_form(SymbolSpec(1, 0, RadialPower(s=6.0)))[0] == 0.0
    assert trace_closed_form(SymbolSpec(2, 1, CircleUniform(0.5)))[0] == 0.0


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
    closed = trace_closed_form(symbol)[0].real
    assert closed == pytest.approx(60.0, rel=1e-12)  # finite Beta-sum oracle
    for dim in (1, 2):
        value, tail = trace_matrix(symbol, dim)
        assert value == 0.0
        assert math.isfinite(tail) and tail >= closed
    value, tail = trace_matrix(symbol, 3)
    assert value.real == pytest.approx(3.0 * 4.0 / 7.0, rel=1e-12)  # single entry
    assert tail >= closed - value.real


@pytest.mark.parametrize("order,r0,dim", [(3, 0.9, 128), (3, 0.9, 256), (2, 0.95, 256)])
def test_large_traces_agree_beside_an_exact_tail(order, r0, dim):
    # traces of 1e8..2e9: the closed and matrix values round ~1e-6 apart,
    # more than a fixed 1e-8 beside a tail that is exact; the allowance
    # for that is the rounding bound, a few hundred ulps of the trace
    base = CircleUniform(r0)
    report = trace_report(SymbolSpec(order, order, base), dim=dim)
    closed, matrix = report.route_closed_form.real, report.route_matrix.real
    assert closed > 1e8 and abs(closed - matrix) > 1e-8 + report.matrix_tail
    assert report.agree and 2.0 * report.closed_error < 1e-13 * closed


def test_closed_matrix_gate_rejects_more_than_rounding(monkeypatch):
    # the closed form moved by 1e-13 relative, eight times the rounding
    # allowance and well inside the quadrature route's error bar
    symbol = SymbolSpec(3, 3, CircleUniform(0.9))
    closed, bound = trace_closed_form(symbol)
    closed *= 1.0 + 1e-13
    assert 2.0 * bound < 1.25e-14 * closed.real
    monkeypatch.setattr(spectral, "trace_closed_form", lambda *args, **kwargs: (closed, bound))
    report = trace_report(symbol, dim=1024)
    assert abs(closed - report.route_berezin) <= 1e-5 + report.berezin_error
    assert not report.agree


@pytest.mark.parametrize(
    "symbol",
    [SymbolSpec(3, 2, PointMass(0.98)), SymbolSpec(0, 0, CircleRadialDerivative(0.995))],
    ids=["point-0.98-32", "circle-derivative-0.995"],
)
def test_closed_and_matrix_agree_at_the_cap_next_to_the_circle(symbol):
    # each value within its own bound of the exact trace, so the gap fits
    # in their sum; a series or a hand formula without a bound did not
    closed, closed_error = trace_closed_form(symbol)
    matrix, tail = trace_matrix(symbol, 4096)
    assert abs(closed - matrix) <= spectral.MATRIX_CLOSED_TOL + tail + 2.0 * closed_error


def test_circle_derivative_next_to_the_circle_agrees():
    assert trace_report(SymbolSpec(0, 0, CircleRadialDerivative(0.995)), dim=4096).agree


@pytest.mark.parametrize("z0", [0.9999, 0.99999])
def test_closed_route_next_to_the_circle_is_finite_and_fast(z0):
    # no series to sum: a few dozen pairings, however close |z0| is to 1
    start = time.perf_counter()
    value, bound = trace_closed_form(SymbolSpec(2, 2, PointMass(z0)))
    assert time.perf_counter() - start < 0.1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(z0) ** 2
        reference = 12 * (1 + 6 * x + 3 * x * x) / (1 - x) ** 6  # D(2, 2) at |z0|^2 = x
        assert value.imag == 0.0 and abs(value.real - reference) <= bound


def test_trace_matrix_divergent_diagonal_reports_infinite_tail():
    value, tail = trace_matrix(SymbolSpec(1, 1, RadialPower(s=2.0)), 32)
    assert math.isinf(tail)
    assert value.real > 0.0


def test_trace_linearity_over_combinations():
    terms = ((2.0, PointMass(0.5)), (1.0 + 1.0j, CircleUniform(0.5)))
    combo = SymbolSpec(1, 1, Combination(terms))
    combined, _ = trace_closed_form(combo)
    separate = sum(c * trace_closed_form(SymbolSpec(1, 1, b))[0] for c, b in terms)
    assert abs(combined - separate) <= 1e-10 * max(abs(separate), 1.0)
    m_combined, _ = trace_matrix(combo, 64)
    m_separate = sum(c * trace_matrix(SymbolSpec(1, 1, b), 64)[0] for c, b in terms)
    assert abs(m_combined - m_separate) <= 1e-10 * max(abs(m_separate), 1.0)


def _exact_diagonal_remainder(r: float, alpha: int, beta: int, dim: int) -> float:
    """Sum over n >= dim of (n+1) [n!/(n-alpha)!] [n!/(n-beta)!] r^(2n-alpha-beta)
    at 30 digits, for terms that decrease from n = dim on: the rest of the
    diagonal of a point mass at |z0| = r, and, at alpha = beta, of the
    circle of radius r."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r, total, n = mpmath.mpf(r), mpmath.mpf(0), max(dim, alpha, beta)
        while True:
            term = (n + 1) * mpmath.ff(n, alpha) * mpmath.ff(n, beta) * r ** (2 * n - alpha - beta)
            total += term
            if term < mpmath.mpf(10) ** -30 * total:
                return float(total)
            n += 1


@pytest.mark.parametrize(
    "base,alpha,beta",
    [pytest.param(PointMass(0.9), a, b, id=f"point_{a}{b}") for a, b in ((1, 1), (2, 1), (1, 0))]
    + [pytest.param(CircleUniform(0.9), k, k, id=f"circle_{k}{k}") for k in (0, 1, 2)],
)
def test_trace_matrix_point_mass_near_boundary_tail_is_valid(base, alpha, beta):
    # the point mass and the circle share one tail bound
    symbol = SymbolSpec(alpha, beta, base)
    closed, _ = trace_closed_form(symbol)
    for dim in (64, 200):
        value, tail = trace_matrix(symbol, dim)
        assert math.isfinite(tail)
        assert tail >= _exact_diagonal_remainder(0.9, alpha, beta, dim) * (1.0 - 1e-12)
        # the closed form's tolerance, and a few ulps of rounding in it and the head
        noise = 1e-12 + 16 * np.finfo(float).eps * abs(closed)
        assert abs(closed - value) <= tail + noise


def test_trace_matrix_holds_the_dimension_cap():
    symbol = SymbolSpec(1, 1, PointMass(0.5))
    for dim in (0, 4097):
        with pytest.raises(ValueError, match="truncation dimension"):
            trace_matrix(symbol, dim)


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


def test_trace_berezin_circle_derivative_bar_covers_the_exact_trace():
    # closed-form transform: the bar is the integral's own, the samples'
    # bars included, and must cover the distance to -4 r0 / (1 - r0^2)^3
    for r0 in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        value, err = trace_berezin(SymbolSpec(0, 0, CircleRadialDerivative(r0)))
        assert abs(value - (-4.0 * r0 / (1.0 - r0 * r0) ** 3)) <= err, r0


def _recording_integral(monkeypatch):
    """Record every batch the Berezin route hands to a sampler."""
    batches = []
    original = spectral.invariant_integral

    def recording(sampler, circle, decay):
        def record(z):
            batches.append(z)
            return sampler(z)

        return original(record, circle, decay)

    monkeypatch.setattr(spectral, "invariant_integral", recording)
    return batches


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_trace_berezin_origin_point_mass_takes_the_radial_hint(monkeypatch, alpha):
    # delta_0 is rotation invariant, so at alpha = beta the sampler sees one
    # call of the mesh's real radii, one node per circle
    batches = _recording_integral(monkeypatch)
    symbol = SymbolSpec(alpha, alpha, PointMass(0.0))
    value, err = trace_berezin(symbol)
    closed, _ = trace_closed_form(symbol)
    (z,) = batches
    assert np.all(z.imag == 0.0) and z.size <= 1000
    assert abs(value - closed) <= err and err <= 1e-8 * abs(closed)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 1), (1, 0), (2, 1), (3, 3)])
@pytest.mark.parametrize("z0", [0.3j, cmath.rect(0.4, 0.7), -0.5])
def test_trace_berezin_point_mass_off_the_circle_is_one_sampler_call(monkeypatch, alpha, beta, z0):
    # the circle rule mapped around z0 is exact at its stated degree: one
    # call over the 285 radii, the smallest power of two above it per circle
    batches = _recording_integral(monkeypatch)
    symbol = SymbolSpec(alpha, beta, PointMass(z0))
    value, err = trace_berezin(symbol)
    closed, _ = trace_closed_form(symbol)
    (z,) = batches
    assert z.shape == (285, 1 << (1 + max(alpha, beta)).bit_length())
    assert abs(value - closed) <= err


def test_trace_berezin_sums_the_terms_of_a_combination():
    # term by term: c times each atom's own integral, the bars weighted by |c|
    circle, point = CircleUniform(0.3), PointMass(cmath.rect(0.3, 0.7))
    value, err = trace_berezin(SymbolSpec(1, 1, Combination(((1.0, circle), (0.3j, point)))))
    (v1, e1), (v2, e2) = (trace_berezin(SymbolSpec(1, 1, base)) for base in (circle, point))
    assert value == (1.0 + 0j) * v1 + 0.3j * v2
    assert err == pytest.approx(e1 + 0.3 * e2, rel=1e-15)


def _point_mass_diagonal_sums(z0, orders):
    """The truncation's whole diagonal, sign (n+1) n^(alpha) n^(beta)
    z0^(n-alpha) conj(z0)^(n-beta) summed over n at 50 digits, per order.

    The sum over n of (n+1) n^(a) n^(b) x^n, x = |z0|^2, is read from the
    polynomial's coefficients c_j in powers of n as c_0/(1-x) plus the sum
    of c_j Li_(-j)(x), mpmath's polylogarithm, so it costs no more near the
    circle than at the origin (term by term, |z0| = 0.9999 needs ~10^6
    terms)."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.mpc(z0.real, z0.imag)
        x = abs(z) ** 2
        sums = {}
        for a, b in orders:
            coeffs = [1, 1]  # n + 1, lowest power first
            for k in [*range(a), *range(b)]:  # times n - k
                coeffs = [lo - k * hi for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
            total = coeffs[0] / (1 - x) + mpmath.fsum(c * mpmath.polylog(-j, x) for j, c in enumerate(coeffs) if j)
            phase = z / abs(z)
            sums[(a, b)] = complex((-1) ** (a + b) * total * abs(z) ** -(a + b) * phase ** (b - a))
        return sums


def _radial_diagonal_sums(alpha):
    """The diagonal (p + alpha + 1) ((p + alpha)!/p!)^2 of a rotation-invariant
    kind at (alpha, alpha), per unit moment M(p), as the sum of d_k (p+1)_k
    over k, the d_k exact rationals: its power series in x is then the sum
    of d_k k!/(1-x)^(k+1) in closed form, with no quadrature near x = 1."""
    diagonal = lambda p: (p + alpha + 1) * math.prod(p + k for k in range(1, alpha + 1)) ** 2
    rising = lambda p, k: math.prod(p + i for i in range(1, k + 1))
    d = []
    for j in range(2 * alpha + 2):  # at p = -1 - j the rising factorials past k = j vanish
        d.append(Fraction(diagonal(-1 - j) - sum(dk * rising(-1 - j, k) for k, dk in enumerate(d)), rising(-1 - j, j)))
    return d


def _berezin_route_oracle(base, alpha, beta):
    """The trace at 50 digits: for a radial power, (1-x)^s integrated
    against the diagonal's power series, the sum of d_k k!/(s - k) (mpmath's
    quadrature of the polylog form errs 1.4e-11 at s = 3.2, (1, 1)); for
    the circle that series at r0^2; -4 r0/(1-r0^2)^3 for the circle
    derivative; the point mass's diagonal sum."""
    import mpmath

    with mpmath.workdps(50):
        if isinstance(base, PointMass):
            return _point_mass_diagonal_sums(base.z0, [(alpha, beta)])[(alpha, beta)]
        if isinstance(base, CircleRadialDerivative):
            r0 = mpmath.mpf(base.r0)
            return complex(-4 * r0 / (1 - r0**2) ** 3)
        terms = [mpmath.mpf(d.numerator) / d.denominator * math.factorial(k) for k, d in enumerate(_radial_diagonal_sums(alpha))]
        if isinstance(base, CircleUniform):
            y = 1 - mpmath.mpf(base.r0) ** 2
            return complex(mpmath.fsum(term / y ** (k + 1) for k, term in enumerate(terms)))
        return complex(mpmath.fsum(term / (mpmath.mpf(base.s) - k) for k, term in enumerate(terms)))


@pytest.mark.parametrize(
    "alpha, beta, base",
    [
        (0, 0, RadialPower(1.3)),
        (1, 1, RadialPower(3.2)),
        (1, 1, RadialPower(4.0)),
        (3, 3, RadialPower(8.5)),
        (3, 3, CircleUniform(0.9)),
        (0, 0, CircleRadialDerivative(0.6)),
        (2, 1, PointMass(cmath.rect(0.5, 0.7))),
    ],
    ids=["radial-1.3", "radial-3.2", "radial-4", "radial-8.5", "circle-0.9", "circle-deriv", "point-21"],
)
def test_trace_berezin_within_its_bar_of_mpmath(alpha, beta, base):
    # the trapezoid rule's bar: the half-step gap, the samples' bars, the
    # rounding, and the cut-off tails at the rate the gate's exponent
    # states.  s = 1.3 at (0, 0) decays at rate 0.3 and its tail bound is
    # most of its bar: its error is 0.6 of the bar, so half the bar fails
    value, err = trace_berezin(SymbolSpec(alpha, beta, base))
    assert abs(value - _berezin_route_oracle(base, alpha, beta)) <= err


@pytest.mark.parametrize(
    "z0", [cmath.rect(0.9, 0.7), 0.95, 0.98, 0.99, 0.9999], ids=["0.9e^0.7i", "0.95", "0.98", "0.99", "0.9999"]
)
def test_trace_berezin_point_mass_near_the_circle_within_its_bar_of_mpmath(z0):
    orders = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 3), (3, 2), (3, 3)]
    oracle = _point_mass_diagonal_sums(z0, orders)
    for alpha, beta in orders:
        symbol = SymbolSpec(alpha, beta, PointMass(z0))
        value, err = trace_berezin(symbol)
        assert abs(value - oracle[(alpha, beta)]) <= err, (alpha, beta)
        assert err <= 1e-9 * abs(oracle[(alpha, beta)]), (alpha, beta)


# the nine families of the benchmark's trace workload at seed 7, with
# their drawn radii and turned points written out
_TRACE_WORKLOAD_SEED_7 = {
    "radial-11": (1, 1, RadialPower(4.0)),
    "origin-11": (1, 1, PointMass(0j)),
    "origin-21": (2, 1, PointMass(0j)),
    "point-11": (1, 1, PointMass(complex(-0.3059368749137954, -0.2576870748950764))),
    "point-a0": (1, 0, PointMass(complex(0.2576870748950764, -0.3059368749137954))),
    "point-21": (2, 1, PointMass(complex(0.2576870748950764, 0.3059368749137954))),
    "circle-deriv": (0, 0, CircleRadialDerivative(0.617434018804472)),
    "circle-11": (1, 1, CircleUniform(0.5099975769588011)),
    "graded": (1, 1, Combination(
        ((1.0, CircleUniform(0.3)), (0.3, PointMass(complex(-0.1932653061713073, 0.22945265618534655))))
    )),
}


@pytest.mark.parametrize("family", list(_TRACE_WORKLOAD_SEED_7))
def test_trace_berezin_bar_covers_the_closed_form_on_the_trace_workload(family):
    # the bar is the integral's own, with the samples' error bars summed
    # through its weights; the closed form is within ~1e-14 relative
    symbol = SymbolSpec(*_TRACE_WORKLOAD_SEED_7[family])
    value, err = trace_berezin(symbol)
    closed, _ = trace_closed_form(symbol)
    assert abs(value - closed) <= err


def test_trace_berezin_bar_of_radial_power_is_below_the_old_padding():
    # (alpha+1)!(beta+1)! tol/10 = 4e-9 alone once padded this bar; every
    # sampled transform is now within ~1e-13 relative and carries its own bar
    value, err = trace_berezin(SymbolSpec(1, 1, RadialPower(s=4.0)))
    assert abs(value - 4.0) <= err < 4e-9


def test_trace_report_agrees_on_a_large_point_mass_trace():
    # delta(0.95) at (2, 2): a trace of 1.24e8, which the mapped circle rule
    # integrates to ~1e-13 relative, inside the absolute agreement bar
    report = trace_report(SymbolSpec(2, 2, PointMass(0.95)), 256)
    assert report.agree
    assert abs(report.route_berezin - report.route_closed_form) <= 1e-12 * abs(report.route_closed_form)


@pytest.mark.parametrize(
    "base, conversions",
    [
        (PointMass(cmath.rect(0.4, 0.7)), 2),
        (Combination(((1.0, PointMass(0.3j)), (0.3, PointMass(cmath.rect(0.4, 0.7))))), 4),
    ],
    ids=["point", "two-points"],
)
def test_point_mass_exact_radius_is_formed_once_per_instance(monkeypatch, base, conversions):
    # every pairing of a mass (closed route, matrix tail, boundary weight)
    # reads one exact |z0|^2, formed from its two float parts on first use
    converted = []

    def counting(value):
        converted.append(value)
        return Fraction(value)

    monkeypatch.setattr(measures, "Fraction", counting)
    report = trace_report(SymbolSpec(1, 1, base), 64)
    assert report.agree
    assert len(converted) == conversions


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
    expected = sum(c * trace_closed_form(SymbolSpec(1, 1, b))[0] for c, b in terms)
    assert report.route_closed_form == pytest.approx(expected, rel=1e-10)
    assert abs(report.route_berezin - expected) <= report.berezin_error + 1e-6


# ---------------------------------------------------------------- Jacobi SVD

def test_jacobi_svd_against_numpy_oracle():
    rng = np.random.default_rng(42)
    for n in (3, 8, 17):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = jacobi_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]


def test_jacobi_svd_zero_matrix():
    s = jacobi_svd(np.zeros((4, 4), dtype=complex))
    assert np.all(s == 0.0)


def test_jacobi_sweep_exhaustion_is_a_numerical_failure(monkeypatch, capsys):
    base = Combination(((1.0, CircleUniform(0.6)), (0.3, PointMass(0.4j))))
    op = assemble(SymbolSpec(1, 1, base), 24)
    monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericalFailureError) as info:
        singular_values(op)
    assert info.value.achieved > spectral.JACOBI_SWEEP_TOL
    symbol = json.dumps(symbol_to_config(SymbolSpec(1, 1, base)))
    assert main(["spectrum", "--symbol", symbol, "--dim", "24"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "numerical-failure"


# -------------------------------------------------- exact single-factor route

_FACTOR_KINDS = {
    "radial_power": RadialPower(3.0, a=0.5),
    "point_mass": PointMass(cmath.rect(0.5, 0.7)),
    "circle": CircleUniform(0.6),
    "scaled_point": Combination(((-2.0 + 1.0j, PointMass(0.4j)), (0.0, CircleUniform(0.5)))),
}
_FACTOR_ORDERS = [(0, 0), (1, 1), (1, 0), (2, 1), (1, 2)]
_FACTOR_DIMS = [1, 2, 3, 63, 64, 65, 128, 256]


@pytest.mark.parametrize(
    "symbol",
    [SymbolSpec(a, b, base) for base in _FACTOR_KINDS.values() for a, b in _FACTOR_ORDERS]
    + [SymbolSpec(0, 0, CircleRadialDerivative(0.5))],
    ids=[f"{kind}-{a}{b}" for kind in _FACTOR_KINDS for a, b in _FACTOR_ORDERS]
    + ["circle_radial_derivative-00"],
)
def test_factor_route_agrees_with_lapack(symbol):
    for dim in _FACTOR_DIMS:
        op = assemble(symbol, dim)
        report = singular_values(op)
        ref = np.linalg.svd(op.entries, compute_uv=False)
        assert report.route == "factor"
        assert report.svals.shape == (dim,)
        assert np.all(np.diff(report.svals) <= 0.0)
        assert np.max(np.abs(report.svals - ref)) <= 4.0 * dim * np.finfo(float).eps * ref[0]


def test_rank_one_s0_is_the_norm_product_to_four_ulps():
    import mpmath

    def norm(vector):
        return mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(x)) ** 2 for x in vector))

    with mpmath.workdps(50):
        for z0 in (0.5, cmath.rect(0.5, 0.7), 0.3j, cmath.rect(0.95, 2.0)):
            for alpha, beta in _FACTOR_ORDERS:
                for dim in (3, 64, 256):
                    op = assemble(SymbolSpec(alpha, beta, PointMass(z0)), dim)
                    ((_, factor),) = op.factors
                    exact = norm(factor.row) * norm(factor.col)
                    s0 = singular_values(op).svals[0]
                    assert abs(mpmath.mpf(s0) - exact) <= 4.0 * np.spacing(float(exact))


def test_circle_11_spectrum_is_the_sorted_closed_form():
    # at dim 256 the smallest values are ~1e-258, whose squares underflow
    for r0, dim in ((0.6, 128), (0.3, 256)):
        report = singular_values(assemble(SymbolSpec(1, 1, CircleUniform(r0)), dim))
        exact = sorted(((n + 1) * n * n * r0 ** (2 * n - 2) for n in range(1, dim)), reverse=True) + [0.0]
        np.testing.assert_allclose(report.svals, exact, rtol=1e-14, atol=0.0)


def test_rank_one_zeros_are_exact():
    report = singular_values(assemble(SymbolSpec(1, 1, PointMass(0.5)), 64), rank_tol=0.0)
    assert report.numerical_rank == 1
    assert np.all(report.svals[1:] == 0.0)


def _jacobi_must_not_run(matrix):
    raise AssertionError("jacobi_svd reached")


@pytest.mark.parametrize("base", list(_FACTOR_KINDS.values()), ids=list(_FACTOR_KINDS))
def test_single_factor_skips_jacobi_and_the_dense_matrix(monkeypatch, base):
    monkeypatch.setattr(spectral, "jacobi_svd", _jacobi_must_not_run)
    op = assemble(SymbolSpec(2, 1, base), 32)
    assert singular_values(op).route == "factor"
    assert "entries" not in op.__dict__


def test_several_factors_and_arrays_still_reach_jacobi(monkeypatch):
    base = Combination(((1.0, CircleUniform(0.6)), (0.3, PointMass(0.4j))))
    op = assemble(SymbolSpec(1, 1, base), 16)
    assert singular_values(op).route == "jacobi"
    assert singular_values(np.eye(3)).route == "jacobi"
    monkeypatch.setattr(spectral, "jacobi_svd", _jacobi_must_not_run)
    for matrix in (op, np.eye(3)):
        with pytest.raises(AssertionError, match="jacobi_svd reached"):
            singular_values(matrix)


@pytest.mark.parametrize(
    "symbol",
    [SymbolSpec(1, 1, PointMass(0.6 + 0.3j)), SymbolSpec(2, 1, RadialPower(3.0))],
    ids=["point_mass-11", "radial_power-21"],
)
def test_single_factor_at_the_cap_builds_no_dense_buffer(monkeypatch, symbol):
    monkeypatch.setattr(spectral, "jacobi_svd", _jacobi_must_not_run)
    tracemalloc.start()
    try:
        op = assemble(symbol, 4096)
        report = singular_values(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * 16.0 * 4096 * 4096
    assert report.svals.shape == (4096,) and report.svals[0] > 0.0
    assert "entries" not in op.__dict__


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


@pytest.mark.parametrize("matrix", [np.array(1.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))])
def test_singular_values_need_a_square_matrix(matrix):
    with pytest.raises(ValueError, match="square matrix"):
        singular_values(matrix)


def test_singular_values_read_the_dimension_cap(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_DIMENSION", 4)
    with pytest.raises(ValueError, match="capped at dimension 4"):
        singular_values(np.eye(5))
    assert singular_values(np.eye(4)).numerical_rank == 4


@pytest.mark.parametrize("rank_tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300, 1.0, 2.0])
def test_singular_values_rank_tol_lies_in_unit_interval(rank_tol):
    with pytest.raises(ValueError, match="rank_tol"):
        singular_values(np.eye(3), rank_tol=rank_tol)


def test_singular_values_rank_tol_zero_counts_every_nonzero_value():
    assert singular_values(np.diag([1.0, 1e-100, 0.0]), rank_tol=0.0).numerical_rank == 2


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
