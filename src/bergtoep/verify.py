"""Built-in oracle cases: every worked closed-form value the library must
reproduce, run as an executable suite with route comparisons.

Each case pins either a published closed-form value or a derived oracle
(telescoping sums, independent series).  Route agreement always gates the
outcome; for the radial-weight trace family the reference display has an
ambiguous normalization, so there the ratio to the reference is reported
while only route agreement decides pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bergman import kernel_deriv_norm
from .berezin import berezin_series, weighted_berezin_radial
from .measures import CircleRadialDerivative, CircleUniform, PointMass, RadialPower, SymbolSpec
from .numutil import int_factorial
from .operators import assemble
from .spectral import decay_fit, singular_values, trace_closed_form, trace_report

__all__ = ["OracleCase", "CaseResult", "VerifyReport", "run_examples", "built_in_cases", "FORMULA_COVERAGE"]

# default tolerances: closed-form vs matrix comparisons, and quadrature routes
TRACE_TOL = 1e-8
NORM_TOL = 1e-10
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class OracleCase:
    """One named verification case (possibly bundling several instances)."""

    name: str
    kind: str
    provenance: str  # "closed-form-reference" | "derived-oracle"
    tolerance: float
    reference_gates: bool = True


@dataclass(frozen=True)
class CaseResult:
    name: str
    kind: str
    provenance: str
    tolerance: float
    passed: bool
    ratio_to_reference: float | None
    instances: tuple[dict, ...]


@dataclass(frozen=True)
class VerifyReport:
    cases: tuple[CaseResult, ...]
    overall_pass: bool


def built_in_cases() -> tuple[OracleCase, ...]:
    return (
        OracleCase("decay-circle", "decay", "derived-oracle", 0.10),
        OracleCase(
            "ex41-berezin-identity", "berezin-identity", "closed-form-reference", IDENTITY_TOL
        ),
        OracleCase(
            "ex41-k2-trace", "trace", "closed-form-reference", TRACE_TOL,
            reference_gates=False,  # normalization adjudicated by route agreement
        ),
        OracleCase("ex42-alpha0", "trace", "closed-form-reference", TRACE_TOL),
        OracleCase("ex42-delta0", "trace", "closed-form-reference", TRACE_TOL),
        OracleCase("ex42-norm", "norm", "closed-form-reference", NORM_TOL),
        OracleCase("ex42-trace-11", "trace", "closed-form-reference", TRACE_TOL),
        OracleCase("ex43-trace", "trace", "closed-form-reference", TRACE_TOL),
        OracleCase("rank-one", "rank-one", "derived-oracle", 1e-8),
    )


# one displayed reference formula -> the case that exercises it
FORMULA_COVERAGE = {
    "radial-weight trace k/((k-1)(2k-3))": "ex41-k2-trace",
    "weighted-transform identity": "ex41-berezin-identity",
    "origin point-derivative trace a!(a+1)!": "ex42-delta0",
    "point trace 2(1+2|z0|^2)/(1-|z0|^2)^4": "ex42-trace-11",
    "norm identity sqrt(1+2|z0|^2)/(sqrt(2)(1-|z0|^2)^2)": "ex42-norm",
    "one-sided derivative trace (-1)^a (a+1)! conj(z0)^a/(1-|z0|^2)^(2+a)": "ex42-alpha0",
    "circle radial-derivative trace -4 r0/(1-r0^2)^3": "ex43-trace",
}


def _trace_instance(symbol: SymbolSpec, dim: int, reference: complex | None,
                    tolerance: float, reference_gates: bool, label: str) -> dict:
    report = trace_report(symbol, dim=dim, reference_value=reference)
    closed = report.route_closed_form
    row = {
        "label": label,
        "closed_form": closed,
        "matrix": report.route_matrix,
        "matrix_tail": report.matrix_tail,
        "berezin": report.route_berezin,
        "berezin_error": report.berezin_error,
        "routes_agree": report.agree,
        "reference": reference,
        "ratio_to_reference": report.reference_ratio,
    }
    ok = report.agree
    if reference is not None and reference_gates:
        ok = ok and abs(closed - reference) <= tolerance
        row["reference_deviation"] = abs(closed - reference)
    row["passed"] = bool(ok)
    return row


def _trace_rows():
    """(case, symbol, dim, reference, label) for every trace instance, in
    report order."""
    # k/((k-1)(2k-3)) at k = 2
    rows = [("ex41-k2-trace", SymbolSpec(1, 1, RadialPower(s=4.0)), 400, 2.0 + 0.0j, "s=4,alpha=beta=1")]
    rows += [("ex42-delta0", SymbolSpec(a, a, PointMass(0.0)), 64,
              complex(int_factorial(a) * int_factorial(a + 1)), f"alpha=beta={a}")
             for a in (0, 1, 2)]
    rows += [("ex42-delta0", SymbolSpec(a, b, PointMass(0.0)), 64, 0.0 + 0.0j, f"alpha={a},beta={b}")
             for a, b in ((1, 0), (2, 1))]
    rows += [("ex42-trace-11", SymbolSpec(1, 1, PointMass(z0)), 128,
              complex(2.0 * (1.0 + 2.0 * (z0 * z0)) / (1.0 - z0 * z0) ** 4), f"z0={z0}")
             for z0 in (0.3, 0.5)]
    rows += [("ex42-alpha0", SymbolSpec(a, 0, PointMass(0.5)), 128,
              complex((-1.0) ** a * int_factorial(a + 1) * 0.5**a / (1.0 - 0.5 * 0.5) ** (2 + a)),
              f"alpha={a},beta=0")
             for a in (1, 2)]
    rows += [("ex43-trace", SymbolSpec(0, 0, CircleRadialDerivative(r0)), 120,
              complex(-4.0 * r0 / (1.0 - r0 * r0) ** 3), f"r0={r0}")
             for r0 in (0.3, 0.5, 0.7)]
    return rows


def _run_trace_case(case: OracleCase) -> tuple[tuple[dict, ...], float | None]:
    rows = tuple(
        _trace_instance(symbol, dim, reference, case.tolerance, case.reference_gates, label)
        for name, symbol, dim, reference, label in _trace_rows()
        if name == case.name
    )
    if not rows:
        raise ValueError(f"unknown trace case {case.name}")
    ratio = rows[0]["ratio_to_reference"] if len(rows) == 1 else None
    return rows, ratio


def _run_identity_case(case: OracleCase) -> tuple[tuple[dict, ...], float | None]:
    # transform of the weight (1-|w|^2)^(2k) with orders alpha = beta
    # against the weighted transform of (1-|w|^2)^(2k-alpha)
    k, alpha = 2, 1
    symbol = SymbolSpec(alpha, alpha, RadialPower(s=2.0 * k))
    rows = []
    for radius in (0.2, 0.4, 0.6):
        for angle in (0.0, 1.0471975511965976):  # 0 and pi/3
            z = radius * complex(math.cos(angle), math.sin(angle))
            lhs = berezin_series(symbol, z).value
            t = (z * z.conjugate()).real
            rhs = (
                int_factorial(alpha)
                * int_factorial(alpha + 1)
                * t**alpha
                * (1.0 - t) ** (-alpha)
                * weighted_berezin_radial((2.0 * k - alpha, 0.0), alpha, z)
            )
            dev = abs(lhs - rhs)
            rows.append(
                {
                    "label": f"z={z.real:g}{z.imag:+g}i",
                    "transform": lhs,
                    "weighted_identity": rhs,
                    "deviation": dev,
                    "passed": bool(dev <= case.tolerance),
                }
            )
    return tuple(rows), None


def _run_norm_case(case: OracleCase) -> tuple[tuple[dict, ...], float | None]:
    rows = []
    for z0 in (0.0, 0.3, 0.5):
        x = z0 * z0
        reference = math.sqrt(1.0 + 2.0 * x) / (math.sqrt(2.0) * (1.0 - x) ** 2)
        # the displayed function is w (1 - w conj(z0))^(-3), half the
        # first kernel derivative
        computed = kernel_deriv_norm(z0, 1) / 2.0
        dev = abs(computed - reference)
        rows.append(
            {
                "label": f"z0={z0}",
                "series_norm": computed,
                "reference": reference,
                "deviation": dev,
                "ratio_to_reference": computed / reference,
                "passed": bool(dev <= case.tolerance),
            }
        )
    return tuple(rows), None


def _run_decay_case(case: OracleCase) -> tuple[tuple[dict, ...], float | None]:
    r0 = 0.6
    op = assemble(SymbolSpec(1, 1, CircleUniform(r0)), 128)
    report = singular_values(op)
    fit = decay_fit(report, (20, 60))
    reference_sigma = -2.0 * math.log(r0)
    rel_dev = abs(fit.sigma - reference_sigma) / reference_sigma
    row = {
        "label": f"r0={r0},window=(20,60)",
        "sigma": fit.sigma,
        "reference_sigma": reference_sigma,
        "relative_deviation": rel_dev,
        "residual": fit.residual,
        "C": fit.C,
        "passed": bool(rel_dev <= case.tolerance),
    }
    return (row,), fit.sigma / reference_sigma


def _run_rank_one_case(case: OracleCase) -> tuple[tuple[dict, ...], float | None]:
    z0 = 0.5
    rows = []
    for alpha, beta in ((0, 0), (1, 1), (1, 0)):
        symbol = SymbolSpec(alpha, beta, PointMass(z0))
        op = assemble(symbol, 128)
        svals = singular_values(op).svals
        ratio = float(svals[1] / svals[0])
        norm_product = kernel_deriv_norm(z0, alpha) * kernel_deriv_norm(z0, beta)
        row = {
            "label": f"alpha={alpha},beta={beta}",
            "s0": float(svals[0]),
            "s1_over_s0": ratio,
            "norm_product": norm_product,
            "s0_deviation": abs(float(svals[0]) - norm_product),
        }
        ok = ratio <= 1e-10 and row["s0_deviation"] <= case.tolerance * max(1.0, norm_product)
        if alpha == beta:
            trace = trace_closed_form(symbol)[0].real
            row["trace"] = trace
            ok = ok and abs(float(svals[0]) - trace) <= case.tolerance * max(1.0, abs(trace))
        row["passed"] = bool(ok)
        rows.append(row)
    return tuple(rows), None


_RUNNERS = {
    "trace": _run_trace_case,
    "berezin-identity": _run_identity_case,
    "norm": _run_norm_case,
    "decay": _run_decay_case,
    "rank-one": _run_rank_one_case,
}


def run_examples(case_filter: str | None = None) -> VerifyReport:
    """Run the built-in oracle cases (optionally filtered by substring).

    Individual case failures are recorded in the report, never raised;
    results are ordered by case name and fully deterministic.
    """
    results = []
    for case in sorted(built_in_cases(), key=lambda c: c.name):
        if case_filter is not None and case_filter not in case.name:
            continue
        rows, ratio = _RUNNERS[case.kind](case)
        results.append(
            CaseResult(
                name=case.name,
                kind=case.kind,
                provenance=case.provenance,
                tolerance=case.tolerance,
                passed=all(r["passed"] for r in rows),
                ratio_to_reference=ratio,
                instances=rows,
            )
        )
    return VerifyReport(
        cases=tuple(results),
        overall_pass=all(r.passed for r in results),
    )
