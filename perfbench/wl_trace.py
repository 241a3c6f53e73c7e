"""``trace`` workload: in-process ``trace_report`` over the verify families
plus a graded, non-radial combination.

Each case runs all three trace routes.  The reference is the mpmath
diagonal sum; every route must land within its own reported bar.
"""

from __future__ import annotations

import cmath

from common import (
    Case,
    Verdict,
    build_symbol,
    circle,
    circle_derivative,
    combination,
    digest_of,
    point,
    radial,
    rng_for,
    symbol_config,
    turned,
)

# trace_report's closed-form route sums to this absolute tolerance
CLOSED_FORM_TOL = 1e-10


def _case(family: str, alpha: int, beta: int, measure: dict, dim: int) -> Case:
    return Case(f"trace/{family}", family, {"symbol": symbol_config(alpha, beta, measure), "dim": dim})


def cases(seed: int) -> list[Case]:
    """One case per family.  The seed draws radii where the work does not
    depend on them, and otherwise turns a fixed point by a quarter turn."""
    r = {f: rng_for(seed, f) for f in (
        "point-11", "point-a0", "point-21", "circle-deriv", "circle-11", "graded",
    )}
    z0 = cmath.rect(0.4, 0.7)
    return [
        _case("radial-11", 1, 1, radial(4.0), 400),
        _case("origin-11", 1, 1, point(0j), 64),
        _case("origin-21", 2, 1, point(0j), 64),
        _case("point-11", 1, 1, point(turned(r["point-11"], z0)), 128),
        _case("point-a0", 1, 0, point(turned(r["point-a0"], z0)), 128),
        _case("point-21", 2, 1, point(turned(r["point-21"], z0)), 128),
        _case("circle-deriv", 0, 0, circle_derivative(r["circle-deriv"].uniform(0.3, 0.7)), 120),
        _case("circle-11", 1, 1, circle(r["circle-11"].uniform(0.4, 0.6)), 128),
        _case("graded", 1, 1, combination(
            (1.0, circle(0.3)), (0.3, point(turned(r["graded"], cmath.rect(0.3, 0.7))))), 256),
    ]


def warmups() -> list[Case]:
    """Small instances of every family: same code paths, little work."""
    small = {"tol": 1e-1}
    return [
        Case(c.id + "/warmup", c.family, {**c.params, "dim": 8, **small})
        for c in cases(0)
        if c.family != "graded"
    ] + [
        Case("trace/graded/warmup", "graded", {
            "symbol": symbol_config(1, 1, combination((1.0, circle(0.05)), (0.3, point(0.05j)))),
            "dim": 8, **small,
        })
    ]


def prepare(case: Case):
    import refs

    return refs.trace(case.params["symbol"])


def run(case: Case, ctx):
    from bergtoep import trace_report

    symbol = build_symbol(case.params["symbol"])
    return trace_report(symbol, dim=case.params["dim"], tol=case.params.get("tol", 1e-8))


def digest(out) -> str:
    return digest_of(
        out.route_closed_form, out.route_matrix, out.matrix_tail,
        out.route_berezin, out.berezin_error, out.agree,
    )


def check(case: Case, out, ref) -> Verdict:
    v = Verdict()
    v.require(out.agree, "routes disagree")
    v.compare("closed_form", out.route_closed_form, ref, CLOSED_FORM_TOL, headline=True)
    v.compare("matrix", out.route_matrix, ref, out.matrix_tail)
    v.compare("berezin", out.route_berezin, ref, out.berezin_error)
    v.estimate(out.matrix_tail, out.route_matrix)
    v.estimate(out.berezin_error, out.route_berezin)
    return v
