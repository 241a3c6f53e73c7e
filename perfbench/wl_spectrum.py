"""``spectrum`` workload: in-process ``assemble`` + ``singular_values`` +
``decay_fit``, and the Carleson probe through ``hermitian_eigenvalues``.

References are LAPACK's: ``numpy.linalg.svd`` and ``eigvalsh`` on the
same truncation, compared normwise relative to the largest value.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from common import (
    Case,
    Verdict,
    build_symbol,
    circle,
    combination,
    digest_of,
    point,
    radial,
    rng_for,
    symbol_config,
    turned,
)

# normwise agreement with LAPACK, relative to the largest singular value
SVD_TOL = 1e-12
# verify's decay-circle check: fitted rate within 10% of -2 ln r0
DECAY_TOL = 0.10


def _svd_case(family, alpha, beta, measure, dim, window=None) -> Case:
    params = {"symbol": symbol_config(alpha, beta, measure), "dim": dim, "window": window}
    return Case(f"spectrum/{family}", family, params)


def cases(seed: int) -> list[Case]:
    """The seed draws radii and exponents of the diagonal and band
    families, and turns the point of the dense ones by a quarter turn (the
    number of Jacobi sweeps would otherwise jump with the point).

    Seven cases, so the median case time is one family's (the probe's),
    not an average across the gap between two cost groups."""
    r = {f: rng_for(seed, f) for f in (
        "rank-one-11", "one-sided-10", "graded", "circle-11", "radial-diag", "radial-band",
        "carleson-probe",
    )}
    z0 = cmath.rect(0.5, 0.7)
    return [
        _svd_case("rank-one-11", 1, 1, point(turned(r["rank-one-11"], z0)), 128),
        _svd_case("one-sided-10", 1, 0, point(turned(r["one-sided-10"], z0)), 128),
        _svd_case("graded", 1, 1, combination(
            (1.0, circle(0.6)), (0.3, point(turned(r["graded"], 0.4j)))), 256, (20, 60)),
        _svd_case("circle-11", 1, 1, circle(r["circle-11"].uniform(0.55, 0.65)), 128, (20, 60)),
        _svd_case("radial-diag", 1, 1, radial(r["radial-diag"].uniform(3.5, 4.5)), 128),
        _svd_case("radial-band", 2, 1, radial(r["radial-band"].uniform(2.8, 3.2)), 128),
        Case("spectrum/carleson-probe", "carleson-probe", {
            "measure": combination(
                (1.0, circle(0.6)), (0.5, point(turned(r["carleson-probe"], cmath.rect(0.4, 0.7))))),
            "k": 1,
            "dims": [16, 32, 64],
        }),
    ]


def warmups() -> list[Case]:
    out = []
    for c in cases(0):
        if c.family == "carleson-probe":
            out.append(Case(c.id + "/warmup", c.family, {**c.params, "dims": [4, 8]}))
        else:
            window = None if c.params["window"] is None else (0, 5)
            out.append(Case(c.id + "/warmup", c.family, {**c.params, "dim": 8, "window": window}))
    return out


def _matrix(case: Case) -> np.ndarray:
    from bergtoep import assemble

    return assemble(build_symbol(case.params["symbol"]), case.params["dim"]).entries


def prepare(case: Case):
    if case.family == "carleson-probe":
        from bergtoep import SymbolSpec, assemble

        base = build_symbol(symbol_config(0, 0, case.params["measure"])).base
        k = case.params["k"]
        return [
            float(np.linalg.eigvalsh(assemble(SymbolSpec(k, k, base), d).entries)[-1])
            for d in case.params["dims"]
        ]
    return np.linalg.svd(_matrix(case), compute_uv=False)


def run(case: Case, ctx):
    from bergtoep import assemble, carleson_bound_estimate, decay_fit, singular_values

    if case.family == "carleson-probe":
        base = build_symbol(symbol_config(0, 0, case.params["measure"])).base
        return carleson_bound_estimate(base, case.params["k"], case.params["dims"])
    op = assemble(build_symbol(case.params["symbol"]), case.params["dim"])
    report = singular_values(op)
    fit = decay_fit(report, tuple(case.params["window"])) if case.params["window"] else None
    return report, fit


def digest(out) -> str:
    if isinstance(out, list):
        return digest_of(out)
    report, fit = out
    return digest_of(report.svals, report.numerical_rank, fit)


def check(case: Case, out, ref) -> Verdict:
    v = Verdict()
    if case.family == "carleson-probe":
        dims = case.params["dims"]
        v.require([d for d, _ in out] == dims, "probe dimensions differ from the request")
        scale = max(max(abs(x) for x in ref), 1e-300)
        for (d, top), top_ref in zip(out, ref):
            v.compare(f"top eigenvalue dim {d}", top / scale, top_ref / scale, None, headline=True)
        return v
    report, fit = out
    svals = np.asarray(report.svals)
    v.require(svals.shape == ref.shape, "wrong number of singular values")
    if svals.shape == ref.shape:
        dev = float(np.max(np.abs(svals - ref))) / float(ref[0])
        v.err_ref = max(v.err_ref, dev)
        v.require(dev <= SVD_TOL, f"singular values off LAPACK's by {dev:.3e} of s0")
    if fit is not None:
        # the fit residual is the one error figure the spectral API reports
        v.estimates.append(fit.residual)
        if case.family == "circle-11":
            r0 = case.params["symbol"]["measure"]["r0"]
            sigma_ref = -2.0 * math.log(r0)
            rel = abs(fit.sigma - sigma_ref) / sigma_ref
            v.require(rel <= DECAY_TOL, f"decay rate off -2 ln r0 by {rel:.3f}")
    return v
