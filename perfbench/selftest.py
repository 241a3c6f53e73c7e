"""Tests of the benchmark itself: references, checker, seeding, tracing.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the library's test suite (the file name does not match
``test_*.py``); it runs every workload's cases for a few seeds, about a
minute in all.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import refs  # noqa: E402
from common import Verdict  # noqa: E402

SEEDS = (0, 1, 2)


def _ctx(workload: str):
    return harness.load(ROOT, workload, 0, 0.0)


def _known_bar_defect(case_id: str, note: str) -> bool:
    """The hypergeometric branch (|z|^2 > 0.81) of berezin_series reports
    bars far below its true error (an open item); nothing else may fail."""
    if case_id != "cli/berezin-radial" or not note.startswith("series z="):
        return False
    z = complex(note.split("=", 1)[1].split(":", 1)[0])
    return abs(z) ** 2 > 0.81


@pytest.mark.parametrize("workload", ["trace", "spectrum", "cli"])
def test_every_seed_passes_its_checks(workload):
    ctx = _ctx(workload)
    for seed in SEEDS:
        for case in ctx.wl.cases(seed):
            verdict = ctx.wl.check(case, ctx.wl.run(case, ctx), ctx.wl.prepare(case))
            assert verdict.value_ok, (seed, case.id, verdict.notes)
            assert all(_known_bar_defect(case.id, n) for n in verdict.notes), (seed, case.id, verdict.notes)


def test_known_bar_point_is_flagged():
    ctx = _ctx("cli")
    case = next(c for c in ctx.wl.cases(0) if c.family == "berezin-radial")
    assert case.params["z"][-1] == 0.95
    verdict = ctx.wl.check(case, ctx.wl.run(case, ctx), ctx.wl.prepare(case))
    assert not verdict.bar_ok
    assert any(n.startswith("series z=(0.95+0j)") for n in verdict.notes)


def test_checker_flags_perturbed_values():
    trace = _ctx("trace")
    case = next(c for c in trace.wl.cases(0) if c.family == "circle-deriv")
    out = trace.wl.run(case, trace)
    ref = trace.wl.prepare(case)
    assert trace.wl.check(case, out, ref).value_ok
    bad = dataclasses.replace(out, route_closed_form=out.route_closed_form * (1 + 1e-7))
    assert not trace.wl.check(case, bad, ref).value_ok

    spectrum = _ctx("spectrum")
    case = next(c for c in spectrum.wl.cases(0) if c.family == "circle-11")
    (report, fit), ref = spectrum.wl.run(case, spectrum), spectrum.wl.prepare(case)
    svals = report.svals.copy()
    svals[5] += 1e-9 * svals[0]
    bad = dataclasses.replace(report, svals=svals)
    assert not spectrum.wl.check(case, (bad, fit), ref).value_ok

    cli = _ctx("cli")
    case = next(c for c in cli.wl.cases(0) if c.family == "trace-ok")
    code, stdout, stderr = cli.wl.run(case, cli)
    ref = cli.wl.prepare(case)
    report = json.loads(stdout)
    report["routes"]["matrix"]["value"]["re"] *= 1 + 1e-6
    assert not cli.wl.check(case, (code, json.dumps(report).encode(), stderr), ref).value_ok
    assert not cli.wl.check(case, (1, stdout, stderr), ref).value_ok


def test_digest_change_fails_the_case():
    ctx = _ctx("spectrum")
    case = next(c for c in ctx.wl.cases(0) if c.family == "radial-band")
    out = ctx.wl.run(case, ctx)
    passes = [[harness.Execution(0.1, "a", 0.01)], [harness.Execution(0.1, "b", 0.01)]]
    (verdict,) = harness.judge(ctx, [case], [ctx.wl.prepare(case)], [out], passes)
    assert not verdict.value_ok


def test_cases_follow_the_seed():
    for workload in ("trace", "spectrum", "cli"):
        wl = _ctx(workload).wl
        assert wl.cases(7) == wl.cases(7)
        assert wl.cases(7) != wl.cases(8)
        assert [c.family for c in wl.cases(7)] == [c.family for c in wl.cases(8)]


def test_references_match_the_displayed_formulas():
    """The mpmath diagonal sums reproduce verify's FORMULA_COVERAGE entries."""
    def sym(alpha, beta, measure):
        return {"alpha": alpha, "beta": beta, "measure": measure}

    def pm(z0):
        return {"kind": "point_mass", "re": z0.real, "im": z0.imag}

    for a in (0, 1, 2):
        want = math.factorial(a) * math.factorial(a + 1)
        assert refs.trace(sym(a, a, pm(0j))) == pytest.approx(want, rel=1e-14)
    z0 = 0.3 + 0.2j
    x = abs(z0) ** 2
    assert refs.trace(sym(1, 1, pm(z0))) == pytest.approx(2 * (1 + 2 * x) / (1 - x) ** 4, rel=1e-14)
    for a in (1, 2):
        want = (-1) ** a * math.factorial(a + 1) * z0.conjugate() ** a / (1 - x) ** (2 + a)
        assert refs.trace(sym(a, 0, pm(z0))) == pytest.approx(want, rel=1e-14)
    r0 = 0.45
    want = -4 * r0 / (1 - r0 * r0) ** 3
    got = refs.trace(sym(0, 0, {"kind": "circle_radial_derivative", "r0": r0}))
    assert got == pytest.approx(want, rel=1e-14)
    # radial weight s = 2k: the library's normalization gives twice the
    # displayed k/((k-1)(2k-3)), which verify only reports as a ratio
    assert refs.trace(sym(1, 1, {"kind": "radial_power", "s": 4.0})) == pytest.approx(4.0, rel=1e-14)


def test_berezin_reference_matches_point_mass_closed_form():
    from bergtoep import PointMass, SymbolSpec, berezin_series

    z0, z = 0.4 - 0.1j, 0.2 + 0.5j
    config = {"alpha": 1, "beta": 2, "measure": {"kind": "point_mass", "re": z0.real, "im": z0.imag}}
    want = berezin_series(SymbolSpec(1, 2, PointMass(z0)), z).value
    assert refs.berezin(config, z) == pytest.approx(want, rel=1e-13)


def test_tracer_counts_and_restores():
    from tracer import Tracer

    import bergtoep.spectral as spectral
    from bergtoep import CircleRadialDerivative, SymbolSpec

    original = spectral.trace_berezin
    tracer = Tracer()
    restore = tracer.install()
    try:
        spectral.trace_report(SymbolSpec(0, 0, CircleRadialDerivative(0.5)), dim=32)
    finally:
        restore()
    assert spectral.trace_berezin is original
    totals = tracer.totals()
    assert totals["spectral.trace_berezin"]["calls"] == 1
    assert tracer.counters["berezin.sample.points"] > 0
    integral = totals["berezin.invariant_integral"]
    assert 0.0 <= integral["self_s"] <= integral["s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verdict_floors_and_slack():
    v = Verdict()
    v.compare("exact", 1.0, 1.0, None, headline=True)
    assert v.value_ok and v.bar_ok and v.err_ref == pytest.approx(1e-17)
    v.compare("inside slack", 1.0 + 1e-12, 1.0, 0.0)
    assert v.value_ok and not v.bar_ok
