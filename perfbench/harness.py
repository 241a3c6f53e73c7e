"""Closed-loop runner: set-up timing, timed passes, checks and metrics.

One process runs one workload.  Cases run one at a time, the next only
after the previous returns, in passes over the workload's case list.
Passes repeat while the next one is expected to end within half a pass of
``--seconds``; at least one always runs.  Every output is checked against its reference after the
timed loop, and every pass must reproduce the first pass's digests.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import speed
from common import FLOOR, Verdict

HERE = Path(__file__).resolve().parent
WORKLOADS = {"trace": "wl_trace", "spectrum": "wl_spectrum", "cli": "wl_cli"}
# fresh set-up interpreters per run: one after each timed pass, at least this many
SETUP_MIN = 3
# speed probes timed right before and right after each set-up interpreter
SETUP_PROBES = 2
# share of the probe times dropped at each end before averaging them
PROBE_TRIM = 0.1
OUT_DIR = ".perfbench_out"


@dataclass
class Ctx:
    root: Path
    workload: str
    seed: int
    seconds: float
    wl: ModuleType

    @property
    def in_process(self):
        """Runner that executes cases inside this interpreter."""
        return getattr(self.wl, "run_in_process", self.wl.run)


@dataclass
class Execution:
    seconds: float
    digest: str
    probe_s: float  # speed probe timed right before the case
    probe_after_s: float = 0.0  # and right after it

    def at_reference(self) -> float:
        """Seconds at the reference speed of the probes around this case."""
        return self.seconds * 2.0 * speed.REFERENCE_S / (self.probe_s + self.probe_after_s)


class Crash:
    """Output of a case that raised where it should have returned."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def load(root: Path, workload: str, seed: int, seconds: float) -> Ctx:
    return Ctx(root, workload, seed, seconds, importlib.import_module(WORKLOADS[workload]))


def _digest(ctx: Ctx, out) -> str:
    return out.text if isinstance(out, Crash) else ctx.wl.digest(out)


def timed_passes(ctx: Ctx, cases, call, budget: float, between=None):
    """Run passes while the next one is expected to end by ``budget``, give
    or take half a pass, so the measured time averages out near ``budget``.
    ``between``, if given, runs after each pass, outside the budget.

    Returns the per-pass executions and the first pass's outputs.
    """
    passes, first = [], []
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        rows = []
        for case in cases:
            probe_s = speed.probe()
            if rows:
                rows[-1].probe_after_s = probe_s
            t0 = time.perf_counter()
            try:
                out = call(case, ctx)
            except Exception as exc:  # a crashing case is a failed case, not a dead run
                out = Crash(exc)
            rows.append(Execution(time.perf_counter() - t0, _digest(ctx, out), probe_s))
            if not passes:
                first.append(out)
        rows[-1].probe_after_s = speed.probe()
        passes.append(rows)
        elapsed += time.perf_counter() - start
        if between is not None:
            between()
        if not fits(elapsed, passes, budget):
            return passes, first


def fits(elapsed: float, passes, budget: float) -> bool:
    """Whether one more pass is expected to end within half a pass of ``budget``."""
    return elapsed + 0.5 * statistics.median(pass_seconds(passes)) <= budget


def pass_seconds(passes) -> list[float]:
    return [sum(e.seconds for e in rows) for rows in passes]


def judge(ctx: Ctx, cases, refs, first, passes) -> list[Verdict]:
    verdicts = []
    for i, case in enumerate(cases):
        out = first[i]
        if isinstance(out, Crash):
            verdict = Verdict()
            verdict.require(False, out.text)
        else:
            verdict = ctx.wl.check(case, out, refs[i])
        digests = {rows[i].digest for rows in passes}
        verdict.require(len(digests) == 1, f"output changed between passes ({len(digests)} digests)")
        verdicts.append(verdict)
    return verdicts


def setup_sample(ctx: Ctx) -> tuple[float, list[float]]:
    """One fresh interpreter that imports bergtoep and runs one warm-up per
    family: its seconds, and the speed probes timed right around it.

    Set-up samples run between the timed passes, so the run's probes cover
    the same stretch of time as both.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", ctx.workload,
           "--seed", str(ctx.seed), "--setup-child"]
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ctx.root, check=True, capture_output=True, timeout=170)
    seconds = time.perf_counter() - t0
    probes += [speed.probe() for _ in range(SETUP_PROBES)]
    return seconds, probes


def setup_child(ctx: Ctx) -> None:
    importlib.import_module("bergtoep.cli" if ctx.workload == "cli" else "bergtoep")
    warm(ctx)


def warm(ctx: Ctx) -> None:
    for case in ctx.wl.warmups():
        ctx.in_process(case, ctx)


def measure_cli_import(ctx: Ctx) -> float:
    cmd = [sys.executable, "-c", "import bergtoep.cli"]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    samples = []
    for _ in range(SETUP_MIN):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ctx.root, env=env, check=True, capture_output=True, timeout=170)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb(ctx: Ctx) -> float:
    who = resource.RUSAGE_SELF if ctx.wl.run is ctx.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _digits(x: float) -> float:
    """-log10 of a relative error, clamped to [FLOOR, 1]."""
    return -math.log10(min(max(x, FLOOR), 1.0))


def speed_factor(probes) -> float:
    """Reference probe time over this run's trimmed mean probe time.

    The host switches between a fast and a slow speed several times a second,
    so the probe times have two modes; their mean follows the share of time
    spent slow, where their median would jump from one mode to the other.
    """
    probes = sorted(probes)
    cut = int(PROBE_TRIM * len(probes))
    return speed.REFERENCE_S / statistics.fmean(probes[cut:len(probes) - cut])


def run_probes(passes, setup_probes=()) -> list[float]:
    return [e.probe_s for rows in passes for e in rows] + list(setup_probes)


def case_means(passes, f: float, bracketed: bool) -> list[float]:
    """Each case's mean time over the passes, at the reference speed.

    ``bracketed`` cases ran in this process, on the CPU the probes around
    them ran on, and are scaled by those probes; cases run in a child
    process, maybe on the other CPU, are scaled by the run's factor ``f``.
    """
    return [
        statistics.fmean(rows[i].at_reference() if bracketed else f * rows[i].seconds
                         for rows in passes)
        for i in range(len(passes[0]))
    ]


def end_to_end(ctx: Ctx, setup_seconds, f, passes, verdicts) -> dict:
    """Timings are at the reference speed (see ``speed``); the rest as
    measured.  Set-up is scaled by the run's factor ``f``.  A pass is the
    sum of the cases' mean times, and the case percentiles are taken over
    the same means (see ``case_means``).
    """
    estimates = [e for v in verdicts for e in v.estimates]
    per_case = case_means(passes, f, bracketed=ctx.wl.run is ctx.in_process)
    quartiles = statistics.quantiles(per_case, n=4, method="inclusive")
    return {
        "setup_s": f * statistics.median(setup_seconds),
        "pass_s": sum(per_case),
        "case_s.p50": quartiles[1],
        "case_s.p75": quartiles[2],
        "peak_rss_mb": peak_rss_mb(ctx),
        "err_est.digits": statistics.fmean(_digits(e) for e in estimates),
        "err_ref.digits": _digits(max(v.err_ref for v in verdicts)),
    }


def failure_counts(verdicts, n_passes: int) -> tuple[int, int]:
    """(failed executions, executions failing a value or a bar check)."""
    failed = sum(not v.value_ok for v in verdicts) * n_passes
    flagged = sum(not (v.value_ok and v.bar_ok) for v in verdicts) * n_passes
    return failed, flagged


def layer_metrics(ctx: Ctx, spec, tracer, n_passes, untraced_s, traced_s, flagged_frac) -> dict:
    totals = tracer.totals()
    counters = tracer.counters
    integrals = totals.get("berezin.invariant_integral", {}).get("calls", 0)
    special = {
        "berezin.sample.points_per_integral":
            counters.get("berezin.sample.points", 0) / integrals if integrals else 0.0,
        "cli.import_s": measure_cli_import(ctx) if ctx.workload == "cli" else 0.0,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "failed_frac": flagged_frac,
    }
    out = {}
    for name in spec:
        if name in special:
            out[name] = special[name]
        elif name in counters:
            out[name] = counters[name] / n_passes
        else:
            span, _, stat = name.rpartition(".")
            out[name] = totals.get(span, {}).get(stat, 0) / n_passes
    return out


def layer_shares(tracer, case_seconds: float) -> dict:
    """Self time per module as a share of the traced cases' wall time."""
    from tracer import LAYERS

    shares = {layer: 0.0 for layer in LAYERS}
    for name, row in tracer.totals().items():
        shares[name.split(".")[0]] += row["self_s"]
    shares["berezin"] += tracer.counters.get("berezin.sample.s", 0.0)
    shares = {k: v / case_seconds for k, v in shares.items()}
    shares["outside"] = 1.0 - sum(shares.values())
    return shares


def write_json(ctx: Ctx, suffix: str, payload) -> Path:
    out_dir = ctx.root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{ctx.workload}-seed{ctx.seed}-{suffix}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=repr))
    return path


def case_rows(cases, passes, verdicts) -> list[dict]:
    return [
        {
            "id": case.id,
            "params": case.params,
            "seconds": [rows[i].seconds for rows in passes],
            "probe_s": [rows[i].probe_s for rows in passes],
            "probe_after_s": [rows[i].probe_after_s for rows in passes],
            "digest": passes[0][i].digest,
            "value_ok": v.value_ok,
            "bar_ok": v.bar_ok,
            "err_ref": v.err_ref,
            "estimates": v.estimates,
            "notes": v.notes,
        }
        for i, (case, v) in enumerate(zip(cases, verdicts))
    ]
