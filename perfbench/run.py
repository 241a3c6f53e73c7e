"""bergtoep benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload trace|spectrum|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` times the workload untraced
and prints every end-to-end metric; ``--trace 1`` runs it with spans
around each bergtoep module's public functions and prints the per-layer
metrics.  Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; results and spans are
also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("trace", "spectrum", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _report_failures(cases, verdicts) -> None:
    for case, v in zip(cases, verdicts):
        for note in v.notes:
            kind = "FAIL" if not v.value_ok else "bar"
            print(f"  {kind:4s} {case.id}: {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "bergtoep" / "__init__.py").is_file():
        print(f"error: no bergtoep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    ctx = harness.load(ROOT, args.workload, args.seed, args.seconds)
    if args.setup_child:
        harness.setup_child(ctx)
        return 0
    return _traced(ctx) if args.trace else _untraced(ctx)


def _prepare(ctx):
    from envinfo import environment

    cases = ctx.wl.cases(ctx.seed)
    refs = [ctx.wl.prepare(case) for case in cases]
    env = environment(ctx.root, ctx.seed)
    print("env " + json.dumps(env, sort_keys=True))
    return cases, refs, env


def _untraced(ctx) -> int:
    import harness

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    cases, refs, env = _prepare(ctx)
    if ctx.wl.run is ctx.in_process:
        harness.warm(ctx)
    setup_seconds, setup_probes = [], []

    def set_up():
        seconds, probes = harness.setup_sample(ctx)
        setup_seconds.append(seconds)
        setup_probes.extend(probes)

    passes, first = harness.timed_passes(ctx, cases, ctx.wl.run, ctx.seconds, between=set_up)
    while len(setup_seconds) < harness.SETUP_MIN:
        set_up()
    f = harness.speed_factor(harness.run_probes(passes, setup_probes))
    verdicts = harness.judge(ctx, cases, refs, first, passes)
    values = harness.end_to_end(ctx, setup_seconds, f, passes, verdicts)
    attempted = len(cases) * len(passes)
    failed, flagged = harness.failure_counts(verdicts, len(passes))
    values["failed_frac"] = flagged / attempted

    path = harness.write_json(ctx, "result", {
        "env": env, "workload": ctx.workload, "seconds": ctx.seconds,
        "setup_samples": setup_seconds, "setup_probe_s": setup_probes, "speed_factor": f,
        "metrics": values,
        "cases": harness.case_rows(cases, passes, verdicts),
    })
    print(f"{ctx.workload}: seed {ctx.seed}, {len(passes)} passes x {len(cases)} cases "
          f"= {attempted} timed cases; results in {path.relative_to(ctx.root)}")
    for name, value in values.items():
        print(f"  {name:16s} {value:.6g} {units.get(name, 'ratio')}")
    _report_failures(cases, verdicts)
    _emit(failed == 0, attempted, failed, values, units)
    return 0


def _traced(ctx) -> int:
    import harness
    from tracer import Tracer

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    cases, refs, env = _prepare(ctx)
    harness.warm(ctx)
    start = time.perf_counter()
    # reference pass with the untimed-run runner: every later pass must match its digests
    reference, first = harness.timed_passes(ctx, cases, ctx.wl.run, 0.0)
    untraced = reference if ctx.wl.run is ctx.in_process else []
    traced = []
    tracer = Tracer()
    stdout_bytes = getattr(ctx.wl, "stdout_bytes", None)

    def traced_call(case, ctx_):
        tracer.case = case.id
        out = ctx_.in_process(case, ctx_)
        if stdout_bytes is not None:
            tracer.count("cli.stdout_bytes", stdout_bytes(out))
        return out

    def one_pass(call):
        rows, _ = harness.timed_passes(ctx, cases, call, 0.0)
        return rows

    def another_fits():
        return harness.fits(time.perf_counter() - start, reference + untraced + traced, ctx.seconds)

    # traced and untraced in-process passes alternate, so drift hits both
    while True:
        restore = tracer.install()
        try:
            traced += one_pass(traced_call)
        finally:
            restore()
        if not untraced or another_fits():
            untraced += one_pass(ctx.in_process)
        if not another_fits():
            break
    passes = reference + untraced + traced
    verdicts = harness.judge(ctx, cases, refs, first, passes)
    attempted = len(cases) * len(passes)
    failed, flagged = harness.failure_counts(verdicts, len(passes))
    untraced_s = statistics.median(harness.pass_seconds(untraced))
    traced_s = statistics.median(harness.pass_seconds(traced))
    values = harness.layer_metrics(ctx, units, tracer, len(traced), untraced_s, traced_s,
                                   flagged / attempted)
    shares = harness.layer_shares(tracer, sum(harness.pass_seconds(traced)))

    path = harness.write_json(ctx, "spans", {
        "env": env, "workload": ctx.workload, "seconds": ctx.seconds,
        "metrics": values, "layer_shares": shares, "counters": tracer.counters,
        "cases": harness.case_rows(cases, passes, verdicts), "spans": tracer.to_json(),
    })
    print(f"{ctx.workload}: seed {ctx.seed}, {len(traced)} traced and {len(untraced)} untraced "
          f"passes; spans in {path.relative_to(ctx.root)}")
    print("  layer self-time shares: " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    _report_failures(cases, verdicts)
    _emit(failed == 0, attempted, failed, values, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
