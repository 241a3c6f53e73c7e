"""``cli`` workload: one ``bergtoep`` process at a time, every command.

Each case is a fresh ``python -m bergtoep.cli`` process, so import and
serialization cost count in full.  The traced run calls
``bergtoep.cli.run_command`` in-process with stdout and stderr captured;
both runs must produce the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from common import (
    Case,
    Verdict,
    build_symbol,
    circle,
    combination,
    digest_of,
    point,
    polar,
    radial,
    rng_for,
    symbol_config,
)

# normwise agreement of exported numbers with an independent computation
ARRAY_TOL = 1e-12
# radial s=4 (1,1) at |z| = 0.95: the hypergeometric branch reports a bar
# far below its true error; kept so the defect stays counted
KNOWN_BAR_POINT = 0.95 + 0.0j


def _z_arg(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _case(family: str, command: str, expect: int, **params) -> Case:
    return Case(f"cli/{family}", family, {"command": command, "expect": expect, **params})


def cases(seed: int) -> list[Case]:
    r = {f: rng_for(seed, f) for f in (
        "matrix-csv", "berezin-radial", "berezin-point", "spectrum-small",
        "carleson-dims", "trace-ok", "trace-reject",
    )}
    rb, rp = r["berezin-radial"], r["berezin-point"]
    return [
        _case("matrix-csv", "matrix", 0, format="csv", dim=512,
              symbol=symbol_config(1, 1, point(polar(r["matrix-csv"], 0.4, 0.6)))),
        # two points on the power-series side of |z|^2 = 0.81, one on the
        # hypergeometric side, and the known point
        _case("berezin-radial", "berezin", 0, dim=256, symbol=symbol_config(1, 1, radial(4.0)),
              z=[polar(rb, 0.3, 0.6), polar(rb, 0.6, 0.85), polar(rb, 0.91, 0.94), KNOWN_BAR_POINT]),
        _case("berezin-point", "berezin", 0, dim=4096,
              symbol=symbol_config(1, 1, point(polar(rp, 0.3, 0.5))),
              z=[polar(rp, 0.2, 0.5), polar(rp, 0.5, 0.7)]),
        _case("spectrum-small", "spectrum", 0, dim=48, window=[10, 30],
              symbol=symbol_config(1, 1, combination(
                  (1.0, circle(r["spectrum-small"].uniform(0.55, 0.65))),
                  (0.3, point(polar(r["spectrum-small"], 0.3, 0.5)))))),
        _case("carleson-dims", "carleson", 0, k=1, dims=[16, 32, 64],
              symbol=symbol_config(0, 0, radial(r["carleson-dims"].uniform(4.5, 6.0)))),
        _case("verify-norm", "verify", 0, filter="ex42-norm"),
        _case("trace-ok", "trace", 0, dim=120,
              symbol=symbol_config(0, 0, {"kind": "circle_radial_derivative",
                                          "r0": r["trace-ok"].uniform(0.3, 0.7)})),
        _case("trace-reject", "trace", 3,
              symbol=symbol_config(1, 1, radial(r["trace-reject"].uniform(1.5, 2.5)))),
    ]


def warmups() -> list[Case]:
    """Every command once at toy size (used by the set-up measurement)."""
    out = []
    for c in cases(0):
        p = dict(c.params)
        if "dim" in p:
            p["dim"] = 8
        if c.family == "spectrum-small":
            p["window"] = [0, 5]
        if c.family == "carleson-dims":
            p["dims"] = [4, 8]
        out.append(Case(c.id + "/warmup", c.family, p))
    return out


def argv(case: Case) -> list[str]:
    p = case.params
    args = [p["command"]]
    if "symbol" in p:
        args += ["--symbol", json.dumps(p["symbol"], sort_keys=True)]
    if "dim" in p:
        args += ["--dim", str(p["dim"])]
    for z in p.get("z", []):
        args.append(f"--z={_z_arg(z)}")
    if "window" in p:
        args += ["--window", *map(str, p["window"])]
    if "k" in p:
        args += ["--k", str(p["k"])]
    if "dims" in p:
        args += ["--dims", *map(str, p["dims"])]
    if "filter" in p:
        args += ["--filter", p["filter"]]
    if "format" in p:
        args += ["--format", p["format"]]
    return args


def run(case: Case, ctx):
    """One CLI process; returns (exit code, stdout bytes, stderr bytes)."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bergtoep.cli", *argv(case)],
        cwd=ctx.root, env=env, capture_output=True, timeout=170, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(case: Case, ctx):
    from bergtoep.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv(case))
    return code, out.getvalue().encode(), err.getvalue().encode()


def digest(out) -> str:
    return digest_of(*out)


def stdout_bytes(out) -> int:
    return len(out[1])


# ------------------------------------------------------------- references

def prepare(case: Case):
    import refs

    p = case.params
    fam = case.family
    if fam == "matrix-csv":
        m = p["symbol"]["measure"]
        z0 = complex(m["re"], m["im"])
        n = np.arange(p["dim"], dtype=float)
        # e_n' = sqrt(n+1) n z^(n-1); entries[n, m] = conj(v_n) v_m
        v = np.sqrt(n + 1.0) * n * np.array([z0 ** max(int(k) - 1, 0) for k in n])
        return np.outer(v.conj(), v)
    if fam.startswith("berezin"):
        return [refs.berezin(p["symbol"], z) for z in p["z"]]
    if fam == "spectrum-small":
        from bergtoep import assemble

        entries = assemble(build_symbol(p["symbol"]), p["dim"]).entries
        return np.linalg.svd(entries, compute_uv=False)
    if fam == "carleson-dims":
        from bergtoep import SymbolSpec, assemble

        m = p["symbol"]["measure"]
        base = build_symbol(p["symbol"]).base
        k = p["k"]
        tops = [float(np.linalg.eigvalsh(assemble(SymbolSpec(k, k, base), d).entries)[-1])
                for d in p["dims"]]
        return refs.beta(m.get("a", 0.0) + 1.0, m["s"] - (2 * k + 2) + 1.0), tops
    if fam == "verify-norm":
        return {  # the displayed norm identity, FORMULA_COVERAGE's ex42-norm
            f"z0={z0}": math.sqrt(1.0 + 2.0 * z0 * z0) / (math.sqrt(2.0) * (1.0 - z0 * z0) ** 2)
            for z0 in (0.0, 0.3, 0.5)
        }
    if fam == "trace-ok":
        return refs.trace(p["symbol"])
    if fam == "trace-reject":
        m = p["symbol"]["measure"]
        return m["s"] - (p["symbol"]["alpha"] + p["symbol"]["beta"] + 2)
    raise ValueError(f"unknown cli family {fam!r}")


def _c(obj) -> complex:
    return complex(obj["re"], obj["im"])


def check(case: Case, out, ref) -> Verdict:
    code, stdout, stderr = out
    v = Verdict()
    p = case.params
    v.require(code == p["expect"], f"exit code {code}, expected {p['expect']}: {stderr[-300:]!r}")
    if code != p["expect"]:
        return v
    try:
        _check_output(case, stdout, stderr, ref, v)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        v.require(False, f"unparseable output: {type(exc).__name__}: {exc}")
    return v


def _check_output(case: Case, stdout: bytes, stderr: bytes, ref, v: Verdict) -> None:
    p = case.params
    fam = case.family
    if fam == "matrix-csv":
        lines = stdout.decode().splitlines()
        v.require(len(lines) == p["dim"] ** 2, f"{len(lines)} CSV lines for dim {p['dim']}")
        vals = np.array([[float(x) for x in line.split(",")] for line in lines])
        got = (vals[:, 0] + 1j * vals[:, 1]).reshape(p["dim"], p["dim"])
        dev = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        v.err_ref = max(v.err_ref, dev)
        v.require(dev <= ARRAY_TOL, f"matrix off the reference by {dev:.3e} (Frobenius, relative)")
        return
    if fam == "trace-reject":
        v.require(stdout == b"", "a rejected trace printed a report")
        err = json.loads(stderr)["error"]
        v.require(err["type"] == "not-trace-class", f"error type {err['type']!r}")
        v.compare("divergence exponent", err["divergence_exponent"], ref, None, headline=True)
        return
    report = json.loads(stdout)
    if fam.startswith("berezin"):
        samples = report["samples"]
        v.require(len(samples) == len(p["z"]), "sample count differs from the request")
        for z, sample, value_ref in zip(p["z"], samples, ref):
            v.require(_c(sample["z"]) == z, f"sample point {sample['z']} is not {z}")
            series, matrix = sample["series"], sample["matrix"]
            s_val, m_val = _c(series["value"]), _c(matrix["value"])
            v.compare(f"series z={z}", s_val, value_ref, series["est_error"], headline=True)
            v.compare(f"matrix z={z}", m_val, value_ref, matrix["est_error"])
            v.compare(f"series-vs-matrix z={z}", s_val, m_val,
                      series["est_error"] + matrix["est_error"])
            v.estimate(series["est_error"], s_val)
            v.estimate(matrix["est_error"], m_val)
    elif fam == "spectrum-small":
        svals = np.array(report["svals"])
        dev = float(np.max(np.abs(svals - ref))) / float(ref[0])
        v.err_ref = max(v.err_ref, dev)
        v.require(dev <= ARRAY_TOL, f"singular values off LAPACK's by {dev:.3e} of s0")
        v.require(report["fit"] is not None, "no decay fit for the requested window")
        v.estimates.append(report["fit"]["residual"])
    elif fam == "carleson-dims":
        value_ref, tops_ref = ref
        integral = report["integral"]
        v.require(integral["finite"], "finite Carleson integral reported divergent")
        v.compare("carleson integral", integral["value"], value_ref, None, headline=True)
        probe = report["bound_probe"]
        v.require([d for d, _ in probe] == p["dims"], "probe dimensions differ from the request")
        scale = max(abs(t) for t in tops_ref)
        for (d, top), top_ref in zip(probe, tops_ref):
            v.compare(f"top eigenvalue dim {d}", top / scale, top_ref / scale, None, headline=True)
    elif fam == "verify-norm":
        v.require(report["overall_pass"], "verify reports a failing case")
        rows = [row for case_ in report["cases"] for row in case_["instances"]]
        v.require(len(rows) == len(ref), "verify ran another instance set")
        for row in rows:
            v.compare(row["label"], row["series_norm"], ref[row["label"]], None, headline=True)
    elif fam == "trace-ok":
        v.require(report["agree"], "routes disagree")
        routes = report["routes"]
        for name in ("closed_form", "matrix", "berezin"):
            r = routes[name]
            v.compare(name, _c(r["value"]), ref, r["error_estimate"], headline=name == "closed_form")
            if name != "closed_form":
                v.estimate(r["error_estimate"], _c(r["value"]))
