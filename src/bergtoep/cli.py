"""Command-line front end: parse symbol configs, dispatch, emit reports.

Symbol JSON schema (strict; unknown keys are rejected to catch typos):

    {"alpha": int, "beta": int, "measure": {"kind": ..., ...}}

with measure kinds
    radial_power              {"s": float, "a": float (default 0)}
    point_mass                {"re": float, "im": float (default 0)}
    circle_uniform            {"r0": float}
    circle_radial_derivative  {"r0": float}
    combination               {"terms": [{"coeff_re": f, "coeff_im": f,
                                          "measure": {...}}, ...]}

Exit codes: 0 success, 1 usage or config error, 2 numerical failure,
3 trace-class gate failure (the divergence exponent is in the report).
Output is deterministic: identical argv yields byte-identical stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .berezin import berezin_matrix, berezin_series
from .errors import (
    BoundaryError,
    NotTraceClassError,
    NumericalFailureError,
    UnsupportedSymbolError,
)
from .measures import SymbolSpec, carleson_integral, measure_from_config
from .operators import assemble
from .spectral import carleson_bound_estimate, decay_fit, singular_values, trace_report
from .verify import run_examples

__all__ = [
    "main",
    "run_command",
    "emit_report",
    "symbol_to_config",
    "symbol_from_config",
    "parse_complex",
]


class UsageError(ValueError):
    """Bad argv or config; never reaches numeric code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# ---------------------------------------------------------------- symbol codec

def symbol_from_config(obj) -> SymbolSpec:
    if not isinstance(obj, dict):
        raise UsageError("symbol must be a JSON object")
    unknown = set(obj) - {"alpha", "beta", "measure"}
    if unknown:
        raise UsageError(f"unknown symbol keys: {sorted(unknown)}")
    for key in ("alpha", "beta", "measure"):
        if key not in obj:
            raise UsageError(f"symbol config is missing {key!r}")
    alpha, beta = obj["alpha"], obj["beta"]
    if not isinstance(alpha, int) or not isinstance(beta, int):
        raise UsageError("alpha and beta must be integers")
    try:
        return SymbolSpec(alpha=alpha, beta=beta, base=measure_from_config(obj["measure"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def symbol_to_config(symbol: SymbolSpec) -> dict:
    return {
        "alpha": symbol.alpha,
        "beta": symbol.beta,
        "measure": symbol.base.to_config(),
    }


def _parse_symbol_arg(text: str) -> SymbolSpec:
    stripped = text.strip()
    if stripped.startswith("{"):
        payload = stripped
    else:
        try:
            with open(stripped, "r", encoding="utf-8") as handle:
                payload = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read symbol file {stripped!r}: {exc}") from exc
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise UsageError(f"symbol config is not valid JSON: {exc}") from exc
    return symbol_from_config(obj)


def parse_complex(text: str) -> complex:
    """Accept 'a+bi' literals (also plain reals and 'bi')."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex literal {text!r}") from exc


# ---------------------------------------------------------------- serialization

def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:  # NaN has no JSON spelling
        return None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_dump(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.10g}{value.imag:+.10g}i"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _text_table(rows: list[tuple[str, str]]) -> str:
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def emit_report(report, fmt: str) -> str:
    """Render any library report deterministically in json, csv, or text."""
    if fmt == "json":
        return _json_dump(report)
    if fmt == "csv":
        return _to_csv(report)
    if fmt == "text":
        return _to_text(report)
    raise UsageError(f"unknown format {fmt!r}")


def _to_csv(report) -> str:
    kind = report.get("report") if isinstance(report, dict) else None
    if kind == "trace":
        lines = ["route,re,im,error_estimate"]
        routes = report["routes"]
        for name in ("closed_form", "matrix", "berezin"):
            r = routes[name]
            lines.append(
                f"{name},{r['value'].real!r},{r['value'].imag!r},{r['error_estimate']!r}"
            )
        lines.append(f"agree,{int(report['agree'])},,")
        return "\n".join(lines) + "\n"
    if kind == "spectrum":
        lines = ["n,s_n"]
        lines.extend(f"{n},{s!r}" for n, s in enumerate(report["svals"]))
        return "\n".join(lines) + "\n"
    if kind == "matrix":
        lines = [f"{v.real!r},{v.imag!r}" for row in report["entries"] for v in row]
        return "\n".join(lines) + "\n"
    if kind == "berezin":
        lines = ["re_z,im_z,re_value,im_value"]
        for sample in report["samples"]:
            z, v = sample["z"], sample["series"]["value"]
            lines.append(f"{z.real!r},{z.imag!r},{v.real!r},{v.imag!r}")
        return "\n".join(lines) + "\n"
    if kind == "carleson":
        if report.get("bound_probe") is not None:
            lines = ["dim,top_eigenvalue"]
            lines.extend(f"{d},{t!r}" for d, t in report["bound_probe"])
            return "\n".join(lines) + "\n"
        r = report["integral"]
        return (
            "k,finite,value,divergence_exponent\n"
            f"{r['k']},{int(r['finite'])},"
            f"{'' if r['value'] is None else repr(r['value'])},"
            f"{'' if r['divergence_exponent'] is None else repr(r['divergence_exponent'])}\n"
        )
    if kind == "verify":
        lines = ["case,passed,ratio_to_reference"]
        for case in report["cases"]:
            ratio = case["ratio_to_reference"]
            lines.append(
                f"{case['name']},{int(case['passed'])},{'' if ratio is None else repr(ratio)}"
            )
        return "\n".join(lines) + "\n"
    raise UsageError("this report has no CSV rendering")


def _to_text(report) -> str:
    kind = report.get("report") if isinstance(report, dict) else None
    if kind == "trace":
        rows = []
        for name in ("closed_form", "matrix", "berezin"):
            r = report["routes"][name]
            rows.append(
                (name, f"{_format_cell(r['value'])}  (err est {_format_cell(r['error_estimate'])})")
            )
        rows.append(("agree", _format_cell(report["agree"])))
        return _text_table(rows)
    if kind == "spectrum":
        rows = [("numerical_rank", str(report["numerical_rank"]))]
        if report.get("fit") is not None:
            fit = report["fit"]
            rows.append(
                (
                    "decay_fit",
                    f"C={_format_cell(fit['C'])} sigma={_format_cell(fit['sigma'])} "
                    f"residual={_format_cell(fit['residual'])} window={fit['window']}",
                )
            )
        rows.extend((f"s_{n}", _format_cell(s)) for n, s in enumerate(report["svals"][:12]))
        if len(report["svals"]) > 12:
            rows.append(("...", f"{len(report['svals']) - 12} more"))
        return _text_table(rows)
    if kind == "berezin":
        rows = []
        for sample in report["samples"]:
            z = sample["z"]
            rows.append(
                (
                    f"z={_format_cell(z)}",
                    f"series={_format_cell(sample['series']['value'])} "
                    f"matrix={_format_cell(sample['matrix']['value'])} "
                    f"diff={_format_cell(sample['difference'])}",
                )
            )
        return _text_table(rows)
    if kind == "carleson":
        r = report["integral"]
        rows = [("k", str(r["k"])), ("finite", _format_cell(r["finite"]))]
        if r["value"] is not None:
            rows.append(("value", _format_cell(r["value"])))
        if r["divergence_exponent"] is not None:
            rows.append(("divergence_exponent", _format_cell(r["divergence_exponent"])))
        if report.get("bound_probe") is not None:
            for d, t in report["bound_probe"]:
                rows.append((f"dim {d}", f"top eigenvalue {_format_cell(t)}"))
        return _text_table(rows)
    if kind == "verify":
        rows = []
        for case in report["cases"]:
            status = "pass" if case["passed"] else "FAIL"
            ratio = case["ratio_to_reference"]
            extra = "" if ratio is None else f"  ratio_to_reference={_format_cell(ratio)}"
            rows.append((case["name"], f"{status}{extra}"))
        rows.append(("overall", "pass" if report["overall_pass"] else "FAIL"))
        return _text_table(rows)
    if kind == "matrix":
        lines = []
        for row in report["entries"][:8]:
            lines.append("  ".join(_format_cell(v) for v in row[:8]))
        if len(report["entries"]) > 8:
            lines.append("...")
        return "\n".join(lines) + "\n"
    raise UsageError("this report has no text rendering")


# ---------------------------------------------------------------- dispatch

def _cmd_trace(args) -> tuple[str, int]:
    symbol = _parse_symbol_arg(args.symbol)
    report = trace_report(symbol, dim=args.dim, tol=args.tol)
    payload = {
        "report": "trace",
        "symbol": symbol_to_config(symbol),
        "dim": args.dim,
        "routes": {
            "closed_form": {"value": report.route_closed_form, "error_estimate": min(args.tol, 1e-10)},
            "matrix": {"value": report.route_matrix, "error_estimate": report.matrix_tail},
            "berezin": {"value": report.route_berezin, "error_estimate": report.berezin_error},
        },
        "agree": report.agree,
    }
    return emit_report(payload, args.format), 0


def _cmd_spectrum(args) -> tuple[str, int]:
    symbol = _parse_symbol_arg(args.symbol)
    op = assemble(symbol, args.dim)
    report = singular_values(op, rank_tol=args.rank_tol)
    window = tuple(args.window) if args.window else (args.dim // 4, args.dim // 2)
    fit = None
    try:
        fit = decay_fit(report, window)
    except ValueError:
        pass  # degenerate spectra have no meaningful fit window
    payload = {
        "report": "spectrum",
        "symbol": symbol_to_config(symbol),
        "dim": args.dim,
        "svals": [float(s) for s in report.svals],
        "numerical_rank": report.numerical_rank,
        "fit": None
        if fit is None
        else {"C": fit.C, "sigma": fit.sigma, "residual": fit.residual, "window": list(fit.window)},
    }
    return emit_report(payload, args.format), 0


def _cmd_berezin(args) -> tuple[str, int]:
    symbol = _parse_symbol_arg(args.symbol)
    op = assemble(symbol, args.dim)
    samples = []
    for text in args.z:
        z = parse_complex(text)
        series = berezin_series(symbol, z, tol=args.tol)
        matrix = berezin_matrix(op, z)
        samples.append(
            {
                "z": z,
                "series": {"value": series.value, "est_error": series.est_error},
                "matrix": {"value": matrix.value, "est_error": matrix.est_error},
                "difference": abs(series.value - matrix.value),
            }
        )
    payload = {
        "report": "berezin",
        "symbol": symbol_to_config(symbol),
        "dim": args.dim,
        "samples": samples,
    }
    return emit_report(payload, args.format), 0


def _cmd_matrix(args) -> tuple[str, int]:
    symbol = _parse_symbol_arg(args.symbol)
    op = assemble(symbol, args.dim)
    payload = {
        "report": "matrix",
        "symbol": symbol_to_config(symbol),
        "dim": op.dim,
        "is_radial_band": op.is_radial_band,
        "is_hermitian": op.is_hermitian,
        "entries": op.entries.tolist(),
    }
    return emit_report(payload, args.format), 0


def _cmd_carleson(args) -> tuple[str, int]:
    symbol = _parse_symbol_arg(args.symbol)
    report = carleson_integral(symbol.base, args.k)
    probe = None
    if args.dims:
        probe = carleson_bound_estimate(symbol.base, args.k, list(args.dims))
    payload = {
        "report": "carleson",
        "measure": symbol.base.to_config(),
        "integral": {
            "k": report.k,
            "finite": report.finite,
            "value": report.value,
            "divergence_exponent": report.divergence_exponent,
        },
        "bound_probe": probe,
    }
    return emit_report(payload, args.format), 0 if report.finite else 3


def _cmd_verify(args) -> tuple[str, int]:
    report = run_examples(args.filter)
    payload = {
        "report": "verify",
        "overall_pass": report.overall_pass,
        "cases": [
            {
                "name": c.name,
                "kind": c.kind,
                "provenance": c.provenance,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "ratio_to_reference": c.ratio_to_reference,
                "instances": list(c.instances),
            }
            for c in report.cases
        ],
    }
    return emit_report(payload, args.format), 0 if report.overall_pass else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="bergtoep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_dim=True):
        p.add_argument("--symbol", required=True, help="path to a symbol JSON file, or inline JSON")
        if with_dim:
            p.add_argument("--dim", type=int, default=256, help="truncation dimension (default 256)")
        p.add_argument("--tol", type=float, default=1e-8, help="tolerance (default 1e-8)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("trace", help="trace by all three routes with agreement check")
    common(p)
    p = sub.add_parser("spectrum", help="singular values and exponential decay fit")
    common(p)
    p.add_argument("--rank-tol", type=float, default=1e-12, dest="rank_tol")
    p.add_argument("--window", type=int, nargs=2, metavar=("N0", "N1"))
    p = sub.add_parser("berezin", help="Berezin transform by series and matrix routes")
    common(p)
    p.add_argument("--z", action="append", required=True, help="evaluation point 'a+bi' (repeatable)")
    p = sub.add_parser("matrix", help="export the truncated operator matrix")
    common(p)
    p = sub.add_parser("carleson", help="boundary-weight integral and embedding bound probe")
    common(p, with_dim=False)
    p.add_argument("--k", type=int, required=True, help="derivative / Carleson order")
    p.add_argument("--dims", type=int, nargs="+", help="dimensions for the bound probe")
    p = sub.add_parser("verify", help="run the built-in oracle case suite")
    p.add_argument("--filter", help="substring filter on case names")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return parser


_HANDLERS = {
    "trace": _cmd_trace,
    "spectrum": _cmd_spectrum,
    "berezin": _cmd_berezin,
    "matrix": _cmd_matrix,
    "carleson": _cmd_carleson,
    "verify": _cmd_verify,
}


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def run_command(argv: list[str]) -> int:
    """Parse argv, dispatch, print the report; returns the exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        output, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 1
    except NotTraceClassError as exc:
        _emit_error(
            "not-trace-class", str(exc), divergence_exponent=exc.divergence_exponent
        )
        return 3
    except NumericalFailureError as exc:
        _emit_error("numerical-failure", str(exc))
        return 2
    except (UnsupportedSymbolError, BoundaryError, ValueError) as exc:
        _emit_error("config", str(exc))
        return 1
    sys.stdout.write(output)
    return code


def main(argv: list[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
