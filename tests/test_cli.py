"""CLI grammar, exit codes, serialization, and output determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergtoep.cli import (
    main,
    parse_complex,
    symbol_from_config,
    symbol_to_config,
)
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
)

EX43 = '{"alpha":0,"beta":0,"measure":{"kind":"circle_radial_derivative","r0":0.5}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_command_reports_three_routes(capsys, tmp_path):
    path = tmp_path / "ex43.json"
    path.write_text(EX43, encoding="utf-8")
    code, out, _ = run(capsys, "trace", "--symbol", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    expected = -4.0 * 0.5 / 0.75**3
    for route in ("closed_form", "matrix", "berezin"):
        assert payload["routes"][route]["value"]["re"] == pytest.approx(expected, rel=1e-6)
    assert payload["agree"] is True


def test_trace_command_rejects_divergent_symbol(capsys):
    code, out, err = run(
        capsys,
        "trace",
        "--symbol",
        '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":2,"a":0}}',
    )
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "not-trace-class"
    assert payload["error"]["divergence_exponent"] == pytest.approx(-2.0)


def test_trace_command_accepts_admissible_radial_power(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--symbol",
        '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":4,"a":0}}',
        "--dim",
        "400",
    )
    assert code == 0
    assert json.loads(out)["routes"]["closed_form"]["value"]["re"] == pytest.approx(4.0)


def test_spectrum_command_csv(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "--symbol",
        '{"alpha":0,"beta":0,"measure":{"kind":"circle_uniform","r0":0.5}}',
        "--dim",
        "8",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s_n"
    assert len(lines) == 9
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


def test_matrix_command_csv_row_major(capsys):
    code, out, _ = run(
        capsys,
        "matrix",
        "--symbol",
        '{"alpha":0,"beta":0,"measure":{"kind":"point_mass","re":0.5,"im":0}}',
        "--dim",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    rows = [tuple(float(v) for v in line.split(",")) for line in out.strip().splitlines()]
    assert len(rows) == 4  # row-major entries, one line each, re and im columns
    assert rows[0] == (1.0, 0.0)
    assert rows[1][0] == pytest.approx(math.sqrt(2) * 0.5)
    assert rows[3][0] == pytest.approx(0.5)


def test_berezin_command_grid_csv(capsys):
    code, out, _ = run(
        capsys,
        "berezin",
        "--symbol",
        '{"alpha":0,"beta":0,"measure":{"kind":"point_mass","re":0.5,"im":0}}',
        "--dim",
        "64",
        "--z",
        "0.5",
        "--z",
        "0.3+0.2i",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_z,im_z,re_value,im_value"
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] == pytest.approx(16.0 / 9.0)


def test_carleson_command_probe_and_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "carleson",
        "--symbol",
        '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":4,"a":0}}',
        "--k",
        "1",
        "--dims",
        "8",
        "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"]["finite"] is True
    assert payload["integral"]["value"] == pytest.approx(1.0)
    assert [d for d, _ in payload["bound_probe"]] == [8, 16]
    # a divergent boundary integral still emits its report (including any
    # probe, which needs no integrability) but is flagged via exit code 3
    code, out, _ = run(
        capsys,
        "carleson",
        "--symbol",
        '{"alpha":0,"beta":0,"measure":{"kind":"radial_power","s":0,"a":0}}',
        "--k",
        "0",
        "--dims",
        "8",
        "16",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["integral"]["divergence_exponent"] == pytest.approx(-2.0)
    for _, top in payload["bound_probe"]:
        assert top == pytest.approx(1.0, abs=1e-12)


def test_verify_command_text_table(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "ex43", "--format", "text")
    assert code == 0
    assert "ex43-trace" in out and "pass" in out


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "trace", "--symbol", '{"alpha":0}')
    assert code == 1
    assert json.loads(err)["error"]["type"] == "usage"
    code, _, err = run(capsys, "trace", "--symbol", '{"alpha":0,"beta":0,"measure":{"kind":"nope"}}')
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_boolean_derivative_orders_rejected(capsys):
    # JSON true/false are ints to isinstance; they are not derivative orders
    bad = '{"alpha":true,"beta":true,"measure":{"kind":"circle_uniform","r0":0.5}}'
    code, out, err = run(capsys, "trace", "--symbol", bad)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert error["message"] == "alpha and beta must be integers"


def test_spectrum_explicit_bad_window_exits_one(capsys):
    symbol = '{"alpha":0,"beta":0,"measure":{"kind":"circle_uniform","r0":0.5}}'
    code, out, err = run(capsys, "spectrum", "--symbol", symbol, "--dim", "16", "--window", "12", "3")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    assert "fit window must span more than 4 indices" in error["message"]
    # the default window of a degenerate spectrum still falls back to no fit
    code, out, _ = run(capsys, "spectrum", "--symbol", symbol, "--dim", "8")
    assert code == 0
    assert json.loads(out)["fit"] is None


def test_spectrum_window_over_exact_rank_one_zeros_exits_one(capsys):
    # s_1.. of a point mass are exact zeros, not rounding noise to fit a line to
    symbol = '{"alpha":1,"beta":1,"measure":{"kind":"point_mass","re":0.5,"im":0}}'
    code, out, err = run(capsys, "spectrum", "--symbol", symbol, "--dim", "64", "--window", "20", "40")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    assert "zero or underflowed" in error["message"]
    code, out, _ = run(capsys, "spectrum", "--symbol", symbol, "--dim", "64")
    assert code == 0
    report = json.loads(out)
    assert report["fit"] is None
    assert report["numerical_rank"] == 1 and report["svals"][1:] == [0.0] * 63


@pytest.mark.parametrize("rank_tol", ["-1", "1", "1.5"])
def test_spectrum_rank_tol_outside_unit_interval_exits_one(capsys, rank_tol):
    symbol = '{"alpha":0,"beta":0,"measure":{"kind":"circle_uniform","r0":0.5}}'
    code, out, err = run(capsys, "spectrum", "--symbol", symbol, "--dim", "16", f"--rank-tol={rank_tol}")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    assert "rank_tol must lie in [0, 1)" in error["message"]


def test_unknown_keys_rejected(capsys):
    bad = '{"alpha":0,"beta":0,"measure":{"kind":"circle_uniform","r0":0.5,"radius":2}}'
    code, _, err = run(capsys, "trace", "--symbol", bad)
    assert code == 1
    assert "unknown keys" in json.loads(err)["error"]["message"]


def test_output_determinism(capsys):
    argv = (
        "trace",
        "--symbol",
        '{"alpha":1,"beta":1,"measure":{"kind":"point_mass","re":0.5,"im":0}}',
        "--dim",
        "64",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_cli_import_leaves_scipy_unloaded():
    # the library needs numpy alone, also for the radial-power transform,
    # evaluated here at |z| = 0.95
    import bergtoep

    src = str(Path(bergtoep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, bergtoep.cli\n"
        "from bergtoep import RadialPower, SymbolSpec, berezin_series\n"
        "berezin_series(SymbolSpec(1, 1, RadialPower(s=4.0)), 0.95)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


POINT = '{"alpha":1,"beta":1,"measure":{"kind":"point_mass","re":0.3,"im":0}}'


@pytest.mark.parametrize(
    "argv",
    [
        ("berezin", "--symbol", POINT, "--z=nan"),
        ("berezin", "--symbol", POINT, "--z=0.3+nani"),
        ("berezin", "--symbol", POINT, "--z=1e400"),
        ("spectrum", "--symbol", POINT, "--dim", "8", "--rank-tol", "nan"),
        ("spectrum", "--symbol", POINT, "--dim", "8", "--rank-tol=-inf"),
    ]
    # Python's json reads NaN and Infinity in a symbol config
    + [
        (command, "--symbol", symbol, *extra)
        for symbol in (
            '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":Infinity}}',
            '{"alpha":1,"beta":1,"measure":{"kind":"radial_power","s":4,"a":Infinity}}',
            '{"alpha":1,"beta":1,"measure":{"kind":"combination","terms":[{"coeff_re":NaN,'
            '"measure":{"kind":"point_mass","re":0.3}}]}}',
        )
        for command, *extra in (("trace",), ("berezin", "--z=0.3"), ("spectrum", "--dim", "8"), ("carleson", "--k", "1"))
    ]
    # measure fields are JSON numbers: no bools, no strings, no int past the float range
    + [
        ("trace", "--symbol", '{"alpha":1,"beta":1,"measure":{"kind":"%s",%s}}' % kind_fields)
        for kind_fields in (
            ("radial_power", '"s":true'),
            ("radial_power", '"s":4,"a":"0"'),
            ("circle_uniform", '"r0":"0.5"'),
            ("circle_radial_derivative", '"r0":true'),
            ("point_mass", '"re":false'),
            ("point_mass", '"re":0.3,"im":"0"'),
            ("radial_power", '"s":1' + "0" * 400),
            ("combination", '"terms":[{"coeff_re":true,"measure":{"kind":"point_mass","re":0.3}}]'),
            ("combination", '"terms":[{"coeff_im":"1","measure":{"kind":"point_mass","re":0.3}}]'),
        )
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--symbol", POINT, "--dim", "2"),
        ("spectrum", "--symbol", POINT, "--dim", "8"),
        ("carleson", "--symbol", POINT, "--k", "1"),
        ("berezin", "--symbol", POINT, "--dim", "8", "--z=0.3"),
        ("trace", "--symbol", POINT, "--dim", "8"),
    ],
)
def test_commands_that_read_no_tolerance_reject_tol(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--tol", "123")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and "--tol" in error["message"]


def _kernel_pairing(terms, alpha: int, beta: int):
    """(-1)^(alpha+beta) sum of c D(alpha, beta)(w) over (c, w) at 50
    digits, D by mpmath's derivatives of (1 - x y)^(-2) at x = w, y = conj(w)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return (-1) ** (alpha + beta) * mpmath.fsum(
            mpmath.mpc(c) * mpmath.diff(lambda x, y: (1 - x * y) ** -2, (mpmath.mpc(w), mpmath.conj(mpmath.mpc(w))), (alpha, beta))
            for c, w in terms
        )


@pytest.mark.parametrize(
    "measure,alpha,beta,terms",
    [
        # a circle is its kernel at r0 for alpha = beta: 2.09e9, whose
        # rounding once outgrew a fixed 1e-10 bar
        ({"kind": "circle_uniform", "r0": 0.9}, 3, 3, [(1, 0.9)]),
        ({"kind": "point_mass", "re": 0.95}, 2, 2, [(1, 0.95)]),
        ({"kind": "point_mass", "re": 0.6, "im": 0.3}, 2, 1, [(1, 0.6 + 0.3j)]),
        (
            {"kind": "combination", "terms": [
                {"coeff_re": 0.5, "coeff_im": 0.0, "measure": {"kind": "circle_uniform", "r0": 0.7}},
                {"coeff_re": 1.0, "coeff_im": -2.0, "measure": {"kind": "point_mass", "re": 0.4, "im": 0.5}},
            ]},
            1, 1, [(0.5, 0.7), (1 - 2j, 0.4 + 0.5j)],
        ),
    ],
)
def test_trace_closed_form_bar_covers_a_50_digit_value(capsys, measure, alpha, beta, terms):
    symbol = json.dumps({"alpha": alpha, "beta": beta, "measure": measure})
    code, out, _ = run(capsys, "trace", "--symbol", symbol, "--dim", "32")
    assert code == 0
    route = json.loads(out)["routes"]["closed_form"]
    value, bar = complex(route["value"]["re"], route["value"]["im"]), route["error_estimate"]
    ref = _kernel_pairing(terms, alpha, beta)
    assert 0.0 < bar <= 1e-12 * abs(complex(ref))
    assert abs(value - ref) <= bar
    # CSV and text carry the same bar
    _, csv_out, _ = run(capsys, "trace", "--symbol", symbol, "--dim", "32", "--format", "csv")
    assert csv_out.splitlines()[1].split(",")[3] == repr(bar)
    _, text_out, _ = run(capsys, "trace", "--symbol", symbol, "--dim", "32", "--format", "text")
    assert f"(err est {bar:.10g})" in text_out.splitlines()[0]


NEAR_CIRCLE = '{"alpha":16,"beta":16,"measure":{"kind":"circle_uniform","r0":0.999999999999}}'


@pytest.mark.parametrize("argv", [("trace", "--symbol", NEAR_CIRCLE), ("carleson", "--symbol", NEAR_CIRCLE, "--k", "16")])
def test_float_overflow_is_a_numerical_failure(capsys, argv):
    # (1 - r0^2)^-34 is past the float range: exit 2 with a JSON error,
    # not a traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "numerical-failure"


def test_numerical_failure_reports_its_partial_value_and_achieved_accuracy(capsys):
    # s = 1.01 integrates, but its Berezin integrand decays like (1 - t)^0.01:
    # the bound on the tail past 1 - t = 1.7e-15 exceeds the sampled mass,
    # exit 2 with how far the integral got
    symbol = '{"alpha":0,"beta":0,"measure":{"kind":"radial_power","s":1.01}}'
    code, out, err = run(capsys, "trace", "--symbol", symbol, "--dim", "64")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert set(error) == {"type", "message", "partial", "achieved"}
    assert set(error["partial"]) == {"re", "im"} and error["partial"]["re"] > 0.0
    assert error["achieved"] > 0.0
    # an overflow carries neither
    _, _, err = run(capsys, "trace", "--symbol", NEAR_CIRCLE)
    assert json.loads(err)["error"]["partial"] is None and json.loads(err)["error"]["achieved"] is None


def test_trace_holds_the_dimension_cap(capsys):
    symbol = '{"alpha":1,"beta":1,"measure":{"kind":"point_mass","re":0.5}}'
    code, out, err = run(capsys, "trace", "--dim", "20000", "--symbol", symbol)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "config", "message": "truncation dimension capped at 4096"}


@pytest.mark.parametrize(
    "alpha,beta,z0,dim", [(2, 2, 0.9999, "256"), (3, 2, 0.98, "4096")], ids=["0.9999-2-2", "0.98-3-2-dim4096"]
)
def test_trace_of_a_point_mass_near_the_circle_agrees(capsys, alpha, beta, z0, dim):
    # the Berezin route's circle rule, mapped around z0, is exact at its
    # stated degree, so rounding noise near the peak fails nothing
    symbol = json.dumps({"alpha": alpha, "beta": beta, "measure": {"kind": "point_mass", "re": z0, "im": 0}})
    code, out, _ = run(capsys, "trace", "--symbol", symbol, "--dim", dim, "--format", "json")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_parse_complex_literals():
    assert parse_complex("0.3") == 0.3
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("-0.2-0.4i") == -0.2 - 0.4j
    assert parse_complex("0.5i") == 0.5j
    with pytest.raises(ValueError):
        parse_complex("robot")
    for text in ("nan", "0.3+nani", "1e400"):
        with pytest.raises(ValueError, match="not finite"):
            parse_complex(text)


def test_symbol_config_round_trip_examples():
    symbols = [
        SymbolSpec(0, 0, CircleRadialDerivative(0.5)),
        SymbolSpec(2, 1, PointMass(0.3 + 0.4j)),
        SymbolSpec(1, 1, RadialPower(s=4.0, a=0.5)),
        SymbolSpec(
            0,
            0,
            Combination(((1.0 + 2.0j, CircleUniform(0.25)), (-0.5, PointMass(0.1j)))),
        ),
    ]
    for symbol in symbols:
        assert symbol_from_config(symbol_to_config(symbol)) == symbol


_atoms = st.one_of(
    st.builds(
        RadialPower,
        s=st.floats(-0.5, 6.0, allow_nan=False),
        a=st.floats(-0.5, 3.0, allow_nan=False),
    ),
    st.builds(PointMass, z0=st.complex_numbers(max_magnitude=0.8, allow_nan=False)),
    st.builds(CircleUniform, r0=st.floats(0.05, 0.95)),
)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.integers(0, 4),
    beta=st.integers(0, 4),
    base=st.one_of(
        _atoms,
        st.builds(
            Combination,
            st.lists(
                st.tuples(st.complex_numbers(max_magnitude=2.0, allow_nan=False), _atoms),
                min_size=1,
                max_size=3,
            ).map(tuple),
        ),
    ),
)
def test_symbol_config_round_trip_property(alpha, beta, base):
    symbol = SymbolSpec(alpha, beta, base)
    assert symbol_from_config(symbol_to_config(symbol)) == symbol
