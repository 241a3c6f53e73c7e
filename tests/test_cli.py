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
    # scipy.special is needed only on the hypergeometric Berezin branch
    import bergtoep

    src = str(Path(bergtoep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, bergtoep.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_parse_complex_literals():
    assert parse_complex("0.3") == 0.3
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("-0.2-0.4i") == -0.2 - 0.4j
    assert parse_complex("0.5i") == 0.5j
    with pytest.raises(ValueError):
        parse_complex("robot")


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
