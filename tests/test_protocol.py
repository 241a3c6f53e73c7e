"""The measure protocol: every kind answers the same methods, Combination
distributes over its nonzero terms, and no route outside measures.py
branches on the kind of a measure."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import bergtoep.measures as measures
from bergtoep.cli import main, symbol_from_config
from bergtoep.errors import UnsupportedSymbolError
from bergtoep.measures import (
    MEASURE_KINDS,
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
    measure_from_config,
)
from bergtoep.spectral import trace_matrix, trace_report

SRC = Path(measures.__file__).resolve().parent

# one instance of each kind, with derivative orders it supports
INSTANCES = [
    pytest.param(RadialPower(s=4.0, a=0.5), 1, 1, id="radial_power"),
    pytest.param(PointMass(0.3 - 0.2j), 2, 1, id="point_mass"),
    pytest.param(CircleUniform(0.5), 1, 1, id="circle_uniform"),
    pytest.param(CircleRadialDerivative(0.6), 0, 0, id="circle_radial_derivative"),
    pytest.param(
        Combination(((1.0, CircleUniform(0.5)), (0.5j, PointMass(0.2)), (0.0, RadialPower(s=0.5)))),
        1, 1, id="combination",
    ),
    pytest.param(
        Combination(((2.0, CircleRadialDerivative(0.4)), (-1.0, CircleUniform(0.7)))),
        0, 0, id="combination_with_distribution",
    ),
]

DIM = 6
Z = np.array([0.0, 0.3 + 0.1j, -0.5j, 0.85])


@pytest.mark.parametrize("base,alpha,beta", INSTANCES)
def test_protocol_conformance(base, alpha, beta):
    assert MEASURE_KINDS[base.kind] is type(base)
    for flag in (base.radial, base.nonnegative, base.distribution, base.real):
        assert isinstance(flag, bool)

    if base.distribution:
        with pytest.raises(UnsupportedSymbolError):
            base.moment(1, 1)
    else:
        assert isinstance(base.moment(2, 1), complex)

    matrix = base.matrix(alpha, beta, DIM)
    assert matrix.shape == (DIM, DIM) and matrix.dtype == complex
    for n in range(DIM):
        for m in range(DIM):
            element = base.entry(alpha, beta, n, m)
            assert isinstance(element, complex)
            assert element == pytest.approx(matrix[n, m], rel=1e-12, abs=1e-14)

    value, tail = base.diagonal_trace(alpha, beta, DIM)
    assert isinstance(value, complex) and isinstance(tail, float) and tail >= 0.0
    assert isinstance(base.closed_trace(alpha, beta, 1e-10), complex)

    t = (Z * Z.conjugate()).real
    values, errors = base.berezin(alpha, beta, Z, t, 1e-10)
    assert values.shape == Z.shape and values.dtype.kind in "fc"  # real for real transforms
    assert errors.shape == Z.shape and errors.dtype == float and np.all(errors >= 0.0)

    assert base.sampler_budget(alpha, beta, 1e-9) > 0.0
    weight, exponent = base.boundary_weight(4)
    assert weight > 0.0 and exponent > -1.0

    assert base.conjugate().conjugate() == base
    config = base.to_config()
    assert config["kind"] == base.kind
    assert measure_from_config(json.loads(json.dumps(config))) == base


def test_radial_power_reports_divergent_endpoint():
    weight, exponent = RadialPower(s=2.0).boundary_weight(4)
    assert weight == math.inf and exponent == -2.0


def _kind_class_names() -> set[str]:
    return {
        name
        for name, obj in vars(measures).items()
        if isinstance(obj, type) and hasattr(obj, "boundary_weight")
    }


def _isinstance_targets(tree: ast.AST) -> list[tuple[int, set[str]]]:
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            out.append((node.lineno, names))
    return out


def test_no_kind_branching_outside_measures():
    kinds = _kind_class_names()
    assert {"RadialPower", "PointMass", "CircleUniform", "CircleRadialDerivative", "Combination"} <= kinds
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits = [(line, names & kinds) for line, names in _isinstance_targets(tree) if names & kinds]
        if path.name == "measures.py":
            # only the input check of Combination may test for atoms
            assert len(hits) <= 1, hits
        else:
            offenders.extend(f"{path.name}:{line} {sorted(names)}" for line, names in hits)
    assert not offenders, offenders


ZERO_TERM = {
    "alpha": 1,
    "beta": 1,
    "measure": {
        "kind": "combination",
        "terms": [
            {"coeff_re": 0.0, "coeff_im": 0.0, "measure": {"kind": "radial_power", "s": 2.0}},
            {"coeff_re": 1.0, "coeff_im": 0.0, "measure": {"kind": "point_mass", "re": 0.3}},
        ],
    },
}


def test_zero_coefficient_terms_are_skipped_by_every_route(capsys):
    # the radial term alone is not trace class at alpha = beta = 1
    symbol = symbol_from_config(ZERO_TERM)
    assert trace_report(symbol) == trace_report(SymbolSpec(1, 1, PointMass(0.3)))
    _, tail = trace_matrix(symbol, 64)
    assert math.isfinite(tail)
    assert main(["trace", "--symbol", json.dumps(ZERO_TERM)]) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True


def test_exhausted_diagonal_walk_gives_infinite_tail(monkeypatch):
    # near the circle the term ratios stay above 1 past the series cap,
    # which the last ratio shows without walking the series
    def no_walk(*args, **kwargs):
        raise AssertionError("the exhausted walk ran")

    monkeypatch.setattr(measures, "ratio_series", no_walk)
    value, tail = trace_matrix(SymbolSpec(2, 2, PointMass(0.999999)), 64)
    assert math.isfinite(value.real) and tail == math.inf


def test_non_string_kind_is_a_usage_error(capsys):
    code = main(["trace", "--symbol", '{"alpha": 0, "beta": 0, "measure": {"kind": []}}'])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "usage", "message": "unknown measure kind []"}
