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
from bergtoep.berezin import berezin_matrix
from bergtoep.bergman import d_alpha_beta_terms
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
from bergtoep.operators import assemble
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

    value, _ = trace_matrix(SymbolSpec(alpha, beta, base), DIM)
    tail = base.diagonal_tail(alpha, beta, DIM)
    assert isinstance(value, complex) and isinstance(tail, float) and tail >= 0.0
    closed, bound = base.closed_trace(alpha, beta)
    assert isinstance(closed, complex)
    assert isinstance(bound, float) and 0.0 <= bound <= 1e-12 * base.diagonal_tail(alpha, beta, 0)

    t = (Z * Z.conjugate()).real
    values, errors = base.berezin(alpha, beta, Z, t)
    assert values.shape == Z.shape and values.dtype.kind in "fc"  # real for real transforms
    assert errors.shape == Z.shape and errors.dtype == float and np.all(errors >= 0.0)

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


def test_closed_trace_is_written_once():
    # one body on _Atom (the unit times the tail from n = 0) and the
    # linearity rule on Combination; the kinds differ only in ``_unit``
    tree = ast.parse((SRC / "measures.py").read_text(encoding="utf-8"))
    owners = {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "closed_trace" for f in node.body)
    }
    assert owners == {"_Atom", "Combination"}


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


def test_diagonal_tail_next_to_the_circle_is_finite():
    # |z0|^2 = 1 - 2e-6: the term ratios stay above 1 for ~10^6 terms, which
    # no walk could pass; the closed form gives the rest of the kernel sum
    import mpmath

    value, tail = trace_matrix(SymbolSpec(2, 2, PointMass(0.999999)), 64)
    with mpmath.workdps(40):
        x = mpmath.mpf(0.999999) ** 2
        kernel = mpmath.fsum(c * x ** ((p_conj + p) / 2) * (1 - x) ** -m for c, p_conj, p, m in d_alpha_beta_terms(2, 2))
        rest = float(kernel - mpmath.mpf(value.real))
    assert math.isfinite(value.real) and rest <= tail <= rest * (1.0 + 1e-12)


def test_non_string_kind_is_a_usage_error(capsys):
    code = main(["trace", "--symbol", '{"alpha": 0, "beta": 0, "measure": {"kind": []}}'])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "usage", "message": "unknown measure kind []"}


# every kind's factors, plus combinations with alpha != beta and with a
# distribution
FACTOR_INSTANCES = INSTANCES + [
    pytest.param(RadialPower(s=3.0), 1, 2, id="radial_power_12"),
    pytest.param(PointMass(0.3 - 0.2j), 1, 2, id="point_mass_12"),
    pytest.param(PointMass(0.5), 1, 1, id="point_mass_11"),
    pytest.param(
        Combination(((1.0 + 1.0j, PointMass(0.3 + 0.1j)), (2.0, RadialPower(s=5.0)), (0.0, CircleUniform(0.4)))),
        2, 1, id="combination_21",
    ),
]


def _kernel_vector(z: complex, dim: int) -> np.ndarray:
    t = abs(z) ** 2
    return (1.0 - t) * np.sqrt(np.arange(dim) + 1.0) * z.conjugate() ** np.arange(dim)


def _sum_of_factors(factors, dim: int) -> np.ndarray:
    """The (c, factor) pairs summed naively from their documented shapes:
    a band entries[n, n + offset] = values[n], a rank one
    entries[n, m] = sign conj(row[n]) col[m]."""
    out = np.zeros((dim, dim), dtype=complex)
    for c, factor in factors:
        if hasattr(factor, "offset"):
            for n in range(dim):
                if 0 <= n + factor.offset < dim:
                    out[n, n + factor.offset] += c * factor.values[n]
        else:
            out += c * factor.sign * np.outer(factor.row.conj(), factor.col)
    return out


@pytest.mark.parametrize("base,alpha,beta", FACTOR_INSTANCES)
def test_factors_densify_to_the_entries(base, alpha, beta):
    for dim in (1, 2, 63, 64, 65, 256):
        factors = base.factors(alpha, beta, dim)
        assert len(factors) == sum(1 for c, _ in getattr(base, "terms", [(1.0, base)]) if c != 0)
        naive = _sum_of_factors(factors, dim)
        matrix = base.matrix(alpha, beta, dim)
        assert matrix.shape == (dim, dim) and matrix.dtype == complex
        # every element at the small dims; at 256 the edges and a grid
        index = range(dim) if dim < 100 else sorted({*range(0, dim, 17), *range(dim - 3, dim)})
        for n in index:
            for m in index:
                element = base.entry(alpha, beta, n, m)
                assert element == pytest.approx(matrix[n, m], rel=1e-12, abs=1e-14), (dim, n, m)
                assert element == pytest.approx(naive[n, m], rel=1e-12, abs=1e-14), (dim, n, m)
        # the matrix route reads the same diagonal from the factors
        diagonal = np.diagonal(matrix)
        dense_trace = complex(math.fsum(diagonal.real), math.fsum(diagonal.imag))
        value, _ = trace_matrix(SymbolSpec(alpha, beta, base), dim)
        assert abs(value - dense_trace) <= 1e-14 * abs(dense_trace), dim


@pytest.mark.parametrize("base,alpha,beta", FACTOR_INSTANCES)
def test_factor_form_and_scale_match_the_dense_matrix(base, alpha, beta):
    dim = 128
    entries = base.matrix(alpha, beta, dim)
    op = assemble(SymbolSpec(alpha, beta, base), dim)
    dense_fro = float(np.linalg.norm(entries))
    scale = sum(abs(c) * factor.norm() for c, factor in op.factors)
    if base.kind == "combination":
        # the triangle inequality: never below the dense norm
        assert scale >= dense_fro * (1.0 - 1e-14)
    else:
        assert scale == pytest.approx(dense_fro, rel=1e-14)
    for z in (0.0, 0.3 + 0.4j, 0.95):
        a = _kernel_vector(z, dim)
        dense = complex(np.vdot(a, entries @ a))
        got = berezin_matrix(op, z).value
        assert abs(got - dense) <= 1e-14 * dense_fro * float(np.vdot(a, a).real)
    assert "entries" not in vars(op)


def _readme_protocol_methods() -> set[str]:
    """The names in the first column of the README protocol table."""
    lines = (SRC.parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| method | returns |") + 2
    names = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first_column = line.split("|")[1]
        names |= {span.split("(")[0] for span in first_column.split("`")[1::2]}
    return names


def test_readme_protocol_table_names_methods_every_kind_has():
    names = _readme_protocol_methods()
    assert {"factors", "diagonal_tail", "closed_trace", "to_config", "from_config"} <= names
    missing = [f"{cls.__name__}.{name}" for cls in MEASURE_KINDS.values() for name in sorted(names) if not hasattr(cls, name)]
    assert not missing, missing
