"""Matrix truncations: entries, structure invariants, adjoints, linearity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergtoep.bergman import basis_deriv_coeff, kernel_deriv_norm
from bergtoep.measures import (
    CircleRadialDerivative,
    CircleUniform,
    Combination,
    PointMass,
    RadialPower,
    SymbolSpec,
    carleson_integral,
    moment,
)
from bergtoep.operators import TruncatedOperator, adjoint_symbol, assemble, entry
from bergtoep.spectral import carleson_bound_estimate, decay_fit, singular_values, trace_report


def test_entry_circle_uniform_diagonal():
    s = SymbolSpec(0, 0, CircleUniform(0.5))
    assert entry(s, 1, 1) == pytest.approx(0.5)


def test_entry_circle_radial_derivative():
    s = SymbolSpec(0, 0, CircleRadialDerivative(0.5))
    assert entry(s, 1, 1) == pytest.approx(-2.0)


def test_entry_point_mass_origin_derivatives():
    s = SymbolSpec(1, 1, PointMass(0.0))
    assert entry(s, 1, 1) == pytest.approx(2.0)


def test_entry_radial_power_off_diagonal_band():
    s = SymbolSpec(1, 0, RadialPower(s=4.0))
    assert entry(s, 0, 1).real == pytest.approx(-math.sqrt(2.0) / 5.0, rel=1e-13)


def test_assemble_circle_uniform_diagonal_matrix():
    op = assemble(SymbolSpec(0, 0, CircleUniform(0.5)), 4)
    expected = np.diag([1.0, 0.5, 0.1875, 0.0625])
    assert np.allclose(op.entries, expected, atol=1e-15)
    assert op.is_radial_band and op.is_hermitian


def test_assemble_point_mass_rank_one_matrix():
    op = assemble(SymbolSpec(0, 0, PointMass(0.5)), 2)
    expected = np.array([[1.0, math.sqrt(2) * 0.5], [math.sqrt(2) * 0.5, 0.5]])
    assert np.allclose(op.entries, expected, atol=1e-15)


def test_assemble_dimension_one_contract():
    for base in (PointMass(0.3), RadialPower(2.0), CircleUniform(0.4)):
        s = SymbolSpec(0, 0, base)
        op = assemble(s, 1)
        assert op.entries.shape == (1, 1)
        assert op.entries[0, 0] == entry(s, 0, 0)


def test_assemble_caps_dimension():
    with pytest.raises(ValueError):
        assemble(SymbolSpec(0, 0, PointMass(0.0)), 5000)
    with pytest.raises(ValueError):
        assemble(SymbolSpec(0, 0, PointMass(0.0)), 0)


@pytest.mark.parametrize("dim", [2.5, 3.0, True, np.float64(4.0), "8"])
def test_truncation_dimension_must_be_an_integer(dim):
    symbol = SymbolSpec(0, 0, PointMass(0.3))
    with pytest.raises(ValueError, match="must be an integer"):
        assemble(symbol, dim)


def test_integer_fences_reach_every_dimension_argument():
    symbol = SymbolSpec(1, 1, PointMass(0.3))
    with pytest.raises(ValueError, match="must be an integer"):
        carleson_bound_estimate(PointMass(0.3), 0, [2.5, 4])
    with pytest.raises(ValueError, match="must be an integer"):
        trace_report(symbol, dim=True)
    op = assemble(symbol, np.int64(5))  # numpy integers pass
    assert op.entries.shape == (5, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: moment(PointMass(0.5), bad, 0),
        lambda bad: entry(SymbolSpec(1, 1, PointMass(0.5)), bad, 2),
        lambda bad: carleson_integral(RadialPower(4.0), bad),
        lambda bad: decay_fit(singular_values(assemble(SymbolSpec(1, 1, CircleUniform(0.6)), 64)), (10, bad)),
        lambda bad: basis_deriv_coeff(3, bad),
        lambda bad: kernel_deriv_norm(0.5, bad),
    ],
    ids=["moment", "entry", "carleson_integral", "decay_fit", "basis_deriv_coeff", "kernel_deriv_norm"],
)
@pytest.mark.parametrize("bad", [1.5, 30.2, 2.0, np.float64(1.0), True])
def test_integer_fences_reach_every_index_argument(call, bad):
    # a float index once ran on (moment 0.354, entry 2.73, a k=1.0 report,
    # a window truncated to integers) or raised TypeError; bools are rejected too
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


def test_integer_index_arguments_accept_numpy_integers():
    assert moment(PointMass(0.5), np.int64(1), 0) == 0.5
    assert basis_deriv_coeff(np.int32(3), 1) == basis_deriv_coeff(3, 1)


def test_operator_flags_follow_the_symbol():
    symbols = [
        SymbolSpec(1, 1, CircleUniform(0.5)),
        SymbolSpec(2, 1, RadialPower(s=5.0)),
        SymbolSpec(1, 1, PointMass(0.3 + 0.2j)),
        SymbolSpec(1, 1, Combination(((1.0 + 1.0j, PointMass(0.3)), (2.0, CircleUniform(0.5))))),
    ]
    for s in symbols:
        built, assembled = TruncatedOperator(4, s), assemble(s, 4)
        assert (built.is_radial_band, built.is_hermitian) == (assembled.is_radial_band, assembled.is_hermitian)
    assert TruncatedOperator(4, symbols[0]).is_hermitian and TruncatedOperator(4, symbols[0]).is_radial_band
    assert not TruncatedOperator(4, symbols[1]).is_hermitian
    assert not TruncatedOperator(4, symbols[2]).is_radial_band
    assert not TruncatedOperator(4, symbols[3]).is_hermitian  # a complex coefficient
    for dim in (0, 4097):
        with pytest.raises(ValueError, match="truncation dimension"):
            TruncatedOperator(dim, symbols[0])


@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 1), (2, 1), (1, 3)])
def test_origin_point_mass_is_a_radial_band(alpha, beta):
    # the truncation of delta_0 is the single entry (n, m) = (beta, alpha),
    # which lies on the band m - alpha = n - beta, alone or beside a radial kind
    op = assemble(SymbolSpec(alpha, beta, PointMass(0.0)), 6)
    n, m = np.nonzero(op.entries)
    assert (n.tolist(), m.tolist()) == ([beta], [alpha]) and m[0] - alpha == n[0] - beta
    assert op.is_radial_band and PointMass(0.0).radial and not PointMass(1e-300).radial
    mixed_base = Combination(((2.0, PointMass(0.0)), (0.5, CircleUniform(0.4))))
    mixed = assemble(SymbolSpec(alpha, beta, mixed_base), 6)
    assert mixed.is_radial_band
    n_idx, m_idx = np.indices((6, 6))
    assert np.all(mixed.entries[(m_idx - alpha) != (n_idx - beta)] == 0.0)


def test_entry_matches_assemble_elementwise():
    symbols = [
        SymbolSpec(1, 1, PointMass(0.4 + 0.2j)),
        SymbolSpec(2, 1, RadialPower(s=5.0, a=0.5)),
        SymbolSpec(0, 0, CircleRadialDerivative(0.6)),
        SymbolSpec(1, 2, Combination(((1.0 + 1.0j, PointMass(0.3)), (2.0, CircleUniform(0.5))))),
    ]
    for s in symbols:
        op = assemble(s, 7)
        for n in range(7):
            for m in range(7):
                assert op.entries[n, m] == pytest.approx(entry(s, n, m), rel=1e-13, abs=1e-15)


def test_radial_band_structure_exact_zeros():
    for base in (RadialPower(s=4.0), CircleUniform(0.5), CircleRadialDerivative(0.5)):
        alpha, beta = (1, 0) if not isinstance(base, CircleRadialDerivative) else (0, 0)
        op = assemble(SymbolSpec(alpha, beta, base), 12)
        for n in range(12):
            for m in range(12):
                if m - alpha != n - beta:
                    assert op.entries[n, m] == 0.0


def test_adjoint_symbol_examples():
    s = adjoint_symbol(SymbolSpec(1, 0, PointMass(0.5)))
    assert (s.alpha, s.beta) == (0, 1)
    s = SymbolSpec(2, 2, RadialPower(1.0))
    assert adjoint_symbol(s) == s
    combo = SymbolSpec(0, 0, Combination(((1j, PointMass(0.2)),)))
    assert adjoint_symbol(combo).base.terms[0][0] == -1j


def test_adjoint_coherence_exact():
    symbols = [
        SymbolSpec(1, 0, PointMass(0.5)),
        SymbolSpec(2, 1, PointMass(0.3 + 0.4j)),
        SymbolSpec(1, 1, RadialPower(s=4.0)),
        SymbolSpec(0, 0, CircleRadialDerivative(0.5)),
        SymbolSpec(1, 2, Combination(((1j, PointMass(0.2)), (0.5, RadialPower(3.0))))),
    ]
    for s in symbols:
        a = assemble(s, 9).entries
        b = assemble(adjoint_symbol(s), 9).entries
        assert np.array_equal(a.conj().T, b)


def test_linearity_over_combinations():
    terms = ((1.5 + 0.5j, PointMass(0.4)), (-0.75, CircleUniform(0.6)))
    s_combo = SymbolSpec(1, 1, Combination(terms))
    combined = assemble(s_combo, 16).entries
    summed = sum(c * assemble(SymbolSpec(1, 1, b), 16).entries for c, b in terms)
    scale = np.abs(summed)
    assert np.all(np.abs(combined - summed) <= 1e-14 * np.maximum(scale, 1e-300))


def test_monotone_truncation_trace():
    s = SymbolSpec(1, 1, PointMass(0.5))
    traces = [np.trace(assemble(s, n).entries).real for n in (4, 8, 16, 32)]
    assert all(b >= a - 1e-15 for a, b in zip(traces, traces[1:]))


def test_positivity_of_diagonal_symbols():
    # oracle: numpy's Hermitian eigensolver, independent of the package's
    for s in (
        SymbolSpec(0, 0, PointMass(0.5)),
        SymbolSpec(1, 1, PointMass(0.3 + 0.3j)),
        SymbolSpec(1, 1, RadialPower(s=4.0)),
        SymbolSpec(2, 2, CircleUniform(0.7)),
    ):
        op = assemble(s, 24)
        eigs = np.linalg.eigvalsh(op.entries)
        assert eigs.min() >= -1e-12 * max(eigs.max(), 1e-300)
        assert op.is_hermitian


_small_atoms = st.one_of(
    st.builds(RadialPower, s=st.floats(0.0, 5.0), a=st.floats(0.0, 2.0)),
    st.builds(PointMass, z0=st.complex_numbers(max_magnitude=0.7, allow_nan=False)),
    st.builds(CircleUniform, r0=st.floats(0.1, 0.9)),
)


@settings(max_examples=40, deadline=None)
@given(
    base=_small_atoms,
    alpha=st.integers(0, 3),
    beta=st.integers(0, 3),
    dim=st.integers(1, 10),
)
def test_adjoint_coherence_property(base, alpha, beta, dim):
    s = SymbolSpec(alpha, beta, base)
    a = assemble(s, dim).entries
    b = assemble(adjoint_symbol(s), dim).entries
    assert np.array_equal(a.conj().T, b)


def _reference_point_matrix(z0: complex, alpha: int, beta: int, dim: int) -> np.ndarray:
    """The point-mass truncation by an index-array mirror of the upper
    triangle and a conjugate-transposed copy for alpha > beta: the values
    the in-place tiled build must match to the bit."""
    if alpha > beta:
        return np.ascontiguousarray(_reference_point_matrix(z0, beta, alpha, dim).conj().T)
    m = np.arange(dim)
    cm = np.array([basis_deriv_coeff(int(i), alpha) for i in m])
    cn = np.array([basis_deriv_coeff(int(i), beta) for i in m])
    zpow_m = np.array([z0 ** (i - alpha) if i >= alpha else 0.0 for i in m], dtype=complex)
    zpow_n = np.array([z0 ** (i - beta) if i >= beta else 0.0 for i in m], dtype=complex)
    sign = -1.0 if (alpha + beta) % 2 else 1.0
    out = sign * np.outer((cn * zpow_n).conjugate(), cm * zpow_m)
    if alpha == beta:
        upper = np.triu_indices(dim, 1)
        out[(upper[1], upper[0])] = out[upper].conj()
        diag = np.diag_indices(dim)
        out[diag] = out[diag].real
    return out


POINT_ORDERS = [(1, 1), (2, 2), (1, 0), (0, 1), (2, 1)]


@pytest.mark.parametrize("alpha,beta", POINT_ORDERS)
def test_point_mass_matrix_bitwise_at_tile_edges(alpha, beta):
    z0 = 0.37 - 0.41j
    for dim in (1, 2, 3, 63, 64, 65, 255, 256, 257, 513):
        got = PointMass(z0).matrix(alpha, beta, dim)
        assert got.flags.c_contiguous
        assert got.tobytes() == _reference_point_matrix(z0, alpha, beta, dim).tobytes()


def test_circle_derivative_and_combination_matrices_bitwise():
    dim = 130
    circle = CircleRadialDerivative(0.6)
    reference = np.diag(circle._diagonal(np.arange(dim))).astype(complex)
    assert circle.matrix(0, 0, dim).tobytes() == reference.tobytes()
    combo = Combination(
        ((1.5 - 0.5j, PointMass(0.3 - 0.2j)), (-0.75, CircleUniform(0.6)), (0.0, RadialPower(3.0)))
    )
    reference = np.zeros((dim, dim), dtype=complex)
    for c, base in combo.terms[:2]:
        # a named operand: numpy would compute c * <temporary> in place as
        # term * c, and the operand order decides the last bit
        term = base.matrix(1, 1, dim)
        reference += c * term
    assert combo.matrix(1, 1, dim).tobytes() == reference.tobytes()


def _peak_over_buffer(build, dim: int) -> float:
    """Peak traced allocation of ``build()`` over one dim^2 complex buffer."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16.0 * dim * dim)


@pytest.mark.parametrize(
    "base,alpha,beta,bound",
    [pytest.param(PointMass(0.3 + 0.2j), a, b, 1.1, id=f"point_{a}{b}") for a, b in POINT_ORDERS]
    + [
        pytest.param(RadialPower(s=4.0), 1, 1, 1.1, id="radial_power"),
        pytest.param(CircleUniform(0.5), 1, 1, 1.1, id="circle_uniform"),
        pytest.param(CircleRadialDerivative(0.5), 0, 0, 1.1, id="circle_radial_derivative"),
        pytest.param(
            Combination(((2.0, PointMass(0.3 + 0.2j)), (0.5, CircleUniform(0.5)))), 1, 1, 2.1,
            id="combination",
        ),
    ],
)
def test_matrix_assembles_in_one_buffer(base, alpha, beta, bound):
    dim = 1024
    assert _peak_over_buffer(lambda: base.matrix(alpha, beta, dim), dim) <= bound


def _reference_band_matrix(base, alpha: int, beta: int, dim: int) -> np.ndarray:
    """The radial truncation by the entry-by-entry loop of the dense
    build: the values the band densify must match to the bit."""
    sign = -1.0 if (alpha + beta) % 2 else 1.0
    out = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        m = n - beta + alpha
        if m < alpha or m >= dim or n < beta:
            continue
        out[n, m] = (
            sign
            * basis_deriv_coeff(m, alpha)
            * basis_deriv_coeff(n, beta)
            * base.radial_moment(m - alpha)
        )
    return out


BAND_DIMS = (1, 2, 3, 63, 64, 65, 257)


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (1, 2)])
def test_band_matrix_bitwise(alpha, beta):
    # circle moments underflow to zero at large n, which the sign makes -0.0
    for base in (RadialPower(s=4.0, a=0.5), CircleUniform(0.05)):
        for dim in BAND_DIMS:
            got = base.matrix(alpha, beta, dim)
            assert got.tobytes() == _reference_band_matrix(base, alpha, beta, dim).tobytes()


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (1, 2)])
def test_combination_matrix_with_band_terms_bitwise(alpha, beta):
    terms = ((-0.75 + 0.25j, RadialPower(s=4.0)), (1.5 - 0.5j, PointMass(0.3 - 0.2j)), (2.0, CircleUniform(0.6)))
    for dim in BAND_DIMS:
        reference = np.zeros((dim, dim), dtype=complex)
        for c, base in terms:
            if base.radial:
                term = _reference_band_matrix(base, alpha, beta, dim)
            else:
                term = _reference_point_matrix(base.z0, alpha, beta, dim)
            reference += c * term
        got = Combination(terms).matrix(alpha, beta, dim)
        assert got.tobytes() == reference.tobytes()
