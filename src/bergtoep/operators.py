"""Finite matrix truncations of Toeplitz operators with derivative symbols.

Matrix convention: ``entries[n][m]`` is the form applied to (e_m, e_n),
i.e. row n is the output index and column m the input index, so the array
is the matrix of the operator in the orthonormal monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import SymbolSpec
from .numutil import check_integer

__all__ = ["TruncatedOperator", "entry", "assemble", "adjoint_symbol"]

# one cap for every route: past dim 4096 the Berezin kernel-tail factor
# sqrt(t^N ((N+1) - N t)) is below 1.3e-17 for |z| <= 0.99, so no bar improves
MAX_DIMENSION = 4096


@dataclass(frozen=True)
class TruncatedOperator:
    """N x N truncation of a Toeplitz operator, 1 <= N <= ``MAX_DIMENSION``.

    ``factors`` and the dense ``entries`` are each built on first read.
    ``is_radial_band`` records the single-diagonal structure of rotation
    invariant symbols (entries vanish unless m - alpha = n - beta);
    ``is_hermitian`` holds when alpha = beta over a real measure.
    """

    dim: int
    symbol: SymbolSpec

    def __post_init__(self):
        check_integer("truncation dimension", self.dim)
        if self.dim < 1:
            raise ValueError("truncation dimension must be positive")
        if self.dim > MAX_DIMENSION:
            raise ValueError(f"truncation dimension capped at {MAX_DIMENSION}")

    @property
    def is_radial_band(self) -> bool:
        return self.symbol.base.radial

    @property
    def is_hermitian(self) -> bool:
        return self.symbol.alpha == self.symbol.beta and self.symbol.base.real

    @cached_property
    def factors(self) -> tuple:
        return self.symbol.base.factors(self.symbol.alpha, self.symbol.beta, self.dim)

    @cached_property
    def entries(self) -> np.ndarray:
        return self.symbol.base.matrix(self.symbol.alpha, self.symbol.beta, self.dim)


def entry(symbol: SymbolSpec, n: int, m: int) -> complex:
    """Single matrix element: the form applied to (e_m, e_n).

    For measure bases this is
    (-1)^(alpha+beta) c(m, alpha) c(n, beta) M(m - alpha, n - beta)
    with c the basis derivative coefficient and M the monomial moment.
    The circle radial-derivative pairing has the closed form
    -delta(n, m) (n+1) 2n r0^(2n-1).
    """
    check_integer("matrix index", n, m)
    if n < 0 or m < 0:
        raise ValueError("matrix indices must be nonnegative")
    return symbol.base.entry(symbol.alpha, symbol.beta, n, m)


def assemble(symbol: SymbolSpec, dim: int) -> TruncatedOperator:
    """Truncation of the operator to 0 <= n, m < dim, built when first read."""
    return TruncatedOperator(dim, symbol)


def adjoint_symbol(symbol: SymbolSpec) -> SymbolSpec:
    """Symbol of the adjoint operator: swap orders, conjugate coefficients."""
    return SymbolSpec(alpha=symbol.beta, beta=symbol.alpha, base=symbol.base.conjugate())
