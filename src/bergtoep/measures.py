"""Measures and distributions on the unit disk, and the one protocol every
route evaluates them through.

The area measure is normalized as dA = (1/pi) dx dy, so integrals of
radial profiles reduce to integrals over t = |z|^2 on (0, 1).  Every
moment here is exact (closed form), not quadrature.

Each kind is one class that carries what the routes need (see ``_Atom``).
The trace is linear in the symbol, so ``Combination`` implements each
method once, as a coefficient-weighted sum over its nonzero terms, with
errors weighted by |c|.  A new kind is one class plus its entry in
``MEASURE_KINDS``, whose key is the ``kind`` name of the JSON codec.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .berezin import _euler_hyp2f1, _gamma, _ipow, _radial_power_S
from .bergman import basis_deriv_coeff
from .errors import UnsupportedSymbolError
from .numutil import beta_integral, beta_rounding, check_integer

__all__ = [
    "RadialPower",
    "PointMass",
    "CircleUniform",
    "CircleRadialDerivative",
    "Combination",
    "BaseMeasure",
    "MEASURE_KINDS",
    "SymbolSpec",
    "FinitenessReport",
    "moment",
    "measure_from_config",
    "carleson_integral",
    "boundary_weight_integral",
]

MAX_DERIVATIVE_ORDER = 32
_EPS = sys.float_info.epsilon
_U = _EPS / 2.0


def _sign(alpha: int, beta: int) -> float:
    """(-1)^(alpha+beta), the sign of the sesquilinear form."""
    return -1.0 if (alpha + beta) % 2 else 1.0


def _number(value) -> float:
    """A measure config's JSON number as a float; a bool or a string raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"measure fields must be JSON numbers, got {value!r}")
    return float(value)


def _mass_bound(q: float, m: int, y_ulps: float) -> float:
    """Bound b with exact <= computed (1 + b) for coef x^q y^(-m), y = 1 - x,
    given x within u = eps/2 and y within ``y_ulps`` u: those through the
    powers, plus coef's rounding, two pow calls within one ulp, two products."""
    return math.expm1(_U * (q + m * y_ulps)) + 7.0 * _U


def _diagonal_tail(atom, alpha: int, beta: int, dim: int) -> tuple[float, float]:
    """(sum, pad): the sum over n >= dim of |entries[n, n]| =
    p(n) <t^(n-shift), |nu|> in closed form, and a pad for its rounding.
    Here p(n) = (n+1) n^(alpha) n^(beta) in falling factorials n^(k),
    shift = (alpha+beta)/2, and the atom gives ``_pairing(coef, q, m)`` =
    coef <t^q (1-t)^(-m), |nu|> and ``_pairing_bound(q, m)``, its rounding.

    - p(n) = sum_k e_k n^(k) with every e_k >= 0, by
      n^(alpha) n^(beta) = sum_i C(alpha, i) C(beta, i) i! n^(alpha+beta-i)
      and (n+1) n^(K) = n^(K+1) + (K+1) n^(K);
    - the diagonal is 0 below N = max(dim, alpha, beta), and
      sum_{n>=N} n^(k) t^n
      = sum_{j<=min(k,N)} C(k, j) N^(j) (k-j)! t^(N+k-j) (1-t)^-(k-j+1).

    So the tail is a finite sum of positive pairings.  The pad adds their
    bounds and 3 eps for the two sums: sum + pad never falls below the
    exact tail, short of 1e-300 lost to underflow.  Both are +inf if a
    pairing diverges or overflows.
    """
    e = [0] * (alpha + beta + 2)
    for i in range(min(alpha, beta) + 1):
        c, K = math.comb(alpha, i) * math.comb(beta, i) * math.factorial(i), alpha + beta - i
        e[K + 1] += c
        e[K] += (K + 1) * c
    N = max(dim, alpha, beta)
    values, pads = [], []
    for k, e_k in enumerate(e):
        for j in range(min(k, N) + 1 if e_k else 0):
            coef = float(e_k * math.comb(k, j) * math.perm(N, j) * math.factorial(k - j))
            q, m = N + k - j - (alpha + beta) / 2, k - j + 1
            try:
                value = atom._pairing(coef, q, m)
            except OverflowError:  # a power past the float range
                value = math.inf
            values.append(value)
            pads.append(value * atom._pairing_bound(q, m) if value < math.inf else value)
    total = math.fsum(values)
    return total, math.fsum(pads) + 3.0 * _EPS * total


def _basis_coeffs(idx: np.ndarray, order: int) -> np.ndarray:
    """``basis_deriv_coeff(i, order)`` at each i >= order of an int array,
    to the bit: sqrt(i+1) times the falling factorial, factor by factor."""
    falling = np.ones(idx.size)
    for k in range(order):
        falling *= idx - k
    return np.sqrt(idx + 1.0) * falling


_TILE = 64


def _conj_transpose_tiles(out: np.ndarray, mirror: bool) -> None:
    """Conjugate-transpose the square matrix ``out`` in place, by tiles.

    With ``mirror`` only the strict lower triangle is written, from the
    upper one, which makes ``out`` Hermitian; otherwise the two triangles
    swap.  Conjugation is exact, and the temporaries are single tiles.
    """
    dim = out.shape[0]
    for i0 in range(0, dim, _TILE):
        i1 = min(i0 + _TILE, dim)
        block = out[i0:i1, i0:i1]
        flipped = block.T.conj()
        if mirror:
            np.copyto(block, flipped, where=np.tri(i1 - i0, k=-1, dtype=bool))
        else:
            block[...] = flipped
        for j0 in range(i1, dim, _TILE):
            j1 = min(j0 + _TILE, dim)
            upper, lower = out[i0:i1, j0:j1], out[j0:j1, i0:i1]
            if mirror:
                np.conjugate(upper.T, out=lower)
            else:
                upper[...], lower[...] = lower.T.conj(), upper.T.conj()


@dataclass(frozen=True, eq=False)
class _Band:
    """One band: entries[n, n + offset] = values[n], with offset = alpha - beta
    and values zero on the rows whose band entry leaves the truncation."""

    offset: int
    values: np.ndarray

    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        dim = self.values.size
        rows = np.arange(max(0, -self.offset), min(dim, dim - self.offset))
        return rows, rows + self.offset

    def dense(self) -> np.ndarray:
        out = np.zeros((self.values.size,) * 2, dtype=complex)
        rows, cols = self._index()
        out[rows, cols] = self.values[rows]
        return out

    def form(self, a: np.ndarray) -> complex:
        rows, cols = self._index()
        return complex(np.vdot(a[rows], self.values[rows] * a[cols]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def svals(self) -> np.ndarray:
        # each row and each column holds at most one entry, so the band is a
        # permutation times diag(values) (zero on the rows that leave) and
        # its singular values are the moduli of the values
        return np.sort(np.abs(self.values))[::-1]

    def trace(self) -> complex:
        # only a zero-offset band meets the diagonal
        return complex(math.fsum(self.values.tolist())) if self.offset == 0 else 0.0 + 0.0j


@dataclass(frozen=True, eq=False)
class _RankOne:
    """Rank one: entries[n, m] = sign conj(row[n]) col[m], with order = alpha - beta.

    Densified in the canonical orientation (order <= 0), and conjugate-
    transposed by tiles for order > 0, which keeps adjoint coherence bitwise.
    At order 0 the adjoint is the same symbol, so the matrix is made
    Hermitian to the bit: the upper triangle is mirrored and the diagonal
    kept real (fused multiplies otherwise leave ulps).
    """

    sign: float
    row: np.ndarray
    col: np.ndarray
    order: int

    def dense(self) -> np.ndarray:
        left, right = (self.col, self.row) if self.order > 0 else (self.row, self.col)
        out = np.outer(left.conjugate(), right)
        np.multiply(self.sign, out, out=out)
        if self.order >= 0:
            _conj_transpose_tiles(out, mirror=self.order == 0)
        if self.order == 0:
            np.fill_diagonal(out.imag, 0.0)
        return out

    def form(self, a: np.ndarray) -> complex:
        u, v = complex(np.dot(self.row, a)), complex(np.dot(self.col, a))
        return self.sign * (u.conjugate() * v)  # exactly real when row is col

    def norm(self) -> float:
        return float(np.linalg.norm(self.row)) * float(np.linalg.norm(self.col))

    def svals(self) -> np.ndarray:
        out = np.zeros(self.row.size)
        out[0] = abs(self.sign) * self.norm()
        return out

    def trace(self) -> complex:
        diagonal = self.row.conjugate() * self.col
        return self.sign * complex(math.fsum(diagonal.real.tolist()), math.fsum(diagonal.imag.tolist()))


def _densify(factors: tuple, dim: int, combine: bool = False) -> np.ndarray:
    """Dense entries[n, m] of the (c, factor) pairs.  An atom's one factor is
    built as it is.  A ``combine`` sum starts from zeros, which fixes the
    signs of zeros, and scales each term in place, c on the left as in
    c * term, freeing it before the next is built."""
    if not combine:
        ((_, factor),) = factors
        return factor.dense()
    out = np.zeros((dim, dim), dtype=complex)
    for c, factor in factors:
        term = factor.dense()
        out += np.multiply(c, term, out=term)
        del term
    return out


class _Atom:
    """Defaults shared by the atomic kinds.

    The protocol, implemented by every kind and by ``Combination``:

    - ``kind``, ``radial``, ``nonnegative``, ``distribution``, ``real``:
      the codec name and the structural flags;
    - ``moment(p, q)``: integral of w^p conj(w)^q dmu (distributions raise
      ``UnsupportedSymbolError``);
    - ``entry(alpha, beta, n, m)``: one matrix element, the form applied
      to (e_m, e_n);
    - ``factors(alpha, beta, dim)``: the truncation as (c, factor) pairs,
      each a band (``_Band``) or rank one (``_RankOne``) answering dense(),
      form(a), norm(), trace() and svals(), its exact descending singular
      values; an atom gives one pair with c = 1;
    - ``matrix(alpha, beta, dim)``: the dense truncation entries[n, m],
      the factors densified by the one ``_densify``;
    - ``diagonal_tail(alpha, beta, dim)``: the sum of |entries[n, n]| over
      n >= dim, the remainder of the trace the factors' ``trace()`` sum, in
      closed form (``_diagonal_tail``) padded by its own rounding: +inf only
      for a divergent radial power or on overflow;
    - ``closed_trace(alpha, beta)``: (value, bound) of the pairing with
      the derivative kernel, the whole diagonal: the unit every entry
      shares (``_unit``) times the tail from n = 0, padded;
    - ``berezin(alpha, beta, z, t)``: (S, error estimates) at the 1-d array
      z, with t = |z|^2: the kernel sum S of the transform, without the
      prefactor that ``berezin._berezin_values`` applies with its rounding;
    - ``circle_rules(alpha, beta)``: the terms of the invariant integral
      of the transform as (c, atom, centre, degree), one per nonzero term
      (an atom gives itself with c = 1): on each circle |z| = r the atom's
      transform, on the circle rule Moebius-mapped around ``centre``
      (``berezin._circle_rule``) and times its weight, is a Laurent
      polynomial of that degree in the rule's variable, so the rule is
      exact from the smallest power of two above it; degree 0 about
      centre 0 is one node per circle;
    - ``boundary_weight(order)``: (integral of (1-|w|^2)^(-order) against
      |mu|, endpoint exponent of (1 - t) that decides its finiteness,
      +inf for compact support);
    - ``conjugate()``: the complex-conjugate measure;
    - ``to_config()`` / ``from_config(obj)``: the JSON codec.
    """

    radial = False
    nonnegative = True
    distribution = False
    real = True
    config_fields: tuple = ()

    def entry(self, alpha: int, beta: int, n: int, m: int) -> complex:
        if m < alpha or n < beta:
            return 0.0 + 0.0j
        return (
            _sign(alpha, beta)
            * basis_deriv_coeff(m, alpha)
            * basis_deriv_coeff(n, beta)
            * self.moment(m - alpha, n - beta)
        )

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        return _densify(self.factors(alpha, beta, dim), dim)

    def _tail(self, alpha: int, beta: int, dim: int) -> tuple[float, float]:
        return _diagonal_tail(self, alpha, beta, dim)

    def diagonal_tail(self, alpha: int, beta: int, dim: int) -> float:
        return sum(self._tail(alpha, beta, dim))

    def _unit(self, alpha: int, beta: int) -> tuple[complex, float]:
        # (unit, bound on its rounding and the product's): +1 for the radial kinds, empty off alpha = beta
        return 1.0, 0.0

    def closed_trace(self, alpha: int, beta: int) -> tuple[complex, float]:
        # |U'T' - UT| <= |U'| pad + |U' - U| T with U' within r of U, T' within pad of T
        total, pad = self._tail(alpha, beta, 0)
        unit, rounding = self._unit(alpha, beta)
        return complex(unit * total), pad + rounding * (total + 2.0 * pad)

    def circle_rules(self, alpha: int, beta: int) -> tuple:
        # a rotation-invariant kind's transform is conj(z)^alpha z^beta times
        # a function of |z|: degree |alpha - beta| on every circle, unmapped
        return ((1.0, self, 0j, abs(alpha - beta)),)

    def conjugate(self):
        return self

    def to_config(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.config_fields}}

    @classmethod
    def from_config(cls, obj: dict):
        # an absent field takes its dataclass default
        return cls(**{name: _number(obj[name]) for name in cls.config_fields if name in obj})


class _Radial(_Atom):
    """Rotation-invariant measures: moments vanish off the diagonal p = q,
    and the truncation is the single band m - alpha = n - beta."""

    radial = True

    def moment(self, p: int, q: int) -> complex:
        # the zero off the diagonal is exact, not a rounded small number
        if p != q:
            return 0.0 + 0.0j
        return complex(self.radial_moment(p))

    def factors(self, alpha: int, beta: int, dim: int) -> tuple:
        values = np.zeros(dim)
        n = np.arange(beta, min(dim, dim - alpha + beta))  # the rows whose column m is inside
        values[n] = (
            _sign(alpha, beta)
            * _basis_coeffs(n - beta + alpha, alpha)
            * _basis_coeffs(n, beta)
            * np.array([self.radial_moment(p) for p in range(n.size)])
        )
        return ((1.0, _Band(alpha - beta, values)),)

    def _tail(self, alpha: int, beta: int, dim: int) -> tuple[float, float]:
        # the single band misses the diagonal unless alpha = beta
        return _diagonal_tail(self, alpha, alpha, dim) if alpha == beta else (0.0, 0.0)


@dataclass(frozen=True)
class RadialPower(_Radial):
    """dmu = (1 - |z|^2)^s |z|^(2a) dA; needs s > -1 and a > -1."""

    s: float
    a: float = 0.0

    kind = "radial_power"
    config_fields = ("s", "a")

    def __post_init__(self):
        # NaN fails every comparison, and +inf the upper one
        if not (-1.0 < self.s < math.inf):
            raise ValueError(f"radial power weight needs finite s > -1, got s={self.s}")
        if not (-1.0 < self.a < math.inf):
            raise ValueError(f"radial power weight needs finite a > -1, got a={self.a}")

    def radial_moment(self, p: int) -> float:
        return beta_integral(p + self.a + 1.0, self.s + 1.0)

    def _pairing(self, coef: float, q: float, m: int) -> float:
        # coef B(q+a+1, s-m+1); +inf where the weight does not integrate (1-t)^(-m)
        y = self.s - m + 1.0
        return coef * beta_integral(q + self.a + 1.0, y) if y > 0.0 else math.inf

    def _pairing_bound(self, q: float, m: int) -> float:
        # the Beta's rounding at its arguments as formed, plus coef's and the product's
        x, y = q + self.a + 1.0, self.s - m + 1.0
        return beta_rounding(x, y, _U * (abs(q + self.a) + x), _U * (abs(self.s - m) + y)) + 2.0 * _U

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray):
        return _radial_power_S(alpha, beta, self.s, self.a, t)

    def boundary_weight(self, order: int) -> tuple[float, float]:
        return self._pairing(1.0, 0, order), self.s - order


def _check_radius(r0: float) -> None:
    if not (0.0 < r0 < 1.0):
        raise ValueError(f"circle radius must lie in (0, 1), got r0={r0}")


@dataclass(frozen=True)
class CircleUniform(_Radial):
    """Uniform probability measure on the circle |z| = r0."""

    r0: float

    kind = "circle_uniform"
    config_fields = ("r0",)

    def __post_init__(self):
        _check_radius(self.r0)

    def radial_moment(self, p: int) -> float:
        return self.r0 ** (2 * p)

    def _pairing(self, coef: float, q: float, m: int) -> float:
        t0 = self.r0**2
        return coef * t0**q * (1.0 - t0) ** (-m)

    def _pairing_bound(self, q: float, m: int) -> float:
        # 1 - t0 carries t0's rounding, t0 u / (1 - t0), and its own
        return _mass_bound(q, m, 1.0 / (1.0 - self.r0**2))

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray):
        # S = 2F1(alpha+2, beta+2; 1; y) in closed form, over (1-y)^(alpha+beta+3)
        y = t * self.r0 * self.r0
        S = _euler_hyp2f1(alpha, beta, y)
        return S, _EPS * (alpha + beta + 3) / (1.0 - y) * S  # rounding through (1-y)^-power

    def boundary_weight(self, order: int) -> tuple[float, float]:
        return self._pairing(1.0, 0, order), math.inf


@dataclass(frozen=True)
class PointMass(_Atom):
    """Unit mass at a point z0 strictly inside the disk."""

    z0: complex

    kind = "point_mass"
    config_fields = ("re", "im")

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if not abs(self.z0) < 1.0:
            raise ValueError(f"point mass must sit inside the disk, got |z0|={abs(self.z0)}")

    @property
    def radial(self) -> bool:
        # only the mass at the origin is rotation invariant: its truncation is
        # the single entry (n, m) = (beta, alpha), on the band m - alpha = n - beta
        return self.z0 == 0

    def to_config(self) -> dict:
        return {"kind": self.kind, "re": self.z0.real, "im": self.z0.imag}

    @classmethod
    def from_config(cls, obj: dict):
        return cls(complex(_number(obj.get("re", 0.0)), _number(obj.get("im", 0.0))))

    def moment(self, p: int, q: int) -> complex:
        return self.z0**p * self.z0.conjugate() ** q

    def factors(self, alpha: int, beta: int, dim: int) -> tuple:
        idx = np.arange(dim)

        def vector(order: int) -> np.ndarray:  # c(i, order) z0^(i - order), 0 below the order
            # numpy's integer powers of a complex scalar are Python's, to the bit
            out = _basis_coeffs(idx, order) * np.power(np.complex128(self.z0), np.maximum(idx - order, 0))
            out[:order] = 0.0
            return out

        row = vector(beta)  # output side, index n
        col = row if alpha == beta else vector(alpha)  # input side, index m
        return ((1.0, _RankOne(_sign(alpha, beta), row, col, alpha - beta)),)

    @cached_property
    def _gap(self) -> tuple[float, float]:
        # (x, 1 - x), x = |z0|^2, each rounded once from the exact rational, on first
        # use: a rounded x would move a pairing by u (q + m x/(1-x)) relative
        x = Fraction(self.z0.real) ** 2 + Fraction(self.z0.imag) ** 2
        return float(x), float(1 - x)

    def _pairing(self, coef: float, q: float, m: int) -> float:
        return coef * self._gap[0] ** q * self._gap[1] ** (-m)

    def _pairing_bound(self, q: float, m: int) -> float:
        return _mass_bound(q, m, 1.0)

    def _unit(self, alpha: int, beta: int) -> tuple[complex, float]:
        # sign (z0/|z0|)^k, the phase of conj(z0)^(n-beta) z0^(n-alpha): |k| factors
        # within 1.5 eps (abs, a division), |k| - 1 complex products within
        # sqrt(2) gamma_2 (Higham, Lemma 3.5), u for the product with the tail
        k = beta - alpha
        if k == 0 or self.z0 == 0:
            return _sign(alpha, beta), 0.0
        phase = self.z0 / abs(self.z0)
        return _sign(alpha, beta) * (phase if k > 0 else phase.conjugate()) ** abs(k), 3.0 * abs(k) * _EPS

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray):
        z0 = self.z0
        w = z.conjugate() * z0  # conj(w) is z conj(z0) up to a zero's sign, which 1 - conj(w) erases
        gap = 1.0 - w
        S = _ipow(gap, -(2 + alpha)) * _ipow(1.0 - w.conjugate(), -(2 + beta))
        # each rounded product conj(z) z0 is within sqrt(2) gamma_2 |z||z0|
        # (Higham, Accuracy and Stability, §3.6, Lemma 3.5); it moves 1 - conj(z) z0
        # by that over |1 - conj(z) z0| relative; the powers amplify it 4+alpha+beta times
        conditioning = (4 + alpha + beta) * math.sqrt(2.0) * _gamma(2) * abs(z0) * np.sqrt(t) / np.abs(gap)
        # the rest as Higham's gamma_n, a complex product counted as gamma_3 and a
        # reciprocal as gamma_6 (Lemma 3.5): per gap its rounding and powers,
        # 4 (2 + order), and the reciprocal, 6; their product, 3
        roundings = 4 * (alpha + beta) + 31
        return S, (_gamma(roundings) + conditioning) * np.abs(S)

    def circle_rules(self, alpha: int, beta: int) -> tuple:
        # mapped around z0, with rho = r |z0|, 1 - z conj(z0) is (1 - rho^2)/(1 + rho w)
        # and 1 - conj(z) z0 is w (1 - rho^2)/(w + rho), so the transform times
        # the rule's weight is a constant times
        # (w + rho)^(1+beta) (1 + rho w)^(1+alpha) w^-(1+alpha): degree 1 + max(alpha, beta)
        if self.z0 == 0:
            return super().circle_rules(alpha, beta)
        return ((1.0, self, self.z0, 1 + max(alpha, beta)),)

    def boundary_weight(self, order: int) -> tuple[float, float]:
        return self._pairing(1.0, 0, order), math.inf


@dataclass(frozen=True)
class CircleRadialDerivative(_Atom):
    """Radial derivative of the uniform circle measure at radius r0.

    A distribution, not a measure: it pairs with a test function phi as
    minus the radial derivative of phi's angular average at r0.  Symbols
    built on it have alpha = beta = 0 (``SymbolSpec`` enforces this), so
    its methods ignore the orders.
    """

    r0: float

    kind = "circle_radial_derivative"
    radial = True
    nonnegative = False
    distribution = True
    config_fields = ("r0",)

    def __post_init__(self):
        _check_radius(self.r0)

    def _diagonal(self, n):
        """Matrix diagonal -(n+1) 2n r0^(2n-1) at an int or an int array n
        (the n = 0 entry vanishes whatever the power)."""
        return -(n + 1.0) * 2.0 * n * self.r0 ** abs(2 * n - 1)

    def moment(self, p: int, q: int) -> complex:
        raise UnsupportedSymbolError(
            "distributions have no monomial moments; use the dedicated pairings"
        )

    def entry(self, alpha: int, beta: int, n: int, m: int) -> complex:
        if n != m:
            return 0.0 + 0.0j
        return complex(self._diagonal(n))

    def factors(self, alpha: int, beta: int, dim: int) -> tuple:
        return ((1.0, _Band(0, self._diagonal(np.arange(dim)))),)

    def _tail(self, alpha: int, beta: int, dim: int) -> tuple[float, float]:
        # |diagonal| (n+1) 2n r0^(2n-1) is twice the point-mass (1, 0) one at |z0| = r0
        return tuple(2.0 * v for v in PointMass(self.r0)._tail(1, 0, dim))

    def _unit(self, alpha: int, beta: int) -> tuple[complex, float]:
        return -1.0, 0.0

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray):
        # minus d/dr at r0 of the angular average of |k_z|^2 over (1-t)^2: (2/r0)
        # times the sum over p >= 1 of p (p+1)^2 y^p, which is 2y (2+y) / (1-y)^4
        r0 = self.r0
        y = t * r0 * r0
        S = -(2.0 / r0) * (2.0 * y * (2.0 + y) / (1.0 - y) ** 4)
        return S, _EPS * 16 / (1.0 - y) * np.abs(S)

    def boundary_weight(self, order: int) -> tuple[float, float]:
        # the absolute pairing with the weight: |d/dr (1-r^2)^(-order)| at r0
        r0 = self.r0
        return 2.0 * order * r0 * (1.0 - r0 * r0) ** (-order - 1), math.inf


@dataclass(frozen=True)
class Combination:
    """Finite complex combination of the atomic kinds (flat, nonempty).

    Every protocol method sums over the terms with nonzero coefficient:
    values weighted by c, error estimates by |c|.  The structural flags
    read every term.
    """

    terms: tuple

    kind = "combination"
    config_fields = ("terms",)

    def __post_init__(self):
        normalized = []
        for item in self.terms:
            try:
                coeff, base = item
            except (TypeError, ValueError):
                raise ValueError("combination terms must be (coefficient, measure) pairs")
            if not isinstance(base, _Atom):
                raise ValueError(f"combination terms must be atomic measures, got {type(base).__name__}")
            if not np.isfinite(coeff := complex(coeff)):
                raise ValueError(f"combination coefficients must be finite, got {coeff}")
            normalized.append((coeff, base))
        if not normalized:
            raise ValueError("combination must have at least one term")
        object.__setattr__(self, "terms", tuple(normalized))

    @property
    def radial(self) -> bool:
        return all(b.radial for _, b in self.terms)

    @property
    def nonnegative(self) -> bool:
        return all(c.imag == 0.0 and c.real >= 0.0 and b.nonnegative for c, b in self.terms)

    @property
    def distribution(self) -> bool:
        return any(b.distribution for _, b in self.terms)

    @property
    def real(self) -> bool:
        return all(c.imag == 0.0 for c, _ in self.terms)

    def _nonzero(self):
        return ((c, atom) for c, atom in self.terms if c != 0)

    def _sum(self, method: str, args: tuple, value, error=None):
        """Add c times each nonzero term's ``method(*args)`` to ``value``.
        Given an ``error`` start, the method returns (value, error) pairs
        and the errors add up weighted by |c|."""
        for c, atom in self._nonzero():
            out = getattr(atom, method)(*args)
            if error is None:
                value += c * out
            else:
                value += c * out[0]
                error += abs(c) * out[1]
        return value if error is None else (value, error)

    def moment(self, p: int, q: int) -> complex:
        return self._sum("moment", (p, q), 0.0 + 0.0j)

    def entry(self, alpha: int, beta: int, n: int, m: int) -> complex:
        return self._sum("entry", (alpha, beta, n, m), 0.0 + 0.0j)

    def factors(self, alpha: int, beta: int, dim: int) -> tuple:
        return tuple((c * k, f) for c, atom in self._nonzero() for k, f in atom.factors(alpha, beta, dim))

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        return _densify(self.factors(alpha, beta, dim), dim, combine=True)

    def diagonal_tail(self, alpha: int, beta: int, dim: int) -> float:
        return sum((abs(c) * atom.diagonal_tail(alpha, beta, dim) for c, atom in self._nonzero()), 0.0)

    def closed_trace(self, alpha: int, beta: int) -> tuple[complex, float]:
        return self._sum("closed_trace", (alpha, beta), 0.0 + 0.0j, 0.0)

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray):
        return self._sum(
            "berezin", (alpha, beta, z, t), np.zeros(z.size, dtype=complex), np.zeros(z.size)
        )

    def circle_rules(self, alpha: int, beta: int) -> tuple:
        return tuple((c * k, *rule) for c, atom in self._nonzero() for k, *rule in atom.circle_rules(alpha, beta))

    def boundary_weight(self, order: int) -> tuple[float, float]:
        # total variation bounded term-wise; the worst endpoint decides
        total, exponent = 0.0, math.inf
        for c, atom in self._nonzero():
            value, term_exponent = atom.boundary_weight(order)
            total += abs(c) * value
            exponent = min(exponent, term_exponent)
        return total, exponent

    def conjugate(self) -> Combination:
        return Combination(tuple((c.conjugate(), b.conjugate()) for c, b in self.terms))

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [
                {"coeff_re": c.real, "coeff_im": c.imag, "measure": b.to_config()}
                for c, b in self.terms
            ],
        }

    @classmethod
    def from_config(cls, obj: dict) -> Combination:
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValueError("combination needs a nonempty terms list")
        parsed = []
        for term in terms:
            if not isinstance(term, dict) or set(term) - {"coeff_re", "coeff_im", "measure"}:
                raise ValueError("combination terms carry coeff_re, coeff_im, measure")
            parsed.append(
                (
                    complex(_number(term.get("coeff_re", 0.0)), _number(term.get("coeff_im", 0.0))),
                    measure_from_config(term["measure"]),
                )
            )
        return cls(tuple(parsed))


BaseMeasure = Union[RadialPower, PointMass, CircleUniform, CircleRadialDerivative, Combination]

MEASURE_KINDS = {
    cls.kind: cls
    for cls in (RadialPower, PointMass, CircleUniform, CircleRadialDerivative, Combination)
}


def measure_from_config(obj) -> BaseMeasure:
    """Measure from its JSON config; unknown kinds or keys, missing fields
    and bad values raise ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("measure must be a JSON object")
    kind = obj.get("kind")
    cls = MEASURE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown measure kind {kind!r}")
    unknown = set(obj) - {"kind", *cls.config_fields}
    if unknown:
        raise ValueError(f"unknown keys for measure kind {kind!r}: {sorted(unknown)}")
    try:
        return cls.from_config(obj)
    except KeyError as exc:
        raise ValueError(f"measure kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid measure config: {exc}") from exc


@dataclass(frozen=True)
class SymbolSpec:
    """Derivative orders (alpha, beta) applied to a base measure.

    Represents the sesquilinear form pairing the alpha-th derivative of
    the first argument against the beta-th derivative of the second, with
    sign (-1)^(alpha+beta), integrated against the base measure.
    """

    alpha: int
    beta: int
    base: BaseMeasure

    def __post_init__(self):
        check_integer("derivative order", self.alpha, self.beta)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("derivative orders must be nonnegative")
        if self.alpha + self.beta > MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"alpha + beta capped at {MAX_DERIVATIVE_ORDER} (factorial growth), "
                f"got {self.alpha + self.beta}"
            )
        if self.base.distribution and (self.alpha != 0 or self.beta != 0):
            raise ValueError(
                "circle radial-derivative symbols support alpha = beta = 0 only"
            )


@dataclass(frozen=True)
class FinitenessReport:
    """Outcome of a boundary-weight integral: its value or why it diverges."""

    k: int
    finite: bool
    value: float | None = None
    divergence_exponent: float | None = None

    def __post_init__(self):
        if self.finite and (self.value is None or self.divergence_exponent is not None):
            raise ValueError("finite report carries a value and no exponent")
        if not self.finite and (self.value is not None or self.divergence_exponent is None):
            raise ValueError("divergent report carries an exponent and no value")


def moment(base: BaseMeasure, p: int, q: int) -> complex:
    """Monomial moment: integral of w^p conj(w)^q dmu(w), exact per variant.

    Radial variants vanish off the diagonal p = q by angular orthogonality,
    and the zero is exact, not a rounded small number.
    """
    check_integer("moment index", p, q)
    if p < 0 or q < 0:
        raise ValueError(f"moment indices must be nonnegative, got ({p}, {q})")
    return base.moment(p, q)


def boundary_weight_integral(base: BaseMeasure, weight_order: int) -> FinitenessReport:
    """Integral of (1 - |w|^2)^(-weight_order) against |mu|, decided analytically.

    ``weight_order`` is the full exponent (2k + 2 for Carleson order k).
    For combinations the total-variation mass is bounded term-wise, an
    upper bound; any divergent term with a nonzero coefficient makes the
    whole report divergent (conservative rule).  The circle radial
    derivative, compactly supported, contributes the absolute value of its
    pairing with the weight.
    """
    k_report = max((weight_order - 2) // 2, 0)
    value, exponent = base.boundary_weight(weight_order)
    if exponent > -1.0:
        return FinitenessReport(k=k_report, finite=True, value=value)
    return FinitenessReport(k=k_report, finite=False, divergence_exponent=exponent)


def carleson_integral(base: BaseMeasure, k: int) -> FinitenessReport:
    """Boundary integral of (1 - |w|^2)^(-2k-2) d|mu|, with closed-form value.

    Finite for every compactly supported variant; for a radial power weight,
    finite exactly when s - 2k - 2 > -1.
    """
    check_integer("Carleson order", k)
    if k < 0:
        raise ValueError(f"Carleson order must be nonnegative, got {k}")
    if base.distribution:
        raise UnsupportedSymbolError(
            "finiteness integral is defined for measures, not distributions"
        )
    return boundary_weight_integral(base, 2 * k + 2)
