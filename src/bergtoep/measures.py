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
from typing import Union

import numpy as np

from .berezin import _circle_derivative_values, _circle_uniform_S, _ipow, _prefactor, _radial_power_S
from .bergman import basis_deriv_coeff, d_alpha_beta_eval, d_alpha_beta_ratio, d_alpha_beta_terms
from .errors import NumericalFailureError, UnsupportedSymbolError
from .numutil import SERIES_TERM_CAP, beta_integral, falling_factorial, int_factorial, ratio_series

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
    "is_radial",
    "is_nonnegative",
    "is_real_measure",
    "contains_distribution",
]

MAX_DERIVATIVE_ORDER = 32


def _sign(alpha: int, beta: int) -> float:
    """(-1)^(alpha+beta), the sign of the sesquilinear form."""
    return -1.0 if (alpha + beta) % 2 else 1.0


def _geometric_diag_tail(term0: float, ratio_at, start: int) -> float:
    """Bound sum of |d_n| for n >= start when the term ratios decrease.

    Walks past the pre-asymptotic head where the ratio still exceeds 1;
    once below 1 the decreasing ratio itself is a valid geometric bound,
    so any finite bound ends the walk.  +inf when the walk is exhausted.
    """
    # every caller's ratio decreases in n (the D(alpha, beta) ratio times
    # |z0|^2, the circle band ratio, (n+2)/n times r0^2): if the last ratio
    # the walk may reach is still >= 1, so is each one before it, and the
    # walk would end exhausted
    if ratio_at(start + SERIES_TERM_CAP - 1) >= 1.0:
        return math.inf
    try:
        head, tail = ratio_series(
            [term0], lambda p, rows: np.array([ratio_at(start + p)]), sys.float_info.max
        )
    except NumericalFailureError:
        return math.inf
    return float(head[0] + tail[0])


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


class _Atom:
    """Defaults shared by the atomic kinds.

    The protocol, implemented by every kind and by ``Combination``:

    - ``kind``, ``radial``, ``nonnegative``, ``distribution``, ``real``:
      the codec name and the structural flags;
    - ``moment(p, q)``: integral of w^p conj(w)^q dmu (distributions raise
      ``UnsupportedSymbolError``);
    - ``entry(alpha, beta, n, m)``: one matrix element, the form applied
      to (e_m, e_n);
    - ``matrix(alpha, beta, dim)``: the dense truncation entries[n, m],
      written into one 16 dim^2 byte buffer (268 MB at the 4096 cap),
      with no index array of that size;
    - ``diagonal_trace(alpha, beta, dim)``: (partial diagonal sum, tail
      bound);
    - ``closed_trace(alpha, beta, tol)``: the pairing with the derivative
      kernel;
    - ``berezin(alpha, beta, z, t, tol)``: (values, error estimates) of
      the transform at the 1-d array z, with t = |z|^2;
    - ``sampler_budget(alpha, beta, tol)``: how far a pointwise transform
      tolerance can move the invariant integral;
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

    def sampler_budget(self, alpha: int, beta: int, tol: float) -> float:
        # the transform carries a (1-|z|^2)^2 factor that cancels the
        # invariant weight, leaving the derivative-order factorials
        return int_factorial(alpha + 1) * int_factorial(beta + 1) * tol

    def conjugate(self):
        return self

    def to_config(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.config_fields}}

    @classmethod
    def from_config(cls, obj: dict):
        return cls(*(float(obj[name]) for name in cls.config_fields))


class _Radial(_Atom):
    """Rotation-invariant measures: moments vanish off the diagonal p = q,
    and the truncation is the single band m - alpha = n - beta."""

    radial = True

    def moment(self, p: int, q: int) -> complex:
        # the zero off the diagonal is exact, not a rounded small number
        if p != q:
            return 0.0 + 0.0j
        return complex(self.radial_moment(p))

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        sign = _sign(alpha, beta)
        out = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            m = n - beta + alpha
            if m < alpha or m >= dim or n < beta:
                continue
            out[n, m] = (
                sign
                * basis_deriv_coeff(m, alpha)
                * basis_deriv_coeff(n, beta)
                * self.radial_moment(m - alpha)
            )
        return out

    def diagonal_trace(self, alpha: int, beta: int, dim: int) -> tuple[complex, float]:
        if alpha != beta:
            # the single band misses the diagonal entirely
            return 0.0 + 0.0j, 0.0
        return self._band_trace(alpha, dim)

    def closed_trace(self, alpha: int, beta: int, tol: float) -> complex:
        if alpha != beta:
            # rotation invariance: every surviving kernel term carries a
            # nonzero angular frequency, so the pairing vanishes identically
            return 0.0 + 0.0j
        total = 0.0
        for coef, p_conj, _p, m in d_alpha_beta_terms(alpha, beta):
            total += self._kernel_term(coef, p_conj, m)
        return complex(_sign(alpha, beta) * total)

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray, tol: float):
        # the diagonal sum S once per distinct t, broadcast over the points
        prefactor = _prefactor(alpha, beta, z, t)
        t_distinct, where = np.unique(t, return_inverse=True)
        S, est = self._diagonal_sum(alpha, beta, t_distinct, tol)
        S, est = S[where], est[where]
        value = prefactor * S
        return value, np.abs(prefactor) * est + 1e-15 * np.abs(prefactor) * np.abs(S)


@dataclass(frozen=True)
class RadialPower(_Radial):
    """dmu = (1 - |z|^2)^s |z|^(2a) dA; needs s > -1 and a > -1."""

    s: float
    a: float = 0.0

    kind = "radial_power"
    config_fields = ("s", "a")

    def __post_init__(self):
        if not (self.s > -1.0):
            raise ValueError(f"radial power weight needs s > -1, got s={self.s}")
        if not (self.a > -1.0):
            raise ValueError(f"radial power weight needs a > -1, got a={self.a}")

    @classmethod
    def from_config(cls, obj: dict):
        return cls(s=float(obj["s"]), a=float(obj.get("a", 0.0)))

    def radial_moment(self, p: int) -> float:
        return beta_integral(p + self.a + 1.0, self.s + 1.0)

    def _kernel_term(self, coef: float, p_conj: int, m: int) -> float:
        return coef * beta_integral(p_conj + self.a + 1.0, self.s - m + 1.0)

    def _diagonal_sum(self, alpha, beta, t, tol):
        return _radial_power_S(alpha, beta, self.s, self.a, t, tol)

    def _band_trace(self, alpha: int, dim: int) -> tuple[complex, float]:
        # the diagonal decays like n^(2 alpha - s): a power-law tail
        s, a = self.s, self.a
        d0 = (alpha + 1.0) * int_factorial(alpha) ** 2 * beta_integral(a + 1.0, s + 1.0)

        def ratios(n_arr: np.ndarray) -> np.ndarray:
            return (
                (n_arr + 2.0)
                / (n_arr + 1.0)
                * ((n_arr + 1.0) / (n_arr + 1.0 - alpha)) ** 2
                * (n_arr - alpha + a + 1.0)
                / (n_arr - alpha + a + s + 2.0)
            )

        def diag_values(n_lo: int, n_hi: int, lead: float) -> np.ndarray:
            n_arr = np.arange(n_lo, n_hi, dtype=float)
            if n_arr.size == 0:
                return np.zeros(0)
            r = ratios(n_arr)
            return lead * np.concatenate(([1.0], np.cumprod(r[:-1])))

        d_head = diag_values(alpha, dim, d0)
        value = complex(math.fsum(d_head))
        if s - 2 * alpha - 1 <= 0.0:
            return value, math.inf
        # the diagonal starts at n = alpha; a truncation below that misses it all
        tail_start = max(dim, alpha)
        d_start = float(d_head[-1] * ratios(np.array([dim - 1.0]))[0]) if dim > alpha else d0
        m_far = max(8 * dim, 200_000)
        d_tail = diag_values(tail_start, m_far, d_start)
        head = float(math.fsum(d_tail))
        # power-law remainder beyond the summed stretch, doubled for safety
        c_loc = -math.log(d_tail[-1] / d_tail[-2]) / math.log(m_far / (m_far - 1.0))
        remainder = d_tail[-1] * m_far / (c_loc - 1.0) if c_loc > 1.0 else math.inf
        return value, head + 2.0 * remainder

    def boundary_weight(self, order: int) -> tuple[float, float]:
        exponent = self.s - order
        if exponent > -1.0:
            return beta_integral(self.a + 1.0, exponent + 1.0), exponent
        return math.inf, exponent


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

    def _kernel_term(self, coef: float, p_conj: int, m: int) -> float:
        t0 = self.r0**2
        return coef * t0**p_conj * (1.0 - t0) ** (-m)

    def _diagonal_sum(self, alpha, beta, t, tol):
        return _circle_uniform_S(alpha, beta, self.r0, t, tol)

    def _band_trace(self, alpha: int, dim: int) -> tuple[complex, float]:
        y = self.r0**2
        terms = [
            (n + 1.0) * falling_factorial(n, alpha) ** 2 * y ** (n - alpha)
            for n in range(alpha, dim)
        ]
        value = complex(math.fsum(terms))

        def ratio_at(n_: int) -> float:
            return (n_ + 2.0) / (n_ + 1.0) * ((n_ + 1.0) / (n_ + 1.0 - alpha)) ** 2 * y

        n = max(dim, alpha)
        first = (n + 1.0) * falling_factorial(n, alpha) ** 2 * y ** (n - alpha)
        return value, _geometric_diag_tail(first, ratio_at, n)

    def boundary_weight(self, order: int) -> tuple[float, float]:
        return (1.0 - self.r0**2) ** (-order), math.inf


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

    def to_config(self) -> dict:
        return {"kind": self.kind, "re": self.z0.real, "im": self.z0.imag}

    @classmethod
    def from_config(cls, obj: dict):
        return cls(complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0))))

    def moment(self, p: int, q: int) -> complex:
        return self.z0**p * self.z0.conjugate() ** q

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        if alpha > beta:
            # canonical orientation; the other is its exact conjugate
            # transpose, which keeps adjoint coherence bitwise
            out = self.matrix(beta, alpha, dim)
            _conj_transpose_tiles(out, mirror=False)
            return out
        z0 = self.z0
        m = np.arange(dim)
        cm = np.array([basis_deriv_coeff(int(i), alpha) for i in m])
        cn = np.array([basis_deriv_coeff(int(i), beta) for i in m])
        zpow_m = np.array([z0 ** (i - alpha) if i >= alpha else 0.0 for i in m], dtype=complex)
        zpow_n = np.array([z0 ** (i - beta) if i >= beta else 0.0 for i in m], dtype=complex)
        col = cm * zpow_m          # input-side vector, index m
        row = cn * zpow_n          # output-side vector, index n
        # entries[n, m] = sign * col[m] * conj(row[n]): a rank-one matrix
        out = np.outer(row.conjugate(), col)
        np.multiply(_sign(alpha, beta), out, out=out)
        if alpha == beta:
            # the adjoint is the same symbol, so the matrix must be
            # Hermitian to the bit: mirror the upper triangle and keep
            # the diagonal real (fused multiplies otherwise leave ulps)
            _conj_transpose_tiles(out, mirror=True)
            np.fill_diagonal(out.imag, 0.0)
        return out

    def diagonal_trace(self, alpha: int, beta: int, dim: int) -> tuple[complex, float]:
        j0 = max(alpha, beta)
        z0 = self.z0
        x = (z0 * z0.conjugate()).real
        terms = []
        for n in range(j0, dim):
            terms.append(
                math.sqrt(n + 1.0)
                * falling_factorial(n, alpha)
                * math.sqrt(n + 1.0)
                * falling_factorial(n, beta)
                * z0 ** (n - alpha)
                * z0.conjugate() ** (n - beta)
            )
        value = _sign(alpha, beta) * complex(
            math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
        )

        # the diagonal terms are those of the D(alpha, beta) series at z0
        def ratio_at(n_: int) -> float:
            return d_alpha_beta_ratio(n_, alpha, beta) * x

        n = max(dim, j0)
        first = (
            (n + 1.0)
            * falling_factorial(n, alpha)
            * falling_factorial(n, beta)
            * x ** (n - (alpha + beta) / 2.0)
        )
        return value, _geometric_diag_tail(first, ratio_at, n)

    def closed_trace(self, alpha: int, beta: int, tol: float) -> complex:
        return _sign(alpha, beta) * d_alpha_beta_eval(self.z0, alpha, beta, tol)

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray, tol: float):
        z0 = self.z0
        value = (
            _prefactor(alpha, beta, z, t)
            * _ipow(1.0 - z.conjugate() * z0, -(2 + alpha))
            * _ipow(1.0 - z * z0.conjugate(), -(2 + beta))
        )
        return value, 1e-14 * np.abs(value)

    def boundary_weight(self, order: int) -> tuple[float, float]:
        return (1.0 - abs(self.z0) ** 2) ** (-order), math.inf


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

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        np.fill_diagonal(out, self._diagonal(np.arange(dim)))
        return out

    def diagonal_trace(self, alpha: int, beta: int, dim: int) -> tuple[complex, float]:
        value = complex(math.fsum(self._diagonal(np.arange(dim))))
        y = self.r0**2

        def ratio_at(n_: int) -> float:
            return (n_ + 1.0) / n_ * (n_ + 2.0) / (n_ + 1.0) * y

        first = 2.0 * dim * (dim + 1.0) * self.r0 ** (2 * dim - 1)
        return value, _geometric_diag_tail(first, ratio_at, max(dim, 1))

    def closed_trace(self, alpha: int, beta: int, tol: float) -> complex:
        r0 = self.r0
        return complex(-4.0 * r0 / (1.0 - r0 * r0) ** 3)

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray, tol: float):
        return _circle_derivative_values(self.r0, t, tol)

    def sampler_budget(self, alpha: int, beta: int, tol: float) -> float:
        return 2.0 / self.r0 * tol

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
            normalized.append((complex(coeff), base))
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

    def matrix(self, alpha: int, beta: int, dim: int) -> np.ndarray:
        # each term is scaled in place, c on the left as in c * term, and
        # freed before the next is built; the zero start fixes the signs
        # of zeros
        out = np.zeros((dim, dim), dtype=complex)
        for c, atom in self._nonzero():
            term = atom.matrix(alpha, beta, dim)
            out += np.multiply(c, term, out=term)
            del term
        return out

    def diagonal_trace(self, alpha: int, beta: int, dim: int) -> tuple[complex, float]:
        return self._sum("diagonal_trace", (alpha, beta, dim), 0.0 + 0.0j, 0.0)

    def closed_trace(self, alpha: int, beta: int, tol: float) -> complex:
        return self._sum("closed_trace", (alpha, beta, tol), 0.0 + 0.0j)

    def berezin(self, alpha: int, beta: int, z: np.ndarray, t: np.ndarray, tol: float):
        return self._sum(
            "berezin", (alpha, beta, z, t, tol), np.zeros(z.size, dtype=complex), np.zeros(z.size)
        )

    def sampler_budget(self, alpha: int, beta: int, tol: float) -> float:
        return sum(abs(c) * atom.sampler_budget(alpha, beta, tol) for c, atom in self._nonzero())

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
                    complex(float(term.get("coeff_re", 0.0)), float(term.get("coeff_im", 0.0))),
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid measure config: {exc}") from exc


def contains_distribution(base: BaseMeasure) -> bool:
    return base.distribution


def is_radial(base: BaseMeasure) -> bool:
    """True when the measure is rotation invariant (point masses are not)."""
    return base.radial


def is_nonnegative(base: BaseMeasure) -> bool:
    return base.nonnegative


def is_real_measure(base: BaseMeasure) -> bool:
    """True when the pairing is real-valued (real coefficients throughout)."""
    return base.real


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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("derivative orders must be nonnegative")
        if int(self.alpha) != self.alpha or int(self.beta) != self.beta:
            raise ValueError("derivative orders must be integers")
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
    if k < 0:
        raise ValueError(f"Carleson order must be nonnegative, got {k}")
    if contains_distribution(base):
        raise UnsupportedSymbolError(
            "finiteness integral is defined for measures, not distributions"
        )
    report = boundary_weight_integral(base, 2 * k + 2)
    return FinitenessReport(
        k=k,
        finite=report.finite,
        value=report.value,
        divergence_exponent=report.divergence_exponent,
    )
