"""Small numerical helpers: the Beta integral with its rounding bound,
falling factorials, and the ratio-series summer with its geometric tail
bound."""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable

import numpy as np

from .errors import NumericalFailureError

SERIES_TERM_CAP = 100_000


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite and positive, NaN included."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")


def check_integer(what: str, *values) -> None:
    """Reject bools and non-integers among ``values``, each named ``what``
    in the message; Python and numpy integers pass."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{what} must be an integer, got {value!r}")


def beta_integral(x: float, y: float) -> float:
    """Euler Beta B(x, y) = integral of t^(x-1) (1-t)^(y-1) over (0, 1)."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"Beta integral requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def beta_rounding(x: float, y: float, dx: float, dy: float) -> float:
    """Bound b with exact <= computed (1 + b) for ``beta_integral`` at x, y
    within dx, dy of the exact arguments: each lgamma(v) within
    eps (2 |lgamma(v)| + 6) (glibc's peaks at 5.4 eps against mpmath), the
    log's two additions within eps |lgamma(v)|, argument errors moved by
    the digamma bound |log v| + 1/v, and exp within one ulp."""
    eps = sys.float_info.epsilon
    log_error = sum(
        eps * (3.0 * abs(math.lgamma(v)) + 6.0) + (abs(math.log(v)) + 1.0 / v) * dv
        for v, dv in ((x, dx), (y, dy), (x + y, dx + dy + eps / 2.0 * (x + y)))
    )
    return math.expm1(log_error) + eps


def falling_factorial(m: int, k: int) -> float:
    """m (m-1) ... (m-k+1) as a float; 0 when k > m, 1 when k = 0."""
    if k < 0:
        raise ValueError("falling factorial order must be nonnegative")
    if k > m:
        return 0.0
    out = 1.0
    for i in range(k):
        out *= m - i
    return out


def int_factorial(k: int) -> float:
    """k! built by multiplication (k is small, order of a derivative)."""
    return falling_factorial(k, k)


def ratio_series(first, ratio_at: Callable, tol: float, ratio_sup=0.0):
    """Sum positive-ratio series row by row with a term-ratio geometric tail bound.

    ``first`` holds each row's first term and ``ratio_at(p, rows)`` maps the
    index p to term(p+1)/term(p) for the listed rows; ``ratio_sup`` (a
    scalar or one value per row) is the limiting ratio the terms approach.
    The tail is bounded geometrically with the larger of the two, which
    stays valid when the ratio sequence dips below its limit before rising
    back.  Each row stops at the first term where its own bound meets
    ``tol``, so it sums the same terms whatever else shares the batch.
    Returns (sums, tail_bounds).
    """
    term = np.array(first, dtype=float).ravel()
    size = term.size
    sums = np.empty(size)
    tails = np.empty(size)
    rows = np.arange(size)
    sup = np.broadcast_to(np.asarray(ratio_sup, dtype=float), (size,))
    acc = np.zeros(size)
    comp = np.zeros(size)
    p = 0
    while rows.size:
        if p >= SERIES_TERM_CAP:
            raise NumericalFailureError(
                f"series did not converge within {SERIES_TERM_CAP} terms",
                partial=float(acc[0] + comp[0]),
            )
        # Neumaier-compensated running sum, row by row
        total = acc + term
        comp += np.where(np.abs(acc) >= np.abs(term), (acc - total) + term, (term - total) + acc)
        acc = total
        ratio = ratio_at(p, rows)
        rho = np.maximum(ratio, sup)
        below = rho < 1.0
        tail = np.where(below, np.abs(term) * rho / np.where(below, 1.0 - rho, 1.0), np.inf)
        done = tail <= tol
        if done.any():
            sums[rows[done]] = acc[done] + comp[done]
            tails[rows[done]] = tail[done]
            keep = ~done
            rows, term, acc, comp = rows[keep], term[keep], acc[keep], comp[keep]
            ratio, sup = ratio[keep], sup[keep]
        term = term * ratio
        p += 1
    return sums, tails
