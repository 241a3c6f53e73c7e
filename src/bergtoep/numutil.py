"""Small numerical helpers: argument checks, the Beta integral with its
rounding bound, and falling factorials."""

from __future__ import annotations

import math
import numbers
import sys


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
