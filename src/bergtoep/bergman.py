"""Closed forms tied to the Bergman space of the unit disk.

Orthonormal basis e_n(z) = sqrt(n+1) z^n under normalized area measure,
reproducing kernel K_z(w) = (1 - conj(z) w)^(-2), and the two-sided
derivative kernel

    D(a, b)(w) = d^a dbar^b (1 - w conj(w))^(-2)
              = sum over j >= max(a, b) of
                (j+1) [j!/(j-a)!] [j!/(j-b)!] w^(j-a) conj(w)^(j-b),

which the trace formula pairs against the base measure.  Every kernel
here is a finite sum: the product rule writes D(a, b) as min(a, b) + 1
terms in w, conj(w) and (1 - |w|^2), so no series is summed.
"""

from __future__ import annotations

import math

from .errors import BoundaryError
from .numutil import check_integer, falling_factorial, int_factorial

__all__ = [
    "basis_deriv_coeff",
    "kernel_deriv_eval",
    "kernel_deriv_norm",
    "d_alpha_beta_eval",
    "d_alpha_beta_terms",
]

# evaluation points stay this far inside the unit circle
BOUNDARY_MARGIN = 1e-6


def basis_deriv_coeff(m: int, alpha: int) -> float:
    """Coefficient of z^(m-alpha) in the alpha-th derivative of e_m.

    Equals sqrt(m+1) * m!/(m-alpha)!, and 0 when the derivative order
    exceeds the degree.
    """
    check_integer("basis index and derivative order", m, alpha)
    if m < 0 or alpha < 0:
        raise ValueError("basis index and derivative order must be nonnegative")
    if alpha > m:
        return 0.0
    return math.sqrt(m + 1.0) * falling_factorial(m, alpha)


def kernel_deriv_eval(z: complex, w: complex, alpha: int) -> complex:
    """alpha-th derivative in w of the reproducing kernel K_z at w.

    Closed form (alpha+1)! conj(z)^alpha (1 - conj(z) w)^(-(2+alpha)).
    """
    z = complex(z)
    w = complex(w)
    check_integer("derivative order", alpha)
    if alpha < 0:
        raise ValueError("derivative order must be nonnegative")
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise BoundaryError("kernel derivative is evaluated at interior points only")
    denom = 1.0 - z.conjugate() * w
    if abs(denom) < 1e-15:
        raise BoundaryError("kernel evaluation too close to the diagonal singularity")
    return int_factorial(alpha + 1) * z.conjugate() ** alpha * denom ** (-(2 + alpha))


def kernel_deriv_norm(z0: complex, gamma: int) -> float:
    """Norm of the gamma-th kernel derivative v(w) = (gamma+1)! w^gamma
    (1 - conj(z0) w)^(-(2+gamma)), the function reproducing f^(gamma)(z0).

    The squared norm is v^(gamma)(z0) = D(gamma, gamma)(z0): with x = |z0|^2,
    the sum of coef x^p (1-x)^(-m) over ``d_alpha_beta_terms(gamma, gamma)``,
    whose terms are all positive, so nothing cancels.
    """
    z0 = complex(z0)
    if gamma < 0:
        raise ValueError("derivative order must be nonnegative")
    x = (z0 * z0.conjugate()).real
    if x >= 1.0:
        raise BoundaryError("kernel derivative norm needs |z0| < 1")
    terms = d_alpha_beta_terms(gamma, gamma)
    return math.sqrt(math.fsum(coef * x**p * (1.0 - x) ** -m for coef, _, p, m in terms))


def d_alpha_beta_eval(w: complex, alpha: int, beta: int) -> complex:
    """Derivative kernel D(alpha, beta)(w) by the finite product-rule
    expansion ``d_alpha_beta_terms``, for |w| <= 1 - ``BOUNDARY_MARGIN``."""
    w = complex(w)
    if not abs(w) <= 1.0 - BOUNDARY_MARGIN:  # NaN included
        raise BoundaryError(f"derivative kernel needs |w| <= {1.0 - BOUNDARY_MARGIN}, got |w|={abs(w)}")
    u = 1.0 - (w * w.conjugate()).real
    terms = d_alpha_beta_terms(alpha, beta)  # rejects negative orders
    return sum(coef * w.conjugate() ** p_conj * w**p * u ** (-m) for coef, p_conj, p, m in terms)


def d_alpha_beta_terms(alpha: int, beta: int) -> list[tuple[float, int, int, int]]:
    """Finite expansion of D(alpha, beta) via the product rule.

    Returns tuples (coef, p_conj, p, m) meaning
    coef * conj(w)^p_conj * w^p * (1 - |w|^2)^(-m), with
    p_conj = alpha - i, p = beta - i, m = 2 + alpha + beta - i for
    i = 0 .. min(alpha, beta).  Differentiating first in w gives
    (alpha+1)! conj(w)^alpha (1 - |w|^2)^(-(2+alpha)); the conjugate
    derivatives then distribute over that product.
    """
    check_integer("derivative order", alpha, beta)
    if alpha < 0 or beta < 0:
        raise ValueError("derivative orders must be nonnegative")
    lead = int_factorial(alpha + 1)
    terms = []
    for i in range(min(alpha, beta) + 1):
        # binom(beta, i) * alpha!/(alpha-i)! * (1+alpha+beta-i)!/(1+alpha)!
        coef = (
            lead
            * falling_factorial(beta, i)
            / int_factorial(i)
            * falling_factorial(alpha, i)
            * falling_factorial(1 + alpha + beta - i, beta - i)
        )
        terms.append((coef, alpha - i, beta - i, 2 + alpha + beta - i))
    return terms
