"""Basis coefficients, kernel derivatives, and the derivative kernel."""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest

from bergtoep.bergman import (
    basis_deriv_coeff,
    d_alpha_beta_eval,
    d_alpha_beta_terms,
    kernel_deriv_eval,
    kernel_deriv_norm,
)
from bergtoep.errors import BoundaryError


def test_basis_deriv_coeff_values():
    assert basis_deriv_coeff(3, 0) == pytest.approx(2.0)
    assert basis_deriv_coeff(3, 2) == pytest.approx(12.0)
    assert basis_deriv_coeff(1, 2) == 0.0


def test_basis_orthonormality_by_quadrature():
    # independent 2D oracle: Gauss-Legendre in t = |z|^2, trapezoid in angle
    t_nodes, t_weights = np.polynomial.legendre.leggauss(32)
    t_nodes = 0.5 * (t_nodes + 1.0)
    t_weights = 0.5 * t_weights
    n_theta = 32
    for n in range(4):
        for m in range(4):
            acc = 0.0 + 0.0j
            for t, wt in zip(t_nodes, t_weights):
                r = math.sqrt(t)
                ang = 0.0 + 0.0j
                for j in range(n_theta):
                    z = r * cmath.exp(2j * math.pi * j / n_theta)
                    e_n = math.sqrt(n + 1.0) * z**n
                    e_m = math.sqrt(m + 1.0) * z**m
                    ang += e_n * e_m.conjugate()
                acc += wt * ang / n_theta
            expected = 1.0 if n == m else 0.0
            assert acc == pytest.approx(expected, abs=1e-12)


def test_kernel_deriv_values():
    assert kernel_deriv_eval(0.0, 0.0, 0) == pytest.approx(1.0)
    assert kernel_deriv_eval(0.5, 0.0, 1) == pytest.approx(1.0)
    assert kernel_deriv_eval(0.5, 0.5, 2) == pytest.approx(6 * 0.25 / 0.75**4, rel=1e-13)


def test_kernel_deriv_rejects_exterior_points():
    with pytest.raises(BoundaryError):
        kernel_deriv_eval(1.0, 0.0, 0)


def test_kernel_partial_sums_reproduce_kernel():
    # sum over n <= N of e_n(z) conj(e_n(w)) has a geometric tail at 0.8
    rng = np.random.default_rng(7)
    for _ in range(6):
        z = 0.8 * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
        w = 0.8 * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
        n_cut = 120
        partial = sum(
            (n + 1.0) * z**n * w.conjugate() ** n for n in range(n_cut + 1)
        )
        exact = kernel_deriv_eval(w, z, 0)  # K_w(z)
        x = 0.64
        tail_bound = sum((n + 1.0) * x**n for n in range(n_cut + 1, n_cut + 400))
        assert abs(partial - exact) <= tail_bound + 1e-13


def test_derivative_kernel_origin_values():
    assert d_alpha_beta_eval(0.0, 0, 0) == pytest.approx(1.0)
    assert d_alpha_beta_eval(0.0, 1, 1) == pytest.approx(2.0)
    assert d_alpha_beta_eval(0.0, 1, 0) == 0.0


def test_derivative_kernel_one_sided_closed_form():
    assert d_alpha_beta_eval(0.5, 1, 0) == pytest.approx(
        2 * 0.5 / 0.75**3, rel=1e-11
    )


def test_derivative_kernel_diagonal_closed_form_anchor():
    # the (1,1) closed form 2 (1 + 2|w|^2) (1 - |w|^2)^(-4) pins the
    # normalization that route agreement adjudicates downstream
    for w in (0.0, 0.3, 0.5 + 0.2j, 0.8):
        t = abs(w) ** 2
        expected = 2.0 * (1.0 + 2.0 * t) / (1.0 - t) ** 4
        assert d_alpha_beta_eval(w, 1, 1) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 1), (1, 0), (2, 1), (2, 2), (3, 1), (1, 4), (5, 5)])
def test_derivative_kernel_against_mpmath_derivatives(alpha, beta):
    # d^alpha dbar^beta (1 - w conj(w))^(-2) as the partial derivatives of
    # (1 - x y)^(-2) at x = w, y = conj(w), by mpmath's numerical
    # differentiation at 30 digits
    rng = np.random.default_rng(11)
    with mpmath.workdps(30):
        for _ in range(3):
            w = 0.9 * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
            x = mpmath.mpc(w.real, w.imag)
            ref = mpmath.diff(lambda a, b: (1 - a * b) ** -2, (x, mpmath.conj(x)), (alpha, beta))
            assert abs(d_alpha_beta_eval(w, alpha, beta) - complex(ref)) <= 1e-12 * abs(ref), (w, ref)


def test_derivative_kernel_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for alpha, beta in ((1, 0), (2, 1), (3, 2)):
        for _ in range(5):
            w = 0.85 * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
            a = d_alpha_beta_eval(w, alpha, beta)
            b = d_alpha_beta_eval(w, beta, alpha)
            assert abs(a - b.conjugate()) <= 1e-13 * max(abs(a), 1.0)


def test_derivative_kernel_boundary_guard():
    with pytest.raises(BoundaryError):
        d_alpha_beta_eval(0.9999995, 0, 0)


def test_product_rule_terms_recover_known_expansions():
    assert d_alpha_beta_terms(0, 0) == [(1.0, 0, 0, 2)]
    # order (1,1): 6 t (1-t)^-4 + 2 (1-t)^-3
    assert sorted(d_alpha_beta_terms(1, 1)) == sorted([(6.0, 1, 1, 4), (2.0, 0, 0, 3)])


def test_kernel_deriv_norm_order_zero_is_kernel_norm():
    for z0 in (0.0, 0.3, 0.6 + 0.2j):
        x = abs(z0) ** 2
        assert kernel_deriv_norm(z0, 0) == pytest.approx(1.0 / (1.0 - x), rel=1e-12)


def test_kernel_deriv_norm_against_brute_series():
    z0, gamma = 0.5, 2
    x = abs(z0) ** 2
    total = sum(
        math.comb(p + gamma + 1, p) ** 2 * x**p / (p + gamma + 1) for p in range(400)
    )
    expected = math.factorial(gamma + 1) * math.sqrt(total)
    assert kernel_deriv_norm(z0, gamma) == pytest.approx(expected, rel=1e-12)


def test_kernel_deriv_norm_closed_form_against_brute_series_to_the_boundary():
    # the brute series of the squared norm, ((gamma+1)!)^2 times
    # sum_p binom(p+gamma+1, p)^2 x^p / (p+gamma+1), in 30-digit decimals
    # at the exact binary value of x = |z0|^2, summed past 1e-25 relative
    for z0 in (0.0, 0.3, 0.5 + 0.5j, 0.9, -0.99j, 0.999):
        z0 = complex(z0)
        with localcontext() as ctx:
            ctx.prec = 30
            x = Decimal(z0.real) ** 2 + Decimal(z0.imag) ** 2
            for gamma in range(8):
                term = total = Decimal(1) / (gamma + 1)
                p = 0
                while term > total.scaleb(-25):
                    term = term * ((p + gamma + 2) * (p + gamma + 1)) / (p + 1) ** 2 * x
                    total += term
                    p += 1
                expected = math.factorial(gamma + 1) * float(total.sqrt())
                assert kernel_deriv_norm(z0, gamma) == pytest.approx(expected, rel=1e-12), (z0, gamma)
