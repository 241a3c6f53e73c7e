"""High-precision references, written from the definitions with mpmath.

Nothing here calls into bergtoep: the Berezin transform comes from its
hypergeometric form and the trace from the diagonal of the truncation in
the monomial basis, summed at 30 digits.  Symbols use the case config
format of ``common``.
"""

from __future__ import annotations

import mpmath as mp

from common import measure_terms

DPS = 30


def _sum_until_small(term_at, start: int):
    """Sum term_at(n) for n >= start until terms stop mattering at DPS digits."""
    total = mp.mpc(0)
    n = start
    small = 0
    while small < 8:
        term = term_at(n)
        total += term
        small = small + 1 if abs(term) <= mp.mpf(10) ** (-DPS - 5) * max(abs(total), 1) else 0
        n += 1
    return total


def berezin(config: dict, z: complex) -> complex:
    """Berezin transform <T k_z, k_z> at z, k_z the normalized kernel."""
    with mp.workdps(DPS):
        al, be = config["alpha"], config["beta"]
        z = mp.mpc(z.real, z.imag)
        t = abs(z) ** 2
        pref = (
            (-1) ** (al + be)
            * mp.factorial(al + 1)
            * mp.factorial(be + 1)
            * mp.conj(z) ** al
            * z**be
            * (1 - t) ** 2
        )
        total = mp.mpc(0)
        for coeff, m in measure_terms(config["measure"]):
            kind = m["kind"]
            if kind == "point_mass":
                z0 = mp.mpc(m["re"], m["im"])
                inner = (1 - mp.conj(z) * z0) ** (-2 - al) * (1 - z * mp.conj(z0)) ** (-2 - be)
            elif kind == "radial_power":
                s, a = mp.mpf(m["s"]), mp.mpf(m.get("a", 0.0))
                inner = mp.beta(a + 1, s + 1) * mp.hyp3f2(al + 2, be + 2, a + 1, 1, a + s + 2, t)
            elif kind == "circle_uniform":
                y = t * mp.mpf(m["r0"]) ** 2
                inner = mp.hyp2f1(al + 2, be + 2, 1, y)
            else:  # circle radial derivative: minus d/dr of the angular average
                r0 = mp.mpf(m["r0"])
                inner = -8 * t * r0 * mp.hyp2f1(3, 3, 2, t * r0**2)
            total += mp.mpc(coeff.real, coeff.imag) * inner
        return complex(pref * total)


def trace(config: dict) -> complex:
    """Trace: the full diagonal sum of the operator in the monomial basis."""
    with mp.workdps(DPS):
        al, be = config["alpha"], config["beta"]
        sign = (-1) ** (al + be)
        total = mp.mpc(0)
        for coeff, m in measure_terms(config["measure"]):
            kind = m["kind"]
            if kind == "point_mass":
                z0 = mp.mpc(m["re"], m["im"])
                j0 = max(al, be)
                part = sign * _sum_until_small(
                    lambda n: (n + 1) * mp.ff(n, al) * mp.ff(n, be) * z0 ** (n - al) * mp.conj(z0) ** (n - be),
                    j0,
                )
            elif al != be:
                part = 0  # rotation invariant: the single band misses the diagonal
            elif kind == "circle_uniform":
                y = mp.mpf(m["r0"]) ** 2
                part = _sum_until_small(lambda n: (n + 1) * mp.ff(n, al) ** 2 * y ** (n - al), al)
            elif kind == "circle_radial_derivative":
                r0 = mp.mpf(m["r0"])
                part = -_sum_until_small(lambda n: (n + 1) * 2 * n * r0 ** (2 * n - 1), 1)
            else:  # radial power: sum_p (p+al+1) ((p+al)!/p!)^2 B(p+a+1, s+1) in closed form
                s, a = mp.mpf(m["s"]), mp.mpf(m.get("a", 0.0))
                part = (
                    (al + 1)
                    * mp.factorial(al) ** 2
                    * mp.beta(a + 1, s + 1)
                    * mp.hyp3f2(al + 2, al + 1, a + 1, 1, a + s + 2, 1)
                )
            total += mp.mpc(coeff.real, coeff.imag) * part
        return complex(total)


def beta(x: float, y: float) -> float:
    with mp.workdps(DPS):
        return float(mp.beta(x, y))
