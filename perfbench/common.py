"""Shared pieces of the benchmark: cases, verdicts, symbol building.

A case is plain data (a family name and JSON-able parameters), so the same
case can be rebuilt in a child process, passed to the CLI as JSON, and
recorded next to its result.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

# Relative deviations and estimates are floored here before taking log10.
FLOOR = 1e-17
# Slack for "the value is right": beyond its own reported bar, a value may
# be off by this much relative to max(|ref|, 1) before the case fails.
VALUE_TOL = 1e-9
# Slack for "the bar is honest": rounding only.
ROUND_TOL = 16 * 2.220446049250313e-16


@dataclass(frozen=True)
class Case:
    id: str
    family: str
    params: dict


@dataclass
class Verdict:
    """Outcome of checking one case's output against its reference.

    ``value_ok`` fails the case outright (a wrong number, a wrong exit
    code, unparseable output).  ``bar_ok`` records whether every reported
    error bar covers the true error; a violation counts in ``failed_frac``.
    """

    value_ok: bool = True
    bar_ok: bool = True
    err_ref: float = FLOOR
    estimates: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def compare(self, label: str, value, ref, bar: float | None, headline: bool = False):
        """Check one reported value (with its reported bar, if any)."""
        scale = max(abs(ref), 1.0)
        dev = abs(complex(value) - complex(ref))
        if headline:
            self.err_ref = max(self.err_ref, dev / scale)
        allowed = 0.0 if bar is None else bar
        if not dev <= allowed + VALUE_TOL * scale:
            self.value_ok = False
            self.notes.append(f"{label}: |value - ref| = {dev:.3e} exceeds {allowed:.3e} + slack")
        elif bar is not None and not dev <= bar + ROUND_TOL * scale:
            self.bar_ok = False
            self.notes.append(f"{label}: |value - ref| = {dev:.3e} above reported bar {bar:.3e}")

    def estimate(self, est: float, value) -> None:
        """Record a reported error estimate, relative to max(|value|, 1)."""
        self.estimates.append(est / max(abs(complex(value)), 1.0))

    def require(self, ok: bool, note: str) -> None:
        if not ok:
            self.value_ok = False
            self.notes.append(note)


def rng_for(seed: int, family: str) -> random.Random:
    """Per-family stream, so adding a family leaves the others' draws alone."""
    return random.Random(f"{seed}/{family}")


def polar(rng: random.Random, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def turned(rng: random.Random, z: complex) -> complex:
    """z turned by a seeded multiple of a quarter turn, maybe mirrored.

    Both maps are exact in floating point and leave every singular value,
    trace and sweep count unchanged, so each variant costs the same work:
    used where the cost of a case would otherwise jump with its parameter
    (the number of Jacobi sweeps, or of angular node doublings).
    """
    k = rng.randrange(8)
    w = z * 1j ** (k % 4)
    return w.conjugate() if k >= 4 else w


# ----------------------------------------------------------- symbol configs
# The CLI's JSON schema doubles as the case parameter format.

def radial(s: float, a: float = 0.0) -> dict:
    return {"kind": "radial_power", "s": s, "a": a}


def point(z0: complex) -> dict:
    return {"kind": "point_mass", "re": z0.real, "im": z0.imag}


def circle(r0: float) -> dict:
    return {"kind": "circle_uniform", "r0": r0}


def circle_derivative(r0: float) -> dict:
    return {"kind": "circle_radial_derivative", "r0": r0}


def combination(*terms: tuple[complex, dict]) -> dict:
    return {
        "kind": "combination",
        "terms": [
            {"coeff_re": complex(c).real, "coeff_im": complex(c).imag, "measure": m}
            for c, m in terms
        ],
    }


def symbol_config(alpha: int, beta: int, measure: dict) -> dict:
    return {"alpha": alpha, "beta": beta, "measure": measure}


def measure_terms(measure: dict) -> list[tuple[complex, dict]]:
    """Flatten a measure config into (coefficient, atom) pairs."""
    if measure["kind"] == "combination":
        return [
            (complex(t["coeff_re"], t["coeff_im"]), t["measure"]) for t in measure["terms"]
        ]
    return [(1.0 + 0.0j, measure)]


def build_symbol(config: dict):
    """SymbolSpec for a symbol config, built from the library's classes."""
    from bergtoep import (
        CircleRadialDerivative,
        CircleUniform,
        Combination,
        PointMass,
        RadialPower,
        SymbolSpec,
    )

    def atom(m: dict):
        kind = m["kind"]
        if kind == "radial_power":
            return RadialPower(s=m["s"], a=m.get("a", 0.0))
        if kind == "point_mass":
            return PointMass(complex(m["re"], m["im"]))
        if kind == "circle_uniform":
            return CircleUniform(m["r0"])
        if kind == "circle_radial_derivative":
            return CircleRadialDerivative(m["r0"])
        raise ValueError(f"unknown measure kind {kind!r}")

    measure = config["measure"]
    if measure["kind"] == "combination":
        base = Combination(tuple((c, atom(m)) for c, m in measure_terms(measure)))
    else:
        base = atom(measure)
    return SymbolSpec(config["alpha"], config["beta"], base)


def digest_of(*parts) -> str:
    """Stable digest of floats, complexes, arrays and bytes, bit for bit."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif hasattr(part, "tobytes"):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()
