"""Speed probe: a frozen piece of numeric Python timed next to every case.

On the host this benchmark was tuned on, each CPU switches between a fast
and a slow speed (about 1.7 times slower) several times a second, and the
share of slow time drifts from one minute to the next.  Timings are
therefore reported at a reference speed: raw seconds times ``REFERENCE_S``
over the probe time around them (see ``harness.end_to_end``).  The
probe imports nothing from the library, so no change
under test can move it; it mixes the scalar complex arithmetic, the
compensated sums and the small numpy calls that dominate the workloads.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

# probe time on the reference host at its fast speed (2 vCPU Xeon, CPython 3.11)
REFERENCE_S = 0.016


def probe() -> float:
    """Seconds for one fixed batch of work."""
    t0 = time.perf_counter()
    z0 = complex(0.3, 0.2)
    weights = np.full(16, 1.0 / 16.0)
    total = comp = 0.0
    batch = []
    for ring in range(200):
        r = 0.004 * ring
        for j in range(64):
            z = r * cmath.exp(2j * math.pi * j / 64)
            v = (1.0 - abs(z) ** 2) ** 2 * z.conjugate() * (1.0 - z.conjugate() * z0) ** -3
            s = total + v.real
            comp += (total - s) + v.real if abs(total) >= abs(v.real) else (v.real - s) + total
            total = s
            batch.append(v.imag)
            if len(batch) == 16:
                total += float(np.dot(weights, batch))
                batch.clear()
    return time.perf_counter() - t0
