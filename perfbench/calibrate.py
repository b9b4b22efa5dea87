"""Host-speed calibration of the benchmark's timings.

The benchmark runs on small shared machines whose speed drifts over
minutes.  On a 2-vCPU virtual machine the same pure-Python operation took 0.8 s to
1.4 s, and the per-run medians of ten runs spread by 21-27%.  Every timed
operation is therefore paired with one run of a fixed kernel, timed just
before it, and reported as

    op seconds * REFERENCE_S / kernel seconds,

that is, in seconds at the speed of the machine on which REFERENCE_S was
measured.  The kernel is the benchmark's own code, so a change to todakdv
moves the operation time and leaves the kernel alone.  It mixes the kinds of
work the workloads do: Fraction arithmetic and dict traffic (symbolic,
exact invariants), dense LU (Crank-Nicolson) and numpy vector arithmetic
(RK4, spectra).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor

# Median kernel time on the reference machine: 2-vCPU Xeon virtual machine,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread.
REFERENCE_S = 0.0072

_MATRIX = 192.0 * np.eye(192) + np.sin(np.arange(192 * 192, dtype=float)).reshape(192, 192)
_VECTOR = np.linspace(0.0, 1.0, 20000)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k * k + 1)
    table: dict[tuple[int, int], int] = {}
    for k in range(9000):
        key = (k % 97, k % 89)
        table[key] = table.get(key, 0) + k
    for _ in range(5):
        lu_factor(_MATRIX)
    x = _VECTOR
    for _ in range(20):
        x = np.cos(x) * 0.5 + 0.25 * x
    return perf_counter() - t0


def at_reference_speed(seconds: float, kernel: float) -> float:
    """Rescale a time measured next to a kernel run of ``kernel`` seconds."""
    return seconds * REFERENCE_S / kernel
