"""Machine-speed calibration: fixed kernels that rescale wall times.

The 2-vCPU VM the benchmark was written on changes speed by up to a third
within a second and drifts by a quarter over a minute, so two runs of the
same code read up to 45% apart in raw wall time. These kernels do the same
kinds of work a pass does and never touch fwlab:
- a pure-Python loop (the solver's per-iteration interpreter overhead);
- small-vector numpy calls (dispatch cost at n <= 100);
- n = 1e4 vector arithmetic (the large-n numerics).

run.py times them right before and right after each timed piece of work and
scales that piece's wall time by REFERENCE_KERNEL_S over their mean. The
result is the time the work would take at the reference speed. A slower
program takes longer next to the same kernels, so program changes still
show; only the machine's own speed is divided out.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel_s() on the reference machine: a 2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6
REFERENCE_KERNEL_S = 0.0065


def _python_loop() -> None:
    acc = 0
    for i in range(30_000):
        acc += i * i


def _small_numpy() -> None:
    x = np.zeros(100)
    v = np.linspace(0.0, 1.0, 100)
    for _ in range(700):
        g = x - v
        j = int(np.argmin(g))
        x = x * 0.99
        x[j] += 0.01
        float(g @ x)


def _large_numpy() -> None:
    a = np.arange(10_000, dtype=float)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)


KERNELS = (_python_loop, _small_numpy, _large_numpy)


def kernel_s() -> float:
    """Wall time of one run of every kernel, about 6.5 ms at the reference speed."""
    t0 = time.perf_counter()
    for kernel in KERNELS:
        kernel()
    return time.perf_counter() - t0


def kernel_median_s(repeats: int) -> float:
    return statistics.median(kernel_s() for _ in range(repeats))


def at_reference(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """wall_s rescaled to the reference speed by the kernels timed around it."""
    return wall_s * REFERENCE_KERNEL_S / (0.5 * (kernel_before_s + kernel_after_s))
