"""Machine-speed calibration: a fixed kernel timed between items.

On a shared machine the speed of a vCPU changes by a third within seconds
(most likely load on the host's sibling hyperthreads). The benchmark times
a fixed kernel, which calls no relaycap code, before the first item and
after every item, and scales each item's time by the kernel's reference
time over the mean of the two kernel times around it: a time is reported as
it would read on a machine where the kernel takes its reference time. A
change to relaycap cannot move the kernel, so the scaled times compare
commits; the unscaled ones are kept in the details file.

Interpreted code slows more than numpy over large arrays when the machine
slows. Most workloads run interpreted code and small numpy calls, and their
kernel is made of those; ``limit_checks`` spends most of its time in numpy
over arrays of tens of thousands of elements, and its kernel adds such a
part (README.md gives the trials behind this choice).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ARRAY_WORKLOADS = ("limit_checks",)
# The kernels' median times on the machine the baseline was taken on; they
# fix the scale of the reported times.
REFERENCE_S = 2.5e-3
ARRAY_REFERENCE_S = 4e-3
REPEATS = 3

_ANGLES = np.linspace(0.0, 1.0, 2048)
_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=4096) + 1j * _rng.normal(size=4096)
_OFFSETS = _rng.normal(size=12) + 1j * _rng.normal(size=12)


def _interpreted() -> float:
    """Interpreter arithmetic, then small numpy calls (no BLAS), about equal in time."""
    x = 0.0
    for i in range(4000):
        x += (i * 0.5) % 7.0
    for _ in range(25):
        x += float(np.abs(np.exp(1j * _ANGLES)).sum())
    return x


def _arrays() -> float:
    """A log-sum-exp over a 4096 x 12 complex grid (no BLAS)."""
    expo = -(np.abs(_POINTS[:, None] + _OFFSETS[None, :]) ** 2)
    peak = expo.max(axis=1)
    return float((peak + np.log(np.exp(expo - peak[:, None]).sum(axis=1))).sum())


class Calibration:
    """The kernel of one workload, and the scaling it gives."""

    def __init__(self, workload: str):
        self.arrays = workload in ARRAY_WORKLOADS
        self.reference_s = ARRAY_REFERENCE_S if self.arrays else REFERENCE_S

    def kernel_s(self) -> float:
        """Median of a few timings of the kernel, in seconds."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _interpreted()
            if self.arrays:
                _arrays()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, before_s: float, after_s: float) -> float:
        """``seconds`` measured between kernel times ``before_s`` and
        ``after_s``, scaled to the reference speed."""
        return seconds * self.reference_s / (0.5 * (before_s + after_s))
