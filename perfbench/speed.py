"""How fast this machine runs pure-Python rational arithmetic right now.

On a shared 2-vCPU virtual machine, CPU speed drifts by 10-35% from one
minute to the next (one round of ``implement`` operations took 14.0 to 18.1
ops/s over eight runs of one seed), which swamps the differences between
program versions the benchmark is for. ``kernel`` times a fixed ``Fraction``
workload, the kind of arithmetic mbce spends its time on; the benchmark runs
it between operations, and ``Speed.scale`` rescales measured seconds to
seconds at the speed where one kernel takes ``REFERENCE_KERNEL_S``. The
kernel is the benchmark's own code, so a change to mbce cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Kernel time on the machine the reference figures were measured on.
REFERENCE_KERNEL_S = 0.008

# The kernel is the simplex's row update on small rationals, repeated.
_ROW = tuple(Fraction(k % 9 - 4, k % 5 + 1) for k in range(48))
_OTHER = _ROW[::-1]
KERNEL_PASSES = 40


def kernel() -> float:
    """Seconds one pass of the fixed rational workload takes now.

    The collector is off meanwhile: the workload frees everything it makes,
    and a collection would time the caller's heap instead of the CPU."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(KERNEL_PASSES):
            factor = _ROW[i % len(_ROW)]
            [x - factor * y for x, y in zip(_ROW, _OTHER)]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Kernel readings taken between operations. Each stretch of operation
    time between two readings runs at the mean of the two, and the run's
    speed is the time-weighted mean over all stretches: a reading next to a
    2 s operation counts a hundred times more than one next to 20 ms."""

    def __init__(self):
        self.readings: list[float] = []
        self._last: float | None = None
        self._covered = 0.0
        self._weighted = 0.0

    def sample(self, covered: float) -> None:
        """Take a reading; ``covered`` seconds of operations ran since the
        previous one."""
        reading = kernel()
        if self._last is not None and covered > 0:
            self._covered += covered
            self._weighted += covered * (self._last + reading) / 2
        self._last = reading
        self.readings.append(reading)

    @property
    def mean_kernel_s(self) -> float:
        return self._weighted / self._covered

    def scale(self, seconds: float) -> float:
        """Measured seconds expressed at the reference kernel speed."""
        return seconds * REFERENCE_KERNEL_S / self.mean_kernel_s
