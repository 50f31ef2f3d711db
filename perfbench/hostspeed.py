"""Host-speed calibration for the reported times.

The host shares its cores.  Each of the two CPUs flips, several times a
second, between a fast state and one about 1.7 times slower, and the share
of slow time drifts from one half-minute to the next, with no steal time
to show for it.  So every time the benchmark reports is scaled to a
reference host speed: multiplied by ``REF_S`` over the mean time of a fixed
kernel sampled in the same process, as evenly over the measured time as a
single thread allows.  The mean, not the median, because the wall time of
a job averages the two states.  The kernel never touches regcc, so the
factor follows the host and not the code under test.  The raw times and
the factor are printed beside the metrics.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.0007            # kernel time on the reference host
SAMPLE_EVERY_S = 0.05     # one kernel sample per this much measured time


def kernel() -> float:
    """Seconds for a fixed mix of tuple, dict and big-integer work, the
    operations regcc's monoid and oracle code spends its time in.  The
    collector is paused so the program's heap does not leak into it."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        mask = 0
        for k in range(1500):
            key = (k % 61, k % 53)
            table[key] = table.get(key, 0) ^ (k * k) % 1021
            mask |= 1 << (k * 7 % 1200)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Calibration:
    def __init__(self):
        self.samples = []

    def sample(self, count: int = 1) -> None:
        self.samples.extend(kernel() for _ in range(count))

    def after(self, seconds: float) -> None:
        """Samples for a stretch of measured time just ended, so that every
        part of the run weighs by its length."""
        self.sample(1 + int(seconds / SAMPLE_EVERY_S))

    def factor(self) -> float:
        """Multiplier taking this process's times to the reference host;
        samples over three times the median (a preempted kernel) are
        dropped."""
        cut = 3 * statistics.median(self.samples)
        return REF_S / statistics.fmean(s for s in self.samples if s <= cut)
