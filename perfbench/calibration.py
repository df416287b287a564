"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed available to one process drifts by half
or more, in phases that can outlast a whole run, because other tenants load
the same cores and caches; CPU time drifts with wall time, so it does not
help.  The benchmark therefore runs a fixed piece of work -- dict and tuple
churn in the interpreter plus random gathers from a 2 MiB array -- between
the timed pieces of a run, about once per second of timed work, and rescales
every time in the run by the median of those readings:

    rescaled = measured * REFERENCE_S / median(calibration times of the run)

The median over the whole run follows the slow phases that outlast a run
without adding the jitter of a single short reading to each op.  Both sides
of a comparison are rescaled the same way, so a change to the program still
moves the figures one for one.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

# Median calibration time measured on the reference machine (2 vCPUs, Intel
# Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
REFERENCE_S = 0.055


@functools.cache
def _arrays() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    return rng.integers(0, 1 << 40, size=1 << 18), rng.integers(0, 1 << 18, size=1 << 18, dtype=np.int32)


def calibrate() -> float:
    """Seconds taken by the fixed calibration work, now."""
    table, index = _arrays()
    start = time.perf_counter()
    total = 0
    for _ in range(24):
        seen = {}
        for i in range(5_000):
            seen[(i, i % 7)] = str(i)
        total += sum(len(seen[(i, i % 7)]) for i in range(5_000))
    for _ in range(16):
        total += int(table[index].sum() & 1)
    return time.perf_counter() - start


class Speed:
    """Calibration readings taken through a run, and the rescaling they give.

    `sample(seconds)` follows a timed piece that took `seconds` and takes about
    one reading per second of it (at least one), so the readings sample the
    run's machine speed evenly in time.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def sample(self, seconds: float = 0.0) -> None:
        for _ in range(max(1, math.ceil(seconds))):
            self.readings.append(calibrate())

    def factor(self) -> float:
        """Multiply a measured time by this to rescale it."""
        return REFERENCE_S / statistics.median(self.readings)
