"""The calibration loop: a fixed piece of work that calls no algflow code.

The reference host's speed drifts by a factor of two and more, in spells
from a tenth of a second to minutes, while the process keeps its CPU
(process time equals wall time).  A run taken in a slow spell reads slow
whatever the program does.  The calibration loop is timed in short blocks
between the workload's operations; its rate beside an operation says how
fast the host was running then, and the operation's time is expressed in
reference seconds: its wall time times that rate over REFERENCE_PER_S.

The loop is made of the same kind of work as most of algflow: short Python
calls on tiny numpy arrays.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# Calibration blocks per second that a reference second stands for: a round
# figure near the reference host's usual rate (100,000 loop iterations/s).
REFERENCE_PER_S = 500.0
# Calibration time kept beside the timed operations, as a share of their time.
SHARE = 0.08
# Half-width of the window of blocks whose rate stands for an operation's.
WINDOW_NS = 500_000_000
# Seconds of blocks run just before a worker's launch and just after its
# set-up, to adjust the set-up time.
SETUP_CALIB_S = 0.03


def block() -> int:
    """Run one calibration block of 200 iterations; return its wall time in ns."""
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(200):
        c, s = math.cos(i * 1e-2), math.sin(i * 1e-2)
        a = np.array([[c, s], [-s, c]])
        t = np.empty((2, 2, 2))
        t[:, 0, :] = a
        t[:, 1, :] = a.T
        acc += float(np.max(np.abs(t - t.transpose(1, 0, 2))))
    if not math.isfinite(acc):
        raise RuntimeError("calibration block produced a non-finite value")
    return time.perf_counter_ns() - start


def rate_for(seconds: float) -> float:
    """Blocks per second over blocks run for about `seconds`."""
    total, count = 0, 0
    while count == 0 or total < seconds * 1e9:
        total += block()
        count += 1
    return count / (total / 1e9)


class Meter:
    """The calibration blocks of one run, by time, and the rate around a moment."""

    def __init__(self) -> None:
        self.mids: list[int] = []
        self._cum_ns: list[int] = [0]

    def measure(self) -> None:
        start = time.perf_counter_ns()
        took = block()
        self.mids.append(start + took // 2)
        self._cum_ns.append(self._cum_ns[-1] + took)

    def keep_up(self, work_ns: int) -> None:
        """Run blocks until calibration time is SHARE of `work_ns`."""
        while self._cum_ns[-1] < SHARE * work_ns:
            self.measure()

    @property
    def count(self) -> int:
        return len(self.mids)

    @property
    def seconds(self) -> float:
        return self._cum_ns[-1] / 1e9

    @property
    def rate(self) -> float:
        """Blocks per second over the whole run."""
        return self.count / self.seconds if self.count else 0.0

    def rate_around(self, start_ns: int, end_ns: int) -> float:
        """Blocks per second of the blocks within WINDOW_NS of [start, end].

        At least the nearest block on each side is used, so a long operation
        is always measured against the blocks that bracket it.
        """
        lo = bisect.bisect_left(self.mids, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.mids, end_ns + WINDOW_NS)
        lo = min(lo, max(0, bisect.bisect_left(self.mids, start_ns) - 1))
        hi = max(hi, min(self.count, bisect.bisect_right(self.mids, end_ns) + 1))
        return (hi - lo) / ((self._cum_ns[hi] - self._cum_ns[lo]) / 1e9)

    def reference_ns(self, start_ns: int, took_ns: int) -> float:
        """An operation's wall time in reference nanoseconds."""
        return took_ns * self.rate_around(start_ns, start_ns + took_ns) / REFERENCE_PER_S
