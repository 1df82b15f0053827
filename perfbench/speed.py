"""Converting measured times into times at a reference machine speed.

On a shared machine the speed drifts by tens of percent within seconds,
and every op slows by the same factor.  So each
measured time is scaled by how long a fixed calibration kernel took around
it: a time at reference speed is measured seconds × REFERENCE_KERNEL_S /
kernel seconds.  The kernel is pure Python of the same kind as the
engine's inner loop (dict lookups, deque traffic, tuple snapshots) and
never calls into fr1tass, so a change to the package moves the scaled
times exactly as much as the measured ones.
"""

from __future__ import annotations

import bisect
import time
from collections import deque

REFERENCE_KERNEL_S = 0.004  # the kernel's time on an unloaded 2-CPU box
CALIBRATE_EVERY_S = 0.05


def kernel() -> int:
    rules = {}
    for i in range(8):
        for a in "abc":
            rules["q%d" % i, a] = ("q%d" % ((i * 3 + ord(a)) % 8),
                                   "abc"[(i + ord(a)) % 3])
    tape = deque("abc" * 100)
    state = "q0"
    starts = set()
    for _ in range(60):
        starts.add(tuple(tape))
        for _ in range(300):
            state, out = rules[state, tape.popleft()]
            tape.append(out)
    return len(starts)


class SpeedClock:
    """Times the kernel between ops and scales measured times by it."""

    def __init__(self):
        self.marks: list = []  # midpoints of the kernel runs
        self.kernels: list = []  # their durations

    def calibrate(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.marks.append((start + end) / 2)
        self.kernels.append(end - start)

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.marks[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start: float) -> float:
        """Factor for a time measured from `start`: the mean of the kernel
        runs just before and just after it."""
        i = bisect.bisect(self.marks, start)
        around = self.kernels[max(i - 1, 0):i + 1]
        return REFERENCE_KERNEL_S * len(around) / sum(around)

    def median_kernel(self) -> float:
        ordered = sorted(self.kernels)
        return ordered[len(ordered) // 2]
