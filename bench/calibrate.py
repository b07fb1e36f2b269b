"""Calibration: how fast the machine runs right now.

On a shared 2-core machine the same code runs up to ~20% faster or slower
from one second or minute to the next, and CPU time tracks wall time, so
the drift is the machine's, not the program's.  The benchmark therefore
times a fixed snippet of work next to every measurement and scales each
measured time by ``NOMINAL_S / mean snippet time``: a figure reads as it
would on a machine that runs the snippet in exactly ``NOMINAL_S``.  The
snippet never calls the program, so no change to the program moves it.

Inside a measured process a ``Sampler`` runs the snippet from a timer
signal every ``PERIOD_S`` seconds; the time spent in the snippet is taken
out of the measured time again.  The snippet mixes interpreted Python with
elementwise numpy on a cache-sized array, the two kinds of work the
workloads do, and allocates nothing that stays resident.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.002
PERIOD_S = 0.05

_SMALL = np.arange(1 << 13, dtype=np.float64) * 1e-3


def calibration_seconds() -> float:
    """Time one pass of the fixed snippet."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(5_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i % 97] = acc
    for _ in range(8):
        np.cumsum(np.sin(_SMALL))
    return time.perf_counter() - start


def scale(seconds: float, samples: list[float]) -> float:
    """A time measured alongside the given snippet samples, at nominal speed."""
    return seconds * NOMINAL_S / (sum(samples) / len(samples))


class Sampler:
    """Runs the snippet every PERIOD_S seconds from a SIGALRM handler.

    ``samples`` holds each snippet time and ``busy`` their sum, which a
    caller subtracts from the wall time it measured around them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_seconds())
        self.busy += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """A point to measure from: (samples so far, busy time so far)."""
        return len(self.samples), self.busy
