"""
Wall time rescaled to a fixed machine speed.

On a shared machine the speed of one core drifts by 20% and more over
seconds and minutes, which swamps the differences a benchmark has to
resolve.  `SpeedClock` times a block of work and, every `interval`
seconds while it runs (and once before and after), times a fixed
reference computation from a SIGALRM handler.  `seconds` is the block's
wall time without the handler's time, multiplied by `REFERENCE_S` over the
mean reference time (`scale`), i.e. the seconds the block would take at
the speed where the reference takes `REFERENCE_S`.  `raw` keeps the plain wall time.

The reference is Fraction arithmetic on small operands, the same kind of
work as the engine's `Rat` code, and it never calls into wplab.  It runs
with the cyclic garbage collector off, so a collection of the engine's
heap is never charged to the reference.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# About the reference time on the 2-core x86-64 VM (Python 3.11) that
# recorded the baseline; any fixed figure would do.
REFERENCE_S = 0.0025
INTERVAL_S = 0.05
_OPERANDS = [Fraction(i * 7919 % 1000 + 1, i % 97 + 2) for i in range(500)]


def _reference() -> Fraction:
    total = Fraction(0)
    for v in _OPERANDS:
        total += v * v
    return total


class SpeedClock:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.in_block = 0.0
        self.raw = 0.0
        self.scale = 1.0
        self.seconds = 0.0

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _reference()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        self.in_block += self._sample()

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.raw = t1 - self._t0 - self.in_block
        self.scale = REFERENCE_S / statistics.fmean(self.samples)
        self.seconds = self.raw * self.scale
