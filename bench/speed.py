"""Reference-speed timing: measure the machine while the work runs."""

from __future__ import annotations

import signal
import statistics
import time
from typing import List


class SpeedSampler:
    """Measures how fast this machine is *while* a repetition runs.

    The sandbox this benchmark is gated on changes speed by 20-60% for
    tens of seconds at a time (shared cores; CPU time and wall time move
    together), which no median over a run's repetitions removes.  So a
    ``SIGALRM`` timer interrupts the repetition ``RATE_HZ`` times a
    second and the handler times a fixed pure-Python loop (~0.2 ms, about
    1% of the repetition).  ``factor`` is the median loop time over
    ``REFERENCE_S``: 1.0 on a machine that runs the loop in 0.2 ms, 1.3
    on one that is 30% slower right now.  Dividing a repetition's wall
    time by its factor gives wall time *at reference speed*, which is
    what the timing metrics report (the raw times are kept beside them).

    The timer is not inherited by pool or shard workers; for parallel
    workloads the factor is the speed of the core their parent is on.
    """

    RATE_HZ = 50
    LOOP = 8000
    REFERENCE_S = 0.0002
    #: a block shorter than this many timer periods is sampled directly
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, _signum: object = None, _frame: object = None) -> None:
        started = time.perf_counter()
        total = 0
        for index in range(self.LOOP):
            total += index & 3
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        period = 1.0 / self.RATE_HZ
        self._previous_timer = signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *_exc: object) -> None:
        # Stop the timer *before* handing the handler back: the outermost
        # sampler's previous handler is SIG_DFL, and a tick that lands
        # between the two calls would kill the process ("Alarm clock").
        # Then re-arm whatever ran before, so samplers nest (probe in a suite).
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        remaining, interval = self._previous_timer
        if interval > 0.0:
            signal.setitimer(signal.ITIMER_REAL, remaining or interval, interval)
        while len(self.samples) < self.MIN_SAMPLES:
            self._tick()

    @property
    def factor(self) -> float:
        """Slow-down against the reference machine during the last block."""
        return statistics.median(self.samples) / self.REFERENCE_S

    @classmethod
    def spot_factor(cls, ticks: int = 15) -> float:
        """The factor right now, from ``ticks`` loops run back to back."""
        sampler = cls()
        for _ in range(ticks):
            sampler._tick()
        return sampler.factor


def timed(call) -> tuple:
    """``(result, raw wall seconds, speed factor)`` of one call."""
    sampler = SpeedSampler()
    with sampler:
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
    return result, wall, sampler.factor
