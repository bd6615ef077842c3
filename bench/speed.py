"""Scaling timings to a reference machine speed.

On a shared virtual machine the CPU's effective speed drifts: on the
2-vCPU machine this benchmark was built on, the same pure-Python work took
up to 1.7 times as long from one minute to the next, in phases lasting
about two seconds, and the other vCPU's speed does not track this one's.
Raw wall times of identical cli-small runs spread by 12-25%.

The benchmark therefore times a fixed object-churn loop (dicts, tuples,
strings, lists and a sort, the mix the program itself spends its time on)
on the same thread while it measures: a SIGALRM handler runs the loop
(about 10 ms) every INTERVAL_S, also in the middle of an operation, and
the handler's time is subtracted from the operation it interrupted. Each
operation's time is then scaled by NOMINAL_S over the median of the
samples taken within WINDOW_S of it: a scaled time is what the operation
would have taken on a machine that runs the loop in exactly NOMINAL_S,
about its median time on the machine above.

Sampling inside operations matters for the federations, whose passes
last several speed phases: loops timed only between passes widened their
spread. The loop's table outgrows the CPU's caches on purpose: a 0.7 ms
version that fit in them tracked the program's speed less closely. The
loop runs with the garbage collector off and touches none of the
program's objects, so nothing the program does changes its duration.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

NOMINAL_S = 0.010
INTERVAL_S = 0.2
WINDOW_S = 0.5


def reference_seconds() -> float:
    """Duration of one run of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(8500):
            table[(f"k{i % 97}", i)] = [i, str(i)]
        sorted(table, key=lambda key: (key[1] % 1013, key[0]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst() -> float:
    """Median of five loops, for a process that samples only once."""
    return statistics.median(reference_seconds() for _ in range(5))


class Sampler:
    """Samples the loop from a timer signal while measurements run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # handler time, to subtract from what it interrupted

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    @contextmanager
    def running(self):
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for something measured from start to end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.samples[lo:hi] or self.samples)
