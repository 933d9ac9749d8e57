"""The host-speed yardstick: a fixed pure-Python kernel, timed.

It imports nothing beyond the standard library, so a fresh interpreter can
time it before ``import treecascade.cli`` without loading numpy first.

On a shared host the speed one process gets drifts by up to 2x within
seconds, and the operating system reports no steal time that would show it.
So the benchmark expresses times in runs of this kernel, timed as close as
possible to the work measured: :class:`Probe` times it on a timer *during*
each op.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

_CAL_CELLS = [repr((k * 7919 % 10007) / 97.0 - 51.5) for k in range(1000)]
#: One probe sample: calibrate(PROBE_ITERATIONS) takes about 1.5 ms.
PROBE_ITERATIONS = 1_000
PROBE_INTERVAL_S = 0.2


def calibrate(iterations: int) -> float:
    """Seconds a fixed pure-Python kernel takes now.

    It parses and prints floats and updates a dict keyed by vertex pairs,
    the interpreter work the ops mostly do, so a neighbour's load on the
    shared host slows it about as much as it slows an op.  The garbage
    collector is off while it runs: a collection of the op's heap that its
    allocations set off would be timed as a slow host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int], float] = {}
        for k in range(iterations):
            value = float(_CAL_CELLS[k % 1000])
            key = (k % 997, k % 389)
            table[key] = table.get(key, 0.0) + value
            repr(value)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Samples the host's speed while a block runs.

    Every ``interval_s`` a SIGALRM handler, which runs in the main thread
    between bytecodes, times ``calibrate(PROBE_ITERATIONS)``.  Ops use
    PROBE_INTERVAL_S; the 0.1 s import that ``setup_s`` times needs a
    shorter interval.  One more sample is taken right after the block, so
    even a block shorter than the interval has one.  ``in_block_s`` is the
    time the samples took inside the block, which the caller takes out of
    the block's time.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.in_block_s = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate(PROBE_ITERATIONS))

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.in_block_s = sum(self.samples)
        self.samples.append(calibrate(PROBE_ITERATIONS))

    def median_s(self) -> float:
        """The median sample: a preemption of several ms inside one 1.5 ms
        sample is not a slower host, so the mean would overstate the slowdown."""
        return statistics.median(self.samples)
