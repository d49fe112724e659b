"""The host's speed, sampled while a pass runs, to scale its times.

On a shared host the same pass takes anywhere from 11 to 17 s as the
neighbours' load comes and goes; a fixed pure-Python loop swings by as much
within seconds, and in CPU time as much as in wall time.  A run cannot
outlast the swings, so the benchmark measures them instead: every
SAMPLE_EVERY seconds a timer signal interrupts the program and times a
fixed pure-Python loop (``reference``) in the same thread.  Each stretch of
a timed operation is then scaled by REFERENCE_S over the median loop time
of the samples within WINDOW seconds of it: the operation reads as on a host
where the loop takes REFERENCE_S.  The loop is benchmark code, so a change
to the program cannot move it; the time the samples take is left out of
every timed operation.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY = 0.05  # seconds between samples
WINDOW = 0.25  # seconds either side of a stretch whose samples scale it
REFERENCE_LOOP = 3000  # iterations of the reference loop
REFERENCE_S = 250e-6  # the loop's time on the nominal host


def reference() -> float:
    """Time one run of the reference loop, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def bracket_scale(samples: int = 20) -> float:
    """Scale from reference loops run back to back, for work too short to
    sample during (one set-up probe)."""
    return REFERENCE_S / statistics.mean(reference() for _ in range(samples))


class Sampler:
    """Samples the reference loop on a timer while it is entered.

    ``clock()`` is ``time.perf_counter`` less the time spent in samples;
    ``nominal(t0, t1)`` is the clock interval [t0, t1] scaled to the
    nominal host."""

    def __init__(self):
        self.times: list[float] = []  # clock() at each sample
        self.took: list[float] = []  # the sample's loop time
        self.spent = 0.0

    def _sample(self, *_):
        at = self.clock()
        took = reference()
        self.times.append(at)
        self.took.append(took)
        self.spent += took

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale_at(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median sample within WINDOW of [t0, t1],
        or of the nearest sample if none is that close."""
        i = bisect.bisect_left(self.times, t0 - WINDOW)
        j = bisect.bisect_right(self.times, t1 + WINDOW)
        if i == j:
            i, j = max(0, i - 1), min(len(self.times), i + 1)
        return REFERENCE_S / statistics.median(self.took[i:j])

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds the clock interval [t0, t1] takes on the nominal host:
        the interval is cut at the samples inside it and each piece is
        scaled by the speed around it."""
        i = bisect.bisect_right(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        cuts = [t0, *self.times[i:j], t1]
        return sum((b - a) * self.scale_at(a, b)
                   for a, b in zip(cuts, cuts[1:]))

    def mean_scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.took)
