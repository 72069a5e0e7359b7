"""Machine-speed sampling, so that timings on a shared machine stay steady.

On a shared machine the same single-threaded code runs up to 1.6x slower
for seconds at a time while other tenants load the cores, and neither
medians over passes nor CPU time remove that.  So while the untraced
passes run, a timer signal runs a fixed micro-workload every INTERVAL
seconds, in this thread, between two bytecodes of whatever runs at the
time.  It does Fraction arithmetic and small numpy operations, the two
kinds of work negdep does, and calls nothing in negdep, so a change to the
program cannot change it.  Its duration says how fast this process runs
at that moment.

An operation's normalised time is its duration, less the samples taken
inside it, times REFERENCE over the mean cost of the samples taken during
it (or of the MIN_SAMPLES nearest ones, for a short operation).  It reads
as seconds on a machine where one sample takes REFERENCE seconds.
"""

import bisect
import signal
import time
from array import array
from fractions import Fraction

import numpy as np

INTERVAL = 0.05
REFERENCE = 0.0004
MIN_SAMPLES = 5

_WORDS = np.arange(32, dtype=np.uint64)
_MULT = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)


def micro_workload():
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, 3)
    a = _WORDS
    for i in range(25):
        a = a * _MULT + np.uint64(i)
        a ^= a >> _SHIFT
    return acc


class SpeedSampler:
    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        micro_workload()
        self.at.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalise(self, t0: float, dt: float) -> float:
        """Normalised seconds of an operation that started at t0 and took dt."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t0 + dt)
        own = dt - sum(self.cost[lo:hi])
        mid = t0 + dt / 2
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no speed samples were taken")
        return own * REFERENCE * (hi - lo) / sum(self.cost[lo:hi])
