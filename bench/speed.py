"""Machine-speed clock: times measured in reference-speed seconds.

On a shared host the CPU a process gets runs at full speed for some seconds
and at about half speed for others (another tenant on the same core), so
the same cold job reads 1.3 s or 2.4 s of wall time depending on when it
runs.  The clock samples that speed while a job runs: every INTERVAL_S of
wall time a signal handler times a small fixed Fraction calculation, which
takes REFERENCE_S at full speed.  A stretch of wall time is converted to
reference-speed seconds by the mean, over the samples taken during it, of
REFERENCE_S / sample time.  The calculation uses only the standard
library, so a change to the package under test does not change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Time of one calibration on a 2-core Intel Xeon VM running Python 3.11,
# taken as the fastest tenth of samples.  Only a scale factor: every
# reported time is wall time rescaled to this machine running at full speed.
REFERENCE_S = 150e-6
INTERVAL_S = 0.02
# A stretch shorter than this many samples takes the speed around its middle.
LOCAL_SAMPLES = 5

_TERMS = [Fraction(i, 7 * i + 3) for i in range(1, 40)]


def _calibration() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term * term
    return total


class SpeedClock:
    """Samples the machine's speed from start() to stop(); the other methods
    read the samples after stop()."""

    def __init__(self):
        self.samples = []    # (perf_counter at its start, duration)
        self.starts = []
        self.durations = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _calibration()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        _calibration()  # warm-up: the first run in a process is slower
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        # a handler delayed past the next tick can append out of order
        self.samples.sort()
        self.starts = [start for start, _ in self.samples]
        self.durations = [duration for _, duration in self.samples]

    def speed(self, begin: float, end: float) -> float:
        """Mean speed over [begin, end], as a share of the reference speed."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < LOCAL_SAMPLES:
            middle = bisect.bisect_left(self.starts, (begin + end) / 2)
            lo = max(0, middle - LOCAL_SAMPLES // 2)
            hi = min(len(self.starts), lo + LOCAL_SAMPLES)
            return REFERENCE_S / statistics.median(self.durations[lo:hi])
        return statistics.fmean(REFERENCE_S / d for d in self.durations[lo:hi])

    def mean_speed(self) -> float:
        """Mean speed from start() to stop()."""
        return statistics.fmean(REFERENCE_S / d for d in self.durations)

    def sampling_time(self, begin: float, end: float) -> float:
        """Wall time the samples themselves took within [begin, end]."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def seconds(self, begin: float, end: float) -> float:
        """Reference-speed seconds of the program's own work in [begin, end]."""
        work = end - begin - self.sampling_time(begin, end)
        return work * self.speed(begin, end)
