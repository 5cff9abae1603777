"""Durations at a reference CPU speed.

The benchmark runs on shared hosts whose CPU speed swings by a third or
more for minutes at a time, longer than one run, so two runs of the same
code can differ by 40% in wall time.  A timer signal times a fixed
calibration burst (small-array numpy calls and Python calls, the
instruction mix of the program) every INTERVAL_S.  Over any interval, the
burst's nominal time divided by its mean measured time is how fast the CPU
ran relative to the reference, and a wall duration times that ratio is the
duration the same work takes at the reference speed.

The burst is code of its own, independent of the program, so at a given
CPU speed a change to the program moves reference-speed durations by the
same share as wall time.  Raw wall times are reported beside them.
"""

import signal
import time

import numpy as np

# Seconds one burst takes at the reference speed: its mean time over several
# minutes on the shared 2-vCPU Xeon (2.1 GHz) host the benchmark was written
# on, where it swung between about 1.6e-4 and 3.5e-4 s; reference seconds
# read close to the wall seconds of an average moment there.
BURST_NOMINAL_S = 2.8e-4
INTERVAL_S = 0.05
# A duration is converted at the speed of the samples within this window
# around it (the CPU speed also swings within a second), or at that of every
# sample of the run when the window holds fewer than MIN_SAMPLES.
MIN_WINDOW_S = 1.0
MIN_SAMPLES = 5


def _add_one(x, y):
    return x * y + 1


def burst():
    a = np.arange(1.0, 41.0)
    for _ in range(30):
        b = a / (a + 1.0)
        a = np.where(b > 0.5, a, a + 1.0)
        a = np.maximum(a, b.sum())
    d = {"k": 3}
    s = 0
    for i in range(150):
        s = _add_one(s, d["k"]) % 1000003
        if i % 10 == 0:
            s += int(a.argmax())
    return s


class SpeedProbe:
    """Context manager: samples the CPU speed while open.

    A SIGALRM every INTERVAL_S runs the sample in the main thread, between
    two bytecodes of whatever the program is doing, so it measures the CPU
    the program runs on, and it starts no thread or process.  A sample runs
    the burst twice and times the second run, so the time does not depend
    on what the program left in the caches; the two take about 1% of the
    run they measure, parent and child commits alike.
    """

    def __init__(self):
        self.samples = []  # (start, duration) of each burst, perf_counter seconds
        self._previous = None
        self._indexed = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        burst()  # untimed: brings the burst's code and data into cache
        t0 = time.perf_counter()
        burst()
        self.samples.append((t0, time.perf_counter() - t0))

    def speed(self, t0, t1):
        """Reference seconds per wall second over [t0, t1], widened to at
        least MIN_WINDOW_S around its middle so it holds enough samples."""
        if len(self.samples) != self._indexed:
            self._starts = np.array([s for s, _ in self.samples])
            self._cum = np.concatenate(([0.0], np.cumsum([d for _, d in self.samples])))
            self._indexed = len(self.samples)
        if not self._indexed:
            return 1.0  # nothing sampled (a run far shorter than INTERVAL_S)
        half = max(t1 - t0, MIN_WINDOW_S) / 2
        mid = (t0 + t1) / 2
        i = np.searchsorted(self._starts, mid - half, side="left")
        j = np.searchsorted(self._starts, mid + half, side="right")
        if j - i < MIN_SAMPLES:
            i, j = 0, self._indexed
        return BURST_NOMINAL_S * (j - i) / (self._cum[j] - self._cum[i])
