"""Machine speed, sampled while the benchmark times its ops.

The benchmark runs on shared virtual machines whose CPU speed swings by up
to 1.7x in episodes of a second or two, and drifts over minutes; CPU time
moves as much as wall time.  A run cannot average that out, so every timing
is scaled by the speed the machine showed at the time: a fixed calibration
kernel (pure-Python series products as ``poolruin.seriesops`` does them;
nothing from ``poolruin``) measures the speed, and

    scaled time = measured time * REFERENCE_CHUNK_S / (mean seconds per chunk).

A scaled time is the time the work would take on a machine that runs one
chunk in ``REFERENCE_CHUNK_S``.  It moves with the program's own cost and
not with the machine's drift.

While a pass of ops runs, an interval timer runs one chunk every
``TICK_S`` from a signal handler, between two bytecodes of whatever the
benchmark's main thread is doing.  The speed for an op pools the ticks from
``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends; the time the
ticks inside the op took is taken off its measured time.
"""

from __future__ import annotations

import bisect
import signal
import time

# Seconds per chunk on the 2-vCPU Xeon host the benchmark was built on, at
# its usual speed; it only fixes the scale of the reported times.
REFERENCE_CHUNK_S = 1.0e-3
TICK_S = 0.05  # one chunk per tick: about 2% of the timed work
WINDOW_S = 0.5
MIN_TICKS = 5  # an op's speed pools at least this many ticks

_SERIES = [1.0 / (i + 1) for i in range(24)]
_PRODUCT = [0.0] * 24


def chunk() -> None:
    """One unit of calibration work: truncated series products written in
    place, so that it makes no objects the garbage collector tracks (a
    kernel that does swings far more than the ops it should follow)."""
    a, out = _SERIES, _PRODUCT
    for _ in range(36):
        for i in range(24):
            s = 0.0
            for j in range(i + 1):
                s += a[j] * a[i - j]
            out[i] = s


class Gauge:
    """Speed samples of the machine: timer ticks during passes."""

    def __init__(self):
        self.tick_end: list = []  # ticks: clock at the end of the chunk
        self.tick_s: list = []  # ticks: seconds the chunk took
        self.ticked_s = 0.0  # total seconds of all ticks
        for _ in range(20):  # warm the kernel's caches
            chunk()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.tick_end.append(t1)
        self.tick_s.append(t1 - t0)
        self.ticked_s += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)  # so that even the shortest pass has a tick

    def factor(self, t0: float, t1: float) -> float:
        """Factor from measured to scaled time for work done from clock
        ``t0`` to ``t1``, from the ticks around it (ticks are taken in
        clock order)."""
        ends = self.tick_end
        lo = bisect.bisect_left(ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(ends, t1 + WINDOW_S)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(ends)):
            lo, hi = max(0, lo - 1), min(len(ends), hi + 1)
        pooled = self.tick_s[lo:hi]
        return REFERENCE_CHUNK_S * len(pooled) / sum(pooled)
