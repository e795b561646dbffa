"""Speed correction: a stdlib-only calibration kernel sampled throughout a run.

The machine's speed drifts by up to a factor of two within a second.  A
timer signal interrupts the process every ``INTERVAL_S`` of wall time and
runs one short piece of the calibration kernel inside the handler,
recording when it ran and how long it took.  A measured wall time is then
scaled by ``REF_PIECE_S`` divided by the piece times sampled during it, so a
reported time reads as the time the same work takes when one piece takes
``REF_PIECE_S``.  Time spent inside the handler is subtracted first.

The kernel does the kind of work the program does -- tuple adds, dict
updates, int and Fraction arithmetic -- and never imports gkmchar, so a
change to the program cannot change the yardstick.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

# Wall time of one kernel piece on the reference machine at full speed
# (2-core Intel Xeon, Python 3.11).  Fixed: changing it rescales every
# reported time.
REF_PIECE_S = 0.000145
PIECE_REPS = 100
# The first run after an interrupt pays for caches the job has evicted, by
# 7 % to 26 % depending on the process's memory layout; a short untimed
# run first keeps that out of the measured piece.
WARM_REPS = 30
INTERVAL_S = 0.005
# fewest samples a factor is averaged over; short jobs borrow neighbours
MIN_SAMPLES = 5

_now = time.perf_counter


def kernel(reps: int = PIECE_REPS) -> Fraction:
    table = {}
    acc = (0, 0, 0)
    step = (1, -2, 3)
    q = Fraction(0)
    for i in range(reps):
        acc = tuple(x + y for x, y in zip(acc, step))
        table[acc] = table.get(acc, 0) + i * i
        if not i & 7:
            q += Fraction(i, 7)
    return q


class SpeedClock:
    """Samples the calibration kernel from a SIGALRM handler.

    Use ``start()``/``stop()`` around the measured part of a run,
    ``handler_s`` to remove handler time from a measured interval, and
    ``factor(t0, t1)`` for the correction to apply to work done between two
    raw readings of ``time.perf_counter``.
    """

    def __init__(self):
        self.stamps = array("d")           # start time of each piece
        self.rates = array("d")            # REF_PIECE_S / piece duration
        self.handler_s = 0.0               # total time spent in the handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = _now()
        kernel(WARM_REPS)
        t1 = _now()
        kernel()
        t2 = _now()
        self.stamps.append(t0)
        self.rates.append(REF_PIECE_S / (t2 - t1))
        self.handler_s += _now() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed factor over the raw interval [t0, t1].

        Pieces that started inside the interval are averaged; when there
        are fewer than MIN_SAMPLES the window widens to the nearest pieces
        on both sides.
        """
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            if lo > 0:
                lo -= 1
            if hi < len(self.stamps) and hi - lo < MIN_SAMPLES:
                hi += 1
        window = self.rates[lo:hi]
        if not window:
            raise RuntimeError("no calibration samples taken yet")
        return sum(window) / len(window)


class Timed:
    """Context manager timing one piece of work with a SpeedClock.

    After the block, ``raw`` is the wall time without handler time; the
    corrected time is ``raw * factor()``.  The factor is resolved lazily,
    because a short block needs samples taken after it ends.
    """

    __slots__ = ("clock", "t0", "t1", "h0", "raw")

    def __init__(self, clock: SpeedClock):
        self.clock = clock

    def __enter__(self):
        self.h0 = self.clock.handler_s
        self.t0 = _now()
        return self

    def __exit__(self, *exc):
        self.t1 = _now()
        self.raw = (self.t1 - self.t0) - (self.clock.handler_s - self.h0)
        return False

    def factor(self) -> float:
        return self.clock.factor(self.t0, self.t1)
