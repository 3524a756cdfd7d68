"""A speed probe that samples the interpreter's speed inside each operation.

Machine speed on a shared host moves by tens of percent within seconds, so
a calibration taken between operations misses what happened during them.
Instead a timer signal (SIGALRM every PERIOD seconds of wall time) runs a
fixed pure-Python ``tick`` in the worker's main thread, between the
program's own bytecodes.  Each tick's duration samples the speed of the
interpreter at that moment, on the CPU that runs the operation.

For an operation timed over [t0, t1], ``Probe.measure`` gives

- the seconds the ticks took inside it, which the worker subtracts;
- the seconds the program spent in native calls long enough to hold the
  signal off for more than NATIVE_GAP (numpy on arrays far larger than any
  cache);
- the speed factor f = TICK_REF / (median tick near the operation).

``scale`` multiplies the interpreter's share of the operation by f and the
native share by f ** NATIVE_EXPONENT: memory-bound native work follows the
tick's speed only in part.  On the 2-vCPU host of NOTES.md, over 17 runs of
the frame audit while f moved between 0.83 and 1.36, the log of its native
time moved with a slope of 0.52 against the log of 1/f.

The tick is the benchmark's own code, untouched by any change to the
program, and allocates nothing the cyclic garbage collector tracks, so it
does not move the program's collections.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_clock = time.perf_counter

PERIOD = 0.03  # seconds between ticks
TICK_REF = 1e-3  # scaled times read as on a machine where a tick takes this
WINDOW = 0.25  # ticks that start this close to an operation count for it
MIN_TICKS = 9  # fewer than this in the window: take the nearest ones
NATIVE_GAP = 0.25  # a tick held off this long: the program sat in native code
NATIVE_EXPONENT = 0.5

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}


def scale(seconds: float, native: float, factor: float) -> float:
    """Time at the reference speed of an interval with this native share."""
    return (seconds - native) * factor + native * factor ** NATIVE_EXPONENT


def tick(n: int = 5000) -> int:
    """Dict lookups and integer arithmetic, about a millisecond of them."""
    acc = 0
    table = _TABLE
    for i in range(n):
        acc = (acc * 31 + table[(acc ^ i) & 4095]) & 0xFFFFFF
    return acc


class Probe:
    """Ticks on a timer while running; ``measure`` reads them afterwards."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _handler(self, signum, frame) -> None:
        t0 = _clock()
        tick()
        self.starts.append(t0)
        self.ends.append(_clock())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> tuple[float, float, float]:
        """(tick seconds, native seconds, speed factor) over [t0, t1]."""
        starts, ends = self.starts, self.ends
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        ticks = sum(ends[i] - starts[i] for i in range(lo, hi))
        # the gaps between ticks: t0 to the first, each end to the next
        # start, the last end to t1
        marks = [t0]
        for i in range(lo, hi):
            marks += (starts[i], ends[i])
        marks.append(t1)
        gaps = (marks[j + 1] - marks[j] for j in range(0, len(marks), 2))
        native = sum(g - PERIOD for g in gaps if g > NATIVE_GAP)

        wlo = bisect.bisect_left(starts, t0 - WINDOW)
        whi = bisect.bisect_right(starts, t1 + WINDOW)
        if whi - wlo < MIN_TICKS:
            mid = (wlo + whi) // 2
            wlo = max(0, min(mid - MIN_TICKS // 2, len(starts) - MIN_TICKS))
            whi = min(len(starts), wlo + MIN_TICKS)
        if whi <= wlo:
            raise RuntimeError("speed probe took no samples")
        med = statistics.median(ends[i] - starts[i] for i in range(wlo, whi))
        return ticks, native, TICK_REF / med
