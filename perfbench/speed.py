"""Machine-speed probe: report times at a fixed reference speed.

The sandboxes this benchmark runs in change speed by up to 1.8x within
seconds (shared hosts), which is larger than the changes the benchmark must
resolve.  A short fixed unit of mpmath arithmetic (the pure-Python backend
every route runs on) slows down with the workload: over runs of one fixed
oracle job whose time ranged over 1.8x, job time / unit time stayed within
3 %; for a Bose-quadrature job within about 10 %.

So while a pass runs, SIGALRM runs one unit every INTERVAL_S seconds and
records how long it took.  A stretch of time then counts as its length
times REF_UNIT_S / (median duration of the nearest units): seconds on a
machine where one unit takes REF_UNIT_S.  The units' own time counts as 0.
The unit runs in a private mpmath context and calls no function that
caches constants, so it shares no state with the program it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from mpmath import MPContext

#: Duration of one unit at the reference speed: the median speed of the
#: 2-core sandbox the benchmark was tuned on.
REF_UNIT_S = 0.0025
INTERVAL_S = 0.1
#: Units per smoothing window; one unit alone varies by about 15 %.
WINDOW = 5

#: A private context: the unit shares no precision setting with the
#: program it interrupts, and uses no function that caches constants.
_CTX = MPContext()
_CTX.prec = 170


def unit_seconds() -> float:
    """Run one calibration unit; returns its duration."""
    t0 = time.perf_counter()
    one = _CTX.mpf(1)
    x = _CTX.mpf(3)
    for k in range(1, 120):
        y = (x + k) / (k + one)
        x = _CTX.sqrt(y * y) + one
        if x < y:
            x = -x
    return time.perf_counter() - t0


def spot_factor(units: int = 6) -> float:
    """REF_UNIT_S / median unit time, from a few units run now."""
    unit_seconds()  # first call pays for imports and allocation
    return REF_UNIT_S / statistics.median(unit_seconds()
                                          for _ in range(units))


class SpeedProbe:
    """Samples the speed during a pass and converts times to reference
    seconds.  Use start(), run the pass, stop(), then reference(a, b)."""

    def __init__(self):
        self.samples: list = []     # (start, duration) of each unit
        self._previous = None
        self._ends: list = []
        self._cum: list = []
        self._factor: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, unit_seconds()))

    def start(self) -> None:
        unit_seconds()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        self._prepare()

    def _prepare(self) -> None:
        """Breakpoints of the piecewise-constant time warp: the gap after
        unit i runs at the median speed of the WINDOW units around it."""
        durs = [d for _, d in self.samples]
        half = WINDOW // 2
        self._ends, self._cum, self._factor = [], [], []
        total = 0.0
        for i, (s, d) in enumerate(self.samples):
            if i:
                total += max(0.0, s - self._ends[-1]) * self._factor[-1]
            self._ends.append(s + d)
            self._cum.append(total)
            self._factor.append(REF_UNIT_S / statistics.median(
                durs[max(0, i - half):i + half + 1]))

    def warp(self, t: float) -> float:
        """Reference seconds from the end of the first unit to t."""
        i = bisect.bisect_right(self._ends, t) - 1
        if i < 0:
            return (t - self._ends[0]) * self._factor[0]
        nxt = self.samples[i + 1][0] if i + 1 < len(self.samples) else t
        return self._cum[i] + max(0.0, min(t, nxt) - self._ends[i]) * \
            self._factor[i]

    def reference(self, a: float, b: float) -> float:
        """Reference seconds of the stretch [a, b]."""
        return self.warp(b) - self.warp(a)
