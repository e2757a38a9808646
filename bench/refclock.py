"""A clock that reads seconds at a fixed reference speed of the machine.

On a shared host the speed of one core swings by up to 2x in phases that
last from seconds to minutes, so wall times of the same work taken minutes
apart differ by more than a regression bound. `RefClock` follows the speed:
an interval timer interrupts the process every `period` seconds and times a
fixed calibration snippet of numpy calls on 2-vectors, the kind of call that
sweepsolve's hot loops are made of; among the snippets tried, its slowdowns
followed those of the workloads most closely. The wall time between
two interrupts is scaled by `REF_CALIB_S` over the duration of the
calibration that opened it, and the calibrations themselves are left out.
A reading is therefore the time the work would have taken on a core on which
the calibration takes `REF_CALIB_S`, and a program that does less work reads
less in proportion.

The clock runs in the benchmark's own process and thread; it starts no
thread or process. Use it as a context manager around the timed section.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median calibration time on a 2-vCPU 2.1 GHz Xeon VM with Python 3.11 and
# numpy 2.4, so readings there are close to wall seconds at its usual speed.
REF_CALIB_S = 1.25e-3
PERIOD_S = 0.05

_V = np.array([0.3, 0.4])


def calibration() -> float:
    """The fixed snippet whose duration measures the core's current speed."""
    x, s = np.zeros(2), 0.0
    for _ in range(150):
        y = np.clip(x + _V, -1.0, 1.0)
        x = y * 0.5
        s += float(np.dot(x, y))
    return s


class RefClock:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []  # every calibration duration, in wall seconds
        # Until the next calibration a reading is base + perf_counter() * rate,
        # with the rate set by the last calibration, so readings never jump.
        # One tuple, so that a reader never sees half of an update.
        self._line = (0.0, 1.0)
        self._busy = False
        self._previous = None

    def _calibrate(self) -> float:
        start = time.perf_counter()
        calibration()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _restart(self, reading: float, took: float) -> None:
        """Continue from `reading` at the rate the calibration `took` sets."""
        rate = REF_CALIB_S / took
        self._line = (reading - time.perf_counter() * rate, rate)

    def _tick(self, *_):
        if self._busy:
            return
        self._busy = True
        now = time.perf_counter()
        base, rate = self._line
        self._restart(base + now * rate, self._calibrate())
        self._busy = False

    def __call__(self, _now=time.perf_counter) -> float:
        """Reference seconds since the clock started."""
        # The line is read before the time: a tick that lands after the time
        # is taken leaves this reading on the old line, where it belongs.
        base, rate = self._line
        return base + _now() * rate

    def __enter__(self) -> RefClock:
        self._restart(0.0, self._calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
