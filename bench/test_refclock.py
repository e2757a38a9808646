"""Self-tests of the benchmark's reference clock.

    python3 -m pytest bench/test_refclock.py -q
"""

import signal
import time

from refclock import REF_CALIB_S, RefClock


def test_readings_never_decrease_across_calibrations():
    with RefClock(period=0.005) as clock:
        readings = [clock()]
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            readings.append(clock())
    assert len(clock.samples) >= 5
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > readings[0]


def test_readings_scale_wall_time_by_calibration_speed():
    with RefClock(period=0.01) as clock:
        wall_start, start = time.perf_counter(), clock()
        while time.perf_counter() < wall_start + 0.1:
            pass
        spent, wall = clock() - start, time.perf_counter() - wall_start
    calibrations = clock.samples
    # Calibrations are left out of the reading; the rest is scaled by
    # REF_CALIB_S over the duration of one of them.
    assert spent <= wall * REF_CALIB_S / min(calibrations)
    assert spent >= 0.9 * (wall - sum(calibrations)) * REF_CALIB_S / max(calibrations)


def test_previous_handler_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    with RefClock(period=0.01):
        assert signal.getsignal(signal.SIGALRM) != before
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
