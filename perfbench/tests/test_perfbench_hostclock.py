"""The host clock: samples while active, leaves SIGALRM as it found it.

Run from the repository root:  python -m pytest perfbench/tests
"""

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import hostclock  # noqa: E402


def test_speed_factor_is_reference_over_median():
    ref = hostclock.REFERENCE_S
    assert hostclock.speed_factor([ref, ref]) == pytest.approx(1.0)
    # A host twice as slow halves the factor, so a batch's wall time is halved.
    assert hostclock.speed_factor([2 * ref, 2 * ref]) == pytest.approx(0.5)
    # One sample slowed by a blip does not move it.
    assert hostclock.speed_factor([ref, ref, 50 * ref]) == pytest.approx(1.0)


def test_clock_ticks_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    with clock:
        end = time.perf_counter() + 4 * hostclock.TICK_S
        while time.perf_counter() < end:
            sum(range(1000))
    # One sample at entry, one at exit, and one per tick in between.
    assert len(clock.samples) >= 4
    assert clock.busy_s == pytest.approx(sum(clock.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with clock:
        pass
    assert len(clock.samples) == 2
