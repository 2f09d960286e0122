"""Tests of the machine-speed calibration.

    python3 -m pytest bench/tests
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calibration  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402


def with_samples(times, samples, sensitivity=0.5):
    cal = Calibration(sensitivity, window=1.0)
    cal.times, cal.samples = list(times), list(samples)
    return cal


def test_factor_uses_the_samples_near_the_span():
    # Kernel at reference speed until t = 10, then twice as slow.
    cal = with_samples(range(20), [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10)
    assert cal.factor(2.0, 4.0) == pytest.approx(1.0)
    assert cal.speed(14.0, 15.0) == pytest.approx(0.5)
    assert cal.factor(14.0, 15.0) == pytest.approx(0.5 ** 0.5)
    assert cal.speed() == pytest.approx(2 / 3)


def test_factor_falls_back_to_the_three_nearest_samples():
    cal = with_samples([0.0, 1.0, 2.0, 10.0, 20.0],
                       [REFERENCE_S, REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S, 4 * REFERENCE_S])
    # Nothing lies within a second of [5, 5.5]; the nearest three are t = 2, 1 and 10.
    assert cal.speed(5.0, 5.5) == pytest.approx(1.0)
    assert cal.speed(21.5, 22.0) == pytest.approx(0.25)


def test_alarm_kernel_time_is_kept_apart():
    with Calibration(interval=0.05) as cal:
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    assert len(cal.samples) > 6  # three before, three after, and the alarms
    assert 0.0 < cal.spent < 0.5
    assert calibration.signal.getitimer(calibration.signal.ITIMER_REAL) == (0.0, 0.0)
