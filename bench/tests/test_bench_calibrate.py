"""The rescaling of measured times to the calibration loop's reference speed."""

import gc

import calibrate
import pytest


def test_time_at_reference_rate_is_unchanged():
    assert calibrate.scaled(2.0, calibrate.REF_RATE, calibrate.REF_RATE) == pytest.approx(2.0)


def test_time_on_a_slow_host_is_scaled_down():
    # the loop ran at half speed, so the time at reference speed is half
    half = calibrate.REF_RATE / 2
    assert calibrate.scaled(2.0, half, half) == pytest.approx(1.0)
    assert calibrate.scaled(2.0, half, calibrate.REF_RATE) == pytest.approx(1.5)


@pytest.mark.parametrize("enabled", [True, False])
def test_rate_restores_the_garbage_collector(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert calibrate.rate(0.01) > 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
