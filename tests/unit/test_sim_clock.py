"""Unit tests for skewed/drifting clocks."""

import pytest

from repro.sim.clock import Clock


class TestClock:
    def test_drift_scales_durations(self):
        clock = Clock(drift=0.01)  # gains 1%
        assert clock.global_duration(101.0) == pytest.approx(100.0)

    def test_negative_drift_slows_the_clock(self):
        clock = Clock(drift=-0.5)
        assert clock.global_duration(5.0) == pytest.approx(10.0)

    def test_drift_at_or_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            Clock(drift=-1.0)
        with pytest.raises(ValueError):
            Clock(drift=-2.0)

    @pytest.mark.parametrize("drift", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_drift_rejected(self, drift):
        # An infinite drift makes every round zero global seconds long and a
        # NaN one fails only deep inside the run: both are refused up front.
        with pytest.raises(ValueError, match="finite"):
            Clock(drift=drift)

    def test_clock_is_frozen(self):
        clock = Clock(offset=1.0)
        with pytest.raises(AttributeError):
            clock.offset = 2.0  # type: ignore[misc]

    def test_realistic_quartz_drift_over_an_hour(self):
        # 10 ppm drift accumulates 36 ms over an hour — the reason the
        # paper needs round synchronization at all.
        clock = Clock(drift=1e-5)
        skew = 3600.0 - clock.global_duration(3600.0)
        assert skew == pytest.approx(0.036, abs=1e-6)
