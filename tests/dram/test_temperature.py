"""Temperature and ageing response."""

import numpy as np
import pytest

from repro.dram.temperature import (AGEING_DAILY_SIGMA, CHIPS_PER_MODULE,
                                    TREND1_SLOPE_PER_C, TREND2_SLOPE_PER_C,
                                    TemperatureTrend, ThermalModel)


@pytest.fixture(scope="module")
def thermal():
    return ThermalModel(seed=77)


class TestTrendAssignment:
    def test_eight_chips(self, thermal):
        assert len(thermal.chip_trends()) == CHIPS_PER_MODULE

    def test_deterministic(self, thermal):
        assert thermal.chip_trends() == thermal.chip_trends()

    def test_population_split_near_paper(self):
        # Over many modules the chip split approaches 24/16 = 60/40.
        rising = 0
        total = 0
        for seed in range(200):
            trends = ThermalModel(seed=seed).chip_trends()
            rising += sum(1 for t in trends
                          if t is TemperatureTrend.TREND1_RISING)
            total += len(trends)
        assert 0.52 < rising / total < 0.68

    def test_majority_method(self, thermal):
        majority = thermal.module_trend_majority()
        assert majority in (TemperatureTrend.TREND1_RISING,
                            TemperatureTrend.TREND2_FALLING)


class TestSlopes:
    def test_calibrated_to_figure14(self):
        # Trend-1: 1442 -> 1659.6 over 35 C; trend-2: 1710.6 -> 892.5.
        assert np.exp(TREND1_SLOPE_PER_C * 35) == pytest.approx(
            1659.6 / 1442.0, rel=1e-6)
        assert np.exp(TREND2_SLOPE_PER_C * 35) == pytest.approx(
            892.5 / 1710.6, rel=1e-6)

    def test_signs(self):
        assert TREND1_SLOPE_PER_C > 0
        assert TREND2_SLOPE_PER_C < 0


class TestEntropyFactor:
    def test_unity_at_reference(self, thermal):
        factor = thermal.entropy_factor(512, 50.0)
        np.testing.assert_allclose(factor, 1.0)

    def test_chip_interleave(self, thermal):
        chips = thermal.chip_of_bitline(np.arange(128))
        # Byte-lane interleave: bits 0-7 chip 0, 8-15 chip 1, ...
        assert (chips[:8] == 0).all()
        assert (chips[8:16] == 1).all()
        assert chips.max() == CHIPS_PER_MODULE - 1 or chips.max() < 8

    def test_factor_follows_chip_trend(self, thermal):
        trends = thermal.chip_trends()
        factors = thermal.entropy_factor(64, 85.0)
        for chip, trend in enumerate(trends):
            chip_factor = factors[chip * 8]
            if trend is TemperatureTrend.TREND1_RISING:
                assert chip_factor > 1.0
            else:
                assert chip_factor < 1.0


class TestAgeing:
    def test_day_zero_is_unity(self, thermal):
        assert thermal.ageing_factor(0) == 1.0

    def test_deterministic(self, thermal):
        assert thermal.ageing_factor(30) == thermal.ageing_factor(30)

    def test_consistent_walk(self, thermal):
        # factor(30) must extend factor(29)'s walk, not resample it.
        f29 = thermal.ageing_factor(29)
        f30 = thermal.ageing_factor(30)
        step = np.log(f30) - np.log(f29)
        assert abs(step) < 6 * AGEING_DAILY_SIGMA

    def test_thirty_day_magnitude(self):
        # Across modules, the 30-day drift is a few percent (paper:
        # average 2.4%, max 5.2%).
        drifts = [abs(ThermalModel(seed=s).ageing_factor(30) - 1.0)
                  for s in range(40)]
        assert np.mean(drifts) < 0.06
        assert max(drifts) < 0.15

    def test_negative_day_rejected(self, thermal):
        with pytest.raises(ValueError):
            thermal.ageing_factor(-1)

    @pytest.mark.parametrize("seed, factors", [
        (1, (0.995689365873121, 0.9905634797627356, 0.9506765139132016)),
        (2, (1.0018847124919708, 1.0037132420364527, 0.9650338485342999)),
        (3, (0.99625464571916, 0.9912939729796896, 1.0022913805614093)),
        (4, (0.9942976462123568, 0.9997755981761642, 1.062809587233836)),
        (5, (0.9956915235476547, 1.0064824415965652, 1.0326019991392963)),
    ])
    def test_pinned_walk(self, seed, factors):
        # Exact factors on days 1, 7 and 30: the walk is drawn from the
        # per-day "ageing-step" streams and nothing else.
        thermal = ThermalModel(seed=seed)
        assert tuple(thermal.ageing_factor(day)
                     for day in (1, 7, 30)) == factors
