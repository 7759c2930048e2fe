"""Baseline failure mechanisms: retention, startup."""

import numpy as np
import pytest

from repro.dram.failures import StartupValueModel
from repro.dram.retention import RetentionModel, VRT_FRACTION
from repro.errors import ConfigurationError


class TestStartupValues:
    def test_startup_rows_differ_across_power_cycles(self, small_geometry):
        model = StartupValueModel(small_geometry, seed=5)
        a = model.startup_row(0, 0, 2, power_cycle=0)
        b = model.startup_row(0, 0, 2, power_cycle=1)
        assert not np.array_equal(a, b)
        # But most cells are biased: the difference is sparse.
        assert (a != b).mean() < 2 * model.metastable_fraction

    def test_row_entropy_estimate(self, small_geometry):
        model = StartupValueModel(small_geometry, seed=5)
        assert model.row_entropy() == pytest.approx(
            small_geometry.row_bits * model.metastable_fraction)

    def test_power_cycle_latency_is_700us(self, small_geometry):
        assert StartupValueModel(small_geometry, 0).power_cycle_latency_ns \
            == pytest.approx(700_000.0)


class TestRetention:
    def test_probability_monotone_in_pause(self):
        model = RetentionModel()
        assert model.failure_probability(40.0) < \
            model.failure_probability(320.0)

    def test_zero_pause_no_failures(self):
        assert RetentionModel().failure_probability(0.0) == 0.0

    def test_temperature_accelerates(self):
        model = RetentionModel()
        assert model.failure_probability(40.0, 85.0) > \
            model.failure_probability(40.0, 50.0)

    def test_dpuf_operating_point(self):
        # 4 MiB region, 40 s pause: enough entropy for one 256-bit block.
        model = RetentionModel()
        bits = model.expected_entropy_bits(4 * 2 ** 20 * 8, 40.0)
        assert bits >= 256

    def test_keller_operating_point(self):
        model = RetentionModel()
        bits = model.expected_entropy_bits(1 * 2 ** 20 * 8, 320.0)
        assert bits >= 256

    def test_pause_for_entropy_inverse(self):
        model = RetentionModel()
        region = 4 * 2 ** 20 * 8
        pause = model.pause_for_entropy(region, 256.0)
        assert model.expected_entropy_bits(region, pause) == \
            pytest.approx(256.0, rel=0.01)

    def test_pause_for_entropy_unreachable(self):
        model = RetentionModel()
        with pytest.raises(ConfigurationError):
            model.pause_for_entropy(10, 256.0, max_pause_s=100.0)

    def test_vrt_fraction_sane(self):
        assert 0 < VRT_FRACTION < 1

