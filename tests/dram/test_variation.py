"""Process-variation fields."""

import numpy as np
import pytest

from repro.dram.geometry import DramGeometry
from repro.dram.variation import VariationModel, VariationParameters
from repro.errors import AddressError, ConfigurationError


@pytest.fixture(scope="module")
def model(small_geometry):
    return VariationModel(small_geometry, seed=99)


class TestSegmentProfile:
    def test_deterministic(self, model):
        a = model.segment_entropy_profile(0, 0)
        b = model.segment_entropy_profile(0, 0)
        np.testing.assert_array_equal(a, b)

    def test_positive(self, model, small_geometry):
        profile = model.segment_entropy_profile(0, 0)
        assert profile.shape == (small_geometry.segments_per_bank,)
        assert (profile > 0).all()

    def test_mean_near_one(self, model):
        profile = model.segment_entropy_profile(0, 0)
        assert 0.6 < profile.mean() < 1.6

    def test_banks_differ(self, model):
        a = model.segment_entropy_profile(0, 0)
        b = model.segment_entropy_profile(1, 0)
        assert not np.array_equal(a, b)

    def test_end_of_bank_rise_and_drop(self):
        # At full-scale resolution the Fig. 9 structure is visible: the
        # ~95% zone is elevated over the body and the final segments sag.
        geo = DramGeometry.small(segments_per_bank=1024,
                                 cache_blocks_per_row=4)
        model = VariationModel(geo, seed=5)
        profiles = np.stack([model.segment_entropy_profile(g, 0)
                             for g in range(4)])
        mean = profiles.mean(axis=0)
        body = mean[: int(0.90 * mean.size)].mean()
        rise = mean[int(0.92 * mean.size): int(0.985 * mean.size)].mean()
        tail = mean[int(0.99 * mean.size):].mean()
        assert rise > body
        assert tail < rise

    def test_repair_collapses_exist_at_scale(self):
        geo = DramGeometry.small(segments_per_bank=2048,
                                 cache_blocks_per_row=4)
        model = VariationModel(geo, seed=11)
        profile = np.concatenate([model.segment_entropy_profile(g, 0)
                                  for g in range(4)])
        # ~0.4% repair probability over 8K segments: expect collapses.
        assert (profile < 0.4 * profile.mean()).sum() >= 1

    def test_profile_exponent_stretches_tail(self, small_geometry):
        flat = VariationModel(small_geometry, 7, VariationParameters(
            profile_exponent=1.0)).segment_entropy_profile(0, 0)
        stretched = VariationModel(small_geometry, 7, VariationParameters(
            profile_exponent=2.0)).segment_entropy_profile(0, 0)
        assert (stretched.max() / stretched.mean()) > \
            (flat.max() / flat.mean())


class TestColumnProfile:
    def test_peaks_in_middle_falls_at_end(self, model):
        profile = model.column_entropy_profile()
        middle = profile[profile.size // 3: 2 * profile.size // 3].mean()
        assert middle > profile[0]
        assert profile[-1] < middle

    def test_roughness_deterministic_per_segment(self, model):
        a = model.column_roughness_field(0, 0, 3)
        b = model.column_roughness_field(0, 0, 3)
        np.testing.assert_array_equal(a, b)
        c = model.column_roughness_field(0, 0, 4)
        assert not np.array_equal(a, c)


class TestOffsets:
    def test_shape_and_determinism(self, model, small_geometry):
        a = model.bitline_offsets_z(0, 0, 5)
        assert a.shape == (small_geometry.row_bits,)
        np.testing.assert_array_equal(a, model.bitline_offsets_z(0, 0, 5))

    def test_spread_tracks_effective_zeta(self, model):
        offsets = model.bitline_offsets_z(0, 0, 5)
        zeta = model.effective_zeta(0, 0, 5)
        bias = model.params.polarity_bias_z
        # Normalized offsets should be ~standard normal.
        normalized = (offsets - bias) / zeta
        assert abs(normalized.mean()) < 0.1
        assert abs(normalized.std() - 1.0) < 0.1

    @pytest.mark.parametrize("coords", [(4, 0, [1]), (0, 4, [1]),
                                        (0, 0, [1, 64]), (0, 0, [-1])])
    def test_block_scales_refuse_addresses_outside_the_bank(self, model,
                                                            coords):
        with pytest.raises(AddressError):
            model.block_scales(*coords)

    def test_polarity_bias_shifts_mean(self, small_geometry):
        biased = VariationModel(small_geometry, 3, VariationParameters(
            polarity_bias_z=50.0)).bitline_offsets_z(0, 0, 0)
        unbiased = VariationModel(small_geometry, 3, VariationParameters(
            polarity_bias_z=0.0)).bitline_offsets_z(0, 0, 0)
        assert biased.mean() - unbiased.mean() == pytest.approx(50.0)


class TestRowWeights:
    def test_first_position_dominates(self, model):
        weights = model.row_charge_weights(0, 0, 2, first_position=0)
        assert weights.shape == (4,)
        assert weights[0] > weights[1:].max()

    def test_first_position_moves(self, model):
        weights = model.row_charge_weights(0, 0, 2, first_position=3)
        assert weights[3] > weights[:3].max()

    def test_invalid_position(self, model):
        with pytest.raises(ConfigurationError):
            model.row_charge_weights(0, 0, 2, first_position=4)

    def test_favoritism_anomalies_occur(self, small_geometry):
        params = VariationParameters(favoritism_probability=0.5)
        model = VariationModel(small_geometry, 21, params)
        ratios = []
        for segment in range(small_geometry.segments_per_bank):
            weights = model.row_charge_weights(0, 0, segment, 0)
            ratios.append(weights[1:].max() / weights[1:].min())
        # With 50% anomaly probability many segments carry a >2x
        # imbalance among the nominally-equal rows.
        assert (np.asarray(ratios) > 2.0).mean() > 0.2


class TestParameterValidation:
    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(ConfigurationError):
            VariationParameters(offset_zeta=0)

    def test_rejects_bad_repair_probability(self):
        with pytest.raises(ConfigurationError):
            VariationParameters(repair_probability=1.5)
