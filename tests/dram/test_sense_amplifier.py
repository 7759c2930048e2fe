"""Sense-amplifier metastability model."""

import numpy as np
import pytest

from repro.dram.sense_amplifier import (bernoulli_entropy,
                                        deviation_from_cells,
                                        empirical_entropy,
                                        sample_iterations, sample_settles,
                                        settle_probability,
                                        settle_thresholds)
from repro.errors import BitstreamError, ConfigurationError
from repro.rng import STREAM_EPOCH, derive_key, generator_from_key


class _ScriptedBits:
    """A bit generator stand-in whose raw 64-bit draws are given."""

    def __init__(self, raw):
        self._raw = np.asarray(raw, dtype=np.uint64)

    def random_raw(self, size):
        assert size == self._raw.size
        return self._raw


class _ScriptedRng:
    def __init__(self, raw):
        self.bit_generator = _ScriptedBits(raw)


def _raw_from_lanes(lanes):
    """Pack 32-bit lanes two per raw draw, low half first."""
    lanes = np.asarray(lanes, dtype=np.uint64)
    return lanes[0::2] | (lanes[1::2] << np.uint64(32))


class TestSettleProbability:
    def test_zero_deviation_is_coin_flip(self):
        assert settle_probability(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_large_deviation_saturates(self):
        p = settle_probability(np.array([-10.0, 10.0]))
        assert p[0] < 1e-12
        assert p[1] > 1 - 1e-12

    def test_monotonic(self):
        z = np.linspace(-5, 5, 101)
        p = settle_probability(z)
        assert (np.diff(p) > 0).all()


class TestBernoulliEntropy:
    def test_extremes_exact(self):
        h = bernoulli_entropy(np.array([0.0, 1.0, 0.5]))
        assert h[0] == 0.0
        assert h[1] == 0.0
        assert h[2] == pytest.approx(1.0)

    def test_symmetry(self):
        p = np.array([0.1, 0.3])
        np.testing.assert_allclose(bernoulli_entropy(p),
                                   bernoulli_entropy(1 - p))

    def test_rejects_out_of_range(self):
        with pytest.raises(BitstreamError):
            bernoulli_entropy(np.array([1.5]))


class TestEmpiricalEntropy:
    def test_matches_analytic_for_large_samples(self):
        rng = np.random.default_rng(3)
        p = 0.3
        bits = (rng.random(200000) < p).astype(np.uint8)
        measured = float(empirical_entropy(bits))
        assert measured == pytest.approx(float(bernoulli_entropy(
            np.array([p]))[0]), abs=0.01)

    def test_axis_handling(self):
        bits = np.array([[0, 1], [1, 1], [0, 1], [1, 1]], dtype=np.uint8)
        h = empirical_entropy(bits, axis=0)
        assert h.shape == (2,)
        assert h[0] == pytest.approx(1.0)
        assert h[1] == 0.0

    def test_rejects_non_binary(self):
        with pytest.raises(BitstreamError):
            empirical_entropy(np.array([0, 1, 2]))


class TestSampling:
    def test_shape_single_iteration(self):
        rng = np.random.default_rng(0)
        out = sample_settles(np.full(16, 0.5), rng)
        assert out.shape == (16,)

    def test_shape_multiple_iterations(self):
        rng = np.random.default_rng(0)
        out = sample_settles(np.full(16, 0.5), rng, iterations=10)
        assert out.shape == (10, 16)

    def test_respects_probabilities(self):
        rng = np.random.default_rng(1)
        out = sample_settles(np.array([0.0, 1.0]), rng, iterations=100)
        assert out[:, 0].sum() == 0
        assert out[:, 1].sum() == 100


class TestLaneKernel:
    """The 32-bit lane thermal kernel behind ``sample_settles``."""

    def test_p_zero_never_and_p_one_always(self):
        rng = np.random.Generator(np.random.PCG64(5))
        out = sample_settles(np.array([0.0, 1.0] * 8), rng,
                             iterations=4096)
        assert out.dtype == np.uint8
        assert not out[:, 0::2].any()
        assert out[:, 1::2].all()

    def test_extreme_lanes_at_p_zero_and_one(self):
        # The all-zeros and all-ones lanes are the only ones that could
        # leak at the endpoints.
        top = 2 ** 32 - 1
        rng = _ScriptedRng(_raw_from_lanes([0, top, 0, top]))
        out = sample_settles(np.array([0.0, 0.0, 1.0, 1.0]), rng)
        np.testing.assert_array_equal(out, [0, 0, 1, 1])

    @pytest.mark.parametrize("k", [1, 2, 2 ** 31, 2 ** 32 - 1])
    def test_threshold_boundaries(self, k):
        # p = k / 2**32 exactly: lanes below k settle to one, lane k
        # and above to zero.  Just above it, lane k joins the ones.
        exact = k / 2.0 ** 32
        above = np.nextafter(exact, 1.0)
        assert settle_thresholds(np.array([exact]))[0] == k
        assert settle_thresholds(np.array([above]))[0] == k + 1
        lanes = [k - 1, k, (k + 1) % 2 ** 32, k]
        p = np.array([exact, exact, exact, above])
        out = sample_settles(p, _ScriptedRng(_raw_from_lanes(lanes)))
        want = [1, 0, int(k + 1 == 2 ** 32), 1]
        np.testing.assert_array_equal(out, want)

    def test_thresholds_bound_the_probability_error(self):
        p = np.random.default_rng(3).random(1000)
        t = settle_thresholds(p)
        assert t.dtype == np.uint64
        error = t / 2.0 ** 32 - p
        assert (error >= 0).all() and (error < 2.0 ** -32).all()
        np.testing.assert_array_equal(settle_thresholds([0.0, 1.0]),
                                      [0, 2 ** 32])

    def test_matches_the_uint64_threshold_formula(self):
        p = np.array([0.0, 1.0, 0.5, 1e-12, 1 - 1e-12, 0.3] * 4)
        rng = np.random.Generator(np.random.PCG64(11))
        raw = np.random.Generator(np.random.PCG64(11)).bit_generator \
            .random_raw(p.size * 50 // 2)
        lanes = raw.astype("<u8").view("<u4").reshape(50, p.size)
        want = np.less(lanes, settle_thresholds(p)).astype(np.uint8)
        np.testing.assert_array_equal(sample_settles(p, rng, 50), want)

    def test_frequency_within_six_sigma(self):
        p = np.array([0.001, 0.05, 0.25, 0.5, 0.5, 0.75, 0.95, 0.999])
        rows = 2 ** 16
        rng = np.random.Generator(np.random.PCG64(2021))
        freq = sample_settles(p, rng, rows).mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / rows)
        assert (np.abs(freq - p) < 6 * sigma).all()

    def test_lane_order_is_pinned(self):
        # Raw draw j feeds lanes 2j (low half) and 2j + 1 (high half).
        lanes = [0, 2 ** 32 - 1] * 4 + [2 ** 31 - 1, 2 ** 31] * 4
        rng = _ScriptedRng(_raw_from_lanes(lanes))
        out = sample_settles(np.full(16, 0.5), rng)
        np.testing.assert_array_equal(out, [1, 0] * 8)
        # And a literal 16-lane PCG64 draw, so a reordering of the
        # generator's output cannot go unnoticed either.
        out = sample_settles(np.full(16, 0.5),
                             generator_from_key((1, 2, 3, 4)))
        np.testing.assert_array_equal(
            out, [int(c) for c in "1110111011001110"])

    def test_advance_to_row_k_matches_long_draw(self):
        key = derive_key(7, "quac-thermal", STREAM_EPOCH, 1, 0, 3)
        p = np.random.default_rng(4).random(64)
        long = sample_settles(p, generator_from_key(key), 10)
        np.testing.assert_array_equal(sample_iterations(p, key, 0, 10),
                                      long)
        for k in (0, 1, 6, 9):
            np.testing.assert_array_equal(sample_iterations(p, key, k),
                                          long[k])
        np.testing.assert_array_equal(sample_iterations(p, key, 4, 6),
                                      long[4:])

    def test_odd_row_width_is_rejected(self):
        # An odd row would straddle raw draws, so no iteration past the
        # first could be reached by advancing the stream.
        key = derive_key(7, "quac-thermal", STREAM_EPOCH, 0, 0, 0)
        with pytest.raises(ConfigurationError, match="even row width"):
            sample_iterations(np.full(5, 0.5), key, 3)


class TestChargeSharing:
    def test_balanced_0111_with_weight_3_is_metastable(self):
        # "0111" with the first row weighing 3: net imbalance zero.
        cells = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        dv = deviation_from_cells(cells, first_row=0, first_row_weight=3.0,
                                  drive_z=60.0)
        assert dv[0] == pytest.approx(0.0)

    def test_uniform_pattern_is_deterministic(self):
        cells = np.ones((4, 1), dtype=np.uint8)
        dv = deviation_from_cells(cells, first_row=0, first_row_weight=3.0,
                                  drive_z=60.0)
        assert dv[0] == pytest.approx(0.5 * 6 * 60.0)

    def test_first_row_position_matters(self):
        # "0111" is balanced only when row 0 is activated first.
        cells = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        balanced = deviation_from_cells(cells, 0, 3.0, 60.0)
        unbalanced = deviation_from_cells(cells, 1, 3.0, 60.0)
        assert abs(balanced[0]) < abs(unbalanced[0])

    def test_shape_validation(self):
        with pytest.raises(BitstreamError):
            deviation_from_cells(np.zeros((3, 8)), 0, 3.0, 60.0)

    def test_first_row_range(self):
        with pytest.raises(ValueError):
            deviation_from_cells(np.zeros((4, 8)), 4, 3.0, 60.0)
