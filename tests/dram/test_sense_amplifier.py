"""Sense-amplifier metastability model."""

import numpy as np
import pytest

from repro.dram.sense_amplifier import (bernoulli_entropy,
                                        deviation_from_cells,
                                        empirical_entropy, row_draws,
                                        sample_iterations, sample_settles,
                                        settle_probability,
                                        settle_thresholds)
from repro.errors import BitstreamError
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


def _row_raw(decisions, lanes, width):
    """The raw draws of one ``width``-bit row: its decision bytes, then
    its 32-bit refinement lanes two per draw, low half first."""
    decision, refinement = row_draws(width)
    head = np.zeros(8 * decision, dtype=np.uint8)
    head[:len(decisions)] = decisions
    tail = np.zeros(2 * refinement, dtype="<u4")
    tail[:len(lanes)] = lanes
    return np.concatenate([head.view("<u8"), tail.view("<u8")])


def _lazy_reference(p, key, rows):
    """Rows ``[0, rows)`` of a thermal stream by the lane rule, bit by
    bit: the tie ranked ``n`` in its row reads refinement lane ``n`` if
    the row has one, else overflow lane ``n - 2R`` from ``2**126``
    draws past the row's first draw."""
    t = [int(x) for x in np.ceil(np.asarray(p) * 2.0 ** 32)]
    decision, refinement = row_draws(len(t))
    draws = decision + refinement
    out = np.zeros((rows, len(t)), dtype=np.uint8)
    for k in range(rows):
        raw = generator_from_key(key, k * draws).bit_generator \
            .random_raw(draws).astype("<u8")
        lanes = list(raw[decision:].view("<u4") >> 8)
        ties = 0
        for j, b in enumerate(raw[:decision].view(np.uint8)[:len(t)]):
            if int(b) == min(t[j] >> 24, 255):
                if ties == len(lanes):
                    extra = generator_from_key(
                        key, k * draws + 2 ** 126).bit_generator \
                        .random_raw(len(t)).astype("<u8")
                    lanes += list(extra.view("<u4") >> 8)
                r = int(lanes[ties])
                ties += 1
            else:
                r = 0
            out[k, j] = (int(b) << 24 | r) < t[j]
    return out


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
    """The exact lazy-lane thermal kernel behind ``sample_settles``."""

    def test_p_zero_never_and_p_one_always(self):
        rng = np.random.Generator(np.random.PCG64(5))
        out = sample_settles(np.array([0.0, 1.0] * 8), rng,
                             iterations=4096)
        assert out.dtype == np.uint8
        assert not out[:, 0::2].any()
        assert out[:, 1::2].all()

    def test_extreme_lanes_at_p_zero_and_one(self):
        # p = 0 is (hi, lo) = (0, 0) and p = 1 is (255, 2**24): the
        # decision bytes 0 and 255 tie with them, and even the extreme
        # refinement lanes resolve the ties to 0 and 1.
        p = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        top = 2 ** 32 - 1
        raw = _row_raw([0, 0, 255, 255, 255, 0], [0, top, 0, top], p.size)
        out = sample_settles(p, _ScriptedRng(raw))
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("k", [
        0, 1, 2, 2 ** 24 - 1, 2 ** 24, 2 ** 24 + 1, 3 * 2 ** 24 - 1,
        3 * 2 ** 24 + 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32])
    def test_threshold_boundaries(self, k):
        # p = k / 2**32 exactly gives t = k.  Bytes one below and above
        # hi settle without a lane; the two ties read r = lo - 1 and
        # r = lo (lanes carry r in their top 24 bits; the low 8 are
        # noise), so outcomes are exact on both sides of t.
        hi, lo = settle_thresholds(np.array([k / 2.0 ** 32]))
        hi, lo = int(hi[0]), int(lo[0])
        assert hi == min(k >> 24, 255) and hi * 2 ** 24 + lo == k
        cases = []     # (decision byte, refinement r or None)
        if hi > 0:
            cases.append((hi - 1, None))
        if hi < 255:
            cases.append((hi + 1, None))
        for r in (lo - 1, lo):
            if 0 <= r < 2 ** 24:
                cases.append((hi, r))
        lanes = [r << 8 | 0xFF for _, r in cases if r is not None]
        p = np.full(len(cases) + len(cases) % 2, k / 2.0 ** 32)
        decisions = [b for b, _ in cases] + [255 - hi] * (len(cases) % 2)
        out = sample_settles(p, _ScriptedRng(
            _row_raw(decisions, lanes, p.size)))
        want = [int((b << 24 | (r or 0)) < k) for b, r in cases]
        np.testing.assert_array_equal(out[:len(cases)], want)

    def test_thresholds_bound_the_probability_error(self):
        p = np.random.default_rng(3).random(1000)
        hi, lo = settle_thresholds(p)
        assert hi.dtype == np.uint8 and lo.dtype == np.uint32
        assert (lo <= 2 ** 24).all()
        t = hi.astype(np.uint64) * 2 ** 24 + lo
        error = t / 2.0 ** 32 - p
        assert (error >= 0).all() and (error < 2.0 ** -32).all()
        hi, lo = settle_thresholds([0.0, 1.0])
        np.testing.assert_array_equal(hi, [0, 255])
        np.testing.assert_array_equal(lo, [0, 2 ** 24])

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan, -np.inf, np.inf])
    def test_invalid_probabilities_are_refused(self, bad):
        p = np.full(16, 0.5)
        p[3] = bad
        key = derive_key(7, "quac-thermal", STREAM_EPOCH, 0, 0, 0)
        with pytest.raises(BitstreamError, match="probabilities"):
            settle_thresholds(p)
        with pytest.raises(BitstreamError, match="probabilities"):
            sample_iterations(p, key, 0, 2)
        with pytest.raises(BitstreamError, match="probabilities"):
            sample_settles(p, generator_from_key(key))

    def test_matches_the_uint64_threshold_formula(self):
        # The lazy rule is the 32-bit comparison (b << 24 | r) < t of
        # the composed lane, with r the row's next refinement lane.
        p = np.array([0.0, 1.0, 0.5, 1e-12, 1 - 1e-12, 0.3,
                      37.5 / 256, 200.25 / 256] * 4)
        key = derive_key(9, "quac-thermal", STREAM_EPOCH, 0, 1, 2)
        np.testing.assert_array_equal(sample_iterations(p, key, 0, 300),
                                      _lazy_reference(p, key, 300))

    def test_frequency_within_six_sigma(self):
        p = np.array([0.001, 0.05, 0.25, 0.5, 0.5, 0.75, 0.95, 0.999])
        rows = 2 ** 16
        rng = np.random.Generator(np.random.PCG64(2021))
        freq = sample_settles(p, rng, rows).mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / rows)
        assert (np.abs(freq - p) < 6 * sigma).all()

    def test_frequency_within_five_sigma_over_a_million_rows(self):
        # Thresholds whose low 24 bits decide often (ties resolved by
        # the refinement lanes) and the deterministic ends.
        t = np.array([2 ** 24 + 1, 2 ** 31 - 2 ** 23, 37 * 2 ** 24 + 2 ** 22,
                      200 * 2 ** 24 + 3 * 2 ** 22, 255 * 2 ** 24 + 2 ** 23,
                      2 ** 32 - 2 ** 20, 0, 2 ** 32], dtype=np.float64)
        p = t / 2.0 ** 32
        rows = 10 ** 6
        key = derive_key(11, "quac-thermal", STREAM_EPOCH, 0, 0, 9)
        freq = sample_iterations(p, key, 0, rows).mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / rows)
        assert (np.abs(freq - p) <= 5 * sigma).all()

    def test_lane_order_is_pinned(self):
        # Byte j of the row's draws is bitline j's decision byte, and
        # ties read the refinement lanes in column order, low half of
        # each draw first.  p = 128.5 / 256 is (hi, lo) = (128, 2**23).
        width = 16
        decisions = [0, 255] * 4 + [128] * 8
        lanes = [(2 ** 23 - 1) << 8, 2 ** 23 << 8] * 4
        out = sample_settles(np.full(width, 128.5 / 256), _ScriptedRng(
            _row_raw(decisions, lanes, width)))
        np.testing.assert_array_equal(out, [1, 0] * 4 + [1, 0] * 4)
        # And a literal 16-bitline PCG64 draw, so a reordering of the
        # generator's output cannot go unnoticed either.
        out = sample_settles(np.full(16, 0.5),
                             generator_from_key((1, 2, 3, 4)))
        np.testing.assert_array_equal(
            out, [int(c) for c in "0101000101110000"])

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

    @pytest.mark.parametrize("width", [16, 4096, 4092, 4095, 17, 1])
    def test_splits_change_nothing(self, width):
        # Rows split one by one, across the kernel's 64-row passes and
        # across task boundaries are the same rows, at any width: whole
        # bytes or not, even or odd.
        key = derive_key(5, "quac-thermal", STREAM_EPOCH, 0, 2, 1)
        thresholds = settle_thresholds(
            np.random.default_rng(width).random(width))
        whole = sample_iterations(thresholds, key, 0, 200)
        for sizes in ([1] * 200, [63, 2, 64, 71], [64, 64, 64, 8],
                      [65, 135], [127, 1, 1, 71]):
            parts, first = [], 0
            for size in sizes:
                parts.append(np.atleast_2d(
                    sample_iterations(thresholds, key, first, size)))
                first += size
            np.testing.assert_array_equal(np.vstack(parts), whole)

    def test_forced_overflow(self):
        # p_j = (b_j + 0.5) / 256 for a row's own decision bytes b_j:
        # all 4,096 bitlines of that row tie, 4,032 past its 64
        # refinement lanes, and each tie is a fair coin (lo = 2**23).
        width = 4096
        decision, refinement = row_draws(width)
        ones = total = 0
        for seed in range(8):
            key = derive_key(seed, "quac-thermal", STREAM_EPOCH, 0, 0, 0)
            forced = 5 + seed
            raw = generator_from_key(
                key, forced * (decision + refinement)).bit_generator \
                .random_raw(decision).astype("<u8")
            p = (raw.view(np.uint8).astype(np.float64) + 0.5) / 256
            whole = sample_iterations(p, key, 0, 70)
            assert whole.shape == (70, width)
            np.testing.assert_array_equal(
                sample_iterations(p, key, forced), whole[forced])
            np.testing.assert_array_equal(
                sample_iterations(p, key, forced - 3, 4)[3], whole[forced])
            if seed == 0:
                np.testing.assert_array_equal(
                    whole[:forced + 1], _lazy_reference(p, key, forced + 1))
            ones += int(whole[forced].sum())
            total += width
        assert abs(ones / total - 0.5) <= 5 * np.sqrt(0.25 / total)


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
