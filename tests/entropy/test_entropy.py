"""Shannon aggregation, characterization pipeline, SIB planning."""

import numpy as np
import pytest

from repro.dram.device import BEST_DATA_PATTERN
from repro.entropy.blocks import (EntropyBlockPlan, plan_entropy_blocks,
                                  sha_input_blocks, sib_count)
from repro.entropy.characterization import ModuleCharacterization
from repro.entropy.shannon import (bitline_entropy_from_bitstreams,
                                   cache_block_entropies, segment_entropy)
from repro.errors import (BitstreamError, CharacterizationError,
                          InsufficientEntropyError)


class TestShannonAggregation:
    def test_bitline_entropy_shape(self):
        bitstreams = np.random.default_rng(0).integers(
            0, 2, (100, 64)).astype(np.uint8)
        h = bitline_entropy_from_bitstreams(bitstreams)
        assert h.shape == (64,)
        assert (h > 0.8).all()   # fair coins

    def test_bitline_entropy_requires_2d(self):
        with pytest.raises(BitstreamError):
            bitline_entropy_from_bitstreams(np.zeros(10, dtype=np.uint8))

    def test_cache_block_entropies(self):
        h = np.full(1024, 0.5)
        blocks = cache_block_entropies(h)
        assert blocks.shape == (2,)
        np.testing.assert_allclose(blocks, 256.0)

    def test_cache_block_requires_tiling(self):
        with pytest.raises(BitstreamError):
            cache_block_entropies(np.zeros(100))

    def test_segment_entropy_sum(self):
        assert segment_entropy(np.full(10, 0.5)) == pytest.approx(5.0)

    def test_segment_entropy_rejects_negative(self):
        with pytest.raises(BitstreamError):
            segment_entropy(np.array([-0.1]))


class TestModuleCharacterization:
    @pytest.fixture(scope="class")
    def chars(self, module_m13):
        return ModuleCharacterization(module_m13)

    def test_matrix_shape(self, chars, small_geometry):
        matrix = chars.cache_block_entropy_matrix(BEST_DATA_PATTERN)
        assert matrix.shape == (small_geometry.segments_per_bank,
                                small_geometry.cache_blocks_per_row)
        assert (matrix >= 0).all()

    def test_segment_entropies_consistent(self, chars):
        matrix = chars.cache_block_entropy_matrix(BEST_DATA_PATTERN)
        np.testing.assert_allclose(
            chars.segment_entropies(BEST_DATA_PATTERN), matrix.sum(axis=1))

    def test_best_segment_is_argmax(self, chars):
        entropies = chars.segment_entropies(BEST_DATA_PATTERN)
        assert chars.best_segment(BEST_DATA_PATTERN) == \
            int(entropies.argmax())

    def test_best_pattern_is_0111_or_1000(self, chars):
        assert chars.best_pattern() in ("0111", "1000")

    def test_sweep_covers_requested_patterns(self, chars):
        sweeps = chars.sweep_patterns(["0111", "1011"])
        assert [s.pattern for s in sweeps] == ["0111", "1011"]
        best = {s.pattern: s.average_segment_entropy for s in sweeps}
        assert best["0111"] > best["1011"]

    def test_expected_matches_measured(self, module_m13, small_geometry):
        # The analytic map and the Algorithm-1 Monte-Carlo replay agree.
        chars = ModuleCharacterization(module_m13, 3, 2)
        segment = chars.best_segment(BEST_DATA_PATTERN)
        expected = float(
            chars.segment_entropies(BEST_DATA_PATTERN)[segment])
        measured = chars.measure_segment(segment, BEST_DATA_PATTERN,
                                         iterations=60).sum()
        assert measured == pytest.approx(expected, rel=0.30)

    def test_temperature_changes_characterization(self, fresh_module):
        base = ModuleCharacterization(fresh_module).segment_entropies(
            BEST_DATA_PATTERN)
        fresh_module.temperature_c = 85.0
        hot = ModuleCharacterization(fresh_module).segment_entropies(
            BEST_DATA_PATTERN)
        fresh_module.temperature_c = 50.0
        assert not np.allclose(base, hot)

    def test_invalid_pattern_rejected(self, chars):
        with pytest.raises(CharacterizationError):
            chars.segment_entropies("012")

    def test_measure_requires_iterations(self, chars):
        with pytest.raises(CharacterizationError):
            chars.measure_segment(0, BEST_DATA_PATTERN, iterations=1)


class TestBlockPlanning:
    def test_greedy_split(self):
        entropies = np.array([100.0, 100.0, 100.0, 100.0, 30.0])
        plans = plan_entropy_blocks(entropies, 256.0)
        assert len(plans) == 1
        assert plans[0].start == 0 and plans[0].stop == 3
        assert plans[0].entropy_bits == pytest.approx(300.0)

    def test_multiple_blocks(self):
        entropies = np.full(8, 150.0)
        plans = plan_entropy_blocks(entropies, 256.0)
        assert len(plans) == 4
        for plan in plans:
            assert plan.entropy_bits >= 256.0

    def test_trailing_partial_discarded(self):
        entropies = np.array([300.0, 100.0])
        plans = plan_entropy_blocks(entropies, 256.0)
        assert len(plans) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(CharacterizationError):
            plan_entropy_blocks(np.array([]))
        with pytest.raises(CharacterizationError):
            plan_entropy_blocks(np.array([-1.0]))
        with pytest.raises(CharacterizationError):
            plan_entropy_blocks(np.array([1.0]), entropy_per_block=0)

    def test_bit_slice(self):
        plan = EntropyBlockPlan(start=2, stop=4, entropy_bits=300.0)
        assert plan.bit_slice == slice(1024, 2048)
        assert plan.n_cache_blocks == 2

    def test_sha_input_blocks_slicing(self):
        readout = np.arange(4 * 512) % 2
        plans = [EntropyBlockPlan(0, 2, 256.0),
                 EntropyBlockPlan(2, 4, 256.0)]
        blocks = sha_input_blocks(readout.astype(np.uint8), plans)
        assert len(blocks) == 2
        assert blocks[0].size == 1024

    def test_sha_input_blocks_requires_plan(self):
        with pytest.raises(InsufficientEntropyError):
            sha_input_blocks(np.zeros(512, dtype=np.uint8), [])

    def test_sha_input_blocks_length_check(self):
        plans = [EntropyBlockPlan(0, 4, 256.0)]
        with pytest.raises(InsufficientEntropyError):
            sha_input_blocks(np.zeros(512, dtype=np.uint8), plans)

    def test_sib_count_formula(self):
        # The paper's example: 11 SIBs need >= 2816 bits of entropy.
        assert sib_count(2816.0) == 11
        assert sib_count(255.9) == 0
