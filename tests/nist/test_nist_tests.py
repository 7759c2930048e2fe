"""The fifteen NIST SP 800-22 tests, one class each.

Each test is checked three ways where practical:

* a published SP 800-22 worked example (exact p-value);
* acceptance of a good pseudo-random stream;
* rejection of a stream engineered to violate exactly that property.
"""

import numpy as np
import pytest

from repro.nist.complexity import berlekamp_massey, linear_complexity
from repro.nist.cusum import _cusum_p_value, cumulative_sums
from repro.nist.excursions import random_excursion, random_excursion_variant
from repro.nist.frequency import frequency_within_block, monobit
from repro.nist.matrix import binary_matrix_rank, gf2_rank
from repro.nist.runs import longest_run_ones_in_a_block, runs
from repro.nist.serial import approximate_entropy, serial
from repro.nist.spectral import dft
from repro.nist.templates import (aperiodic_templates,
                                  non_overlapping_template_matching,
                                  overlapping_template_matching)
from repro.nist.universal import maurers_universal


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


@pytest.fixture(scope="module")
def good(random_bits_1mb):
    return random_bits_1mb


class TestMonobit:
    def test_spec_example(self):
        # SP 800-22 2.1.8: the 100-bit expansion-of-e example, p=0.109599.
        e_bits = bits("11001001000011111101101010100010001000010110100011"
                      "00001000110100110001001100011001100010100010111000")
        assert monobit(e_bits).p_value == pytest.approx(0.109599, abs=1e-4)

    def test_random_passes(self, good):
        assert monobit(good).passes()

    def test_biased_fails(self):
        rng = np.random.default_rng(1)
        biased = (rng.random(10000) < 0.55).astype(np.uint8)
        assert not monobit(biased).passes()


class TestBlockFrequency:
    def test_random_passes(self, good):
        assert frequency_within_block(good).passes()

    def test_blocky_stream_fails(self):
        # Alternating all-zeros / all-ones blocks: globally balanced but
        # catastrophically non-uniform per block.
        stream = np.concatenate(
            [np.zeros(128, dtype=np.uint8), np.ones(128, dtype=np.uint8)]
            * 50)
        assert monobit(stream).passes()  # fools the monobit test...
        assert not frequency_within_block(stream).passes()  # ...not this


class TestRuns:
    def test_spec_example(self):
        # SP 800-22 2.3.8 example (n=100), p=0.500798.
        e_bits = bits("11001001000011111101101010100010001000010110100011"
                      "00001000110100110001001100011001100010100010111000")
        assert runs(e_bits).p_value == pytest.approx(0.500798, abs=1e-4)

    def test_random_passes(self, good):
        assert runs(good).passes()

    def test_alternating_fails(self):
        assert not runs(np.tile(np.array([0, 1], dtype=np.uint8),
                                5000)).passes()

    def test_precondition_failure_gives_zero(self):
        stream = np.ones(10000, dtype=np.uint8)
        assert runs(stream).p_value == 0.0


class TestLongestRun:
    def test_random_passes(self, good):
        assert longest_run_ones_in_a_block(good).passes()

    def test_clumped_fails(self):
        # Long stretches of ones inside otherwise balanced blocks.
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 2, 100000).astype(np.uint8)
        stream[::100] = 1
        for start in range(0, stream.size - 40, 200):
            stream[start:start + 30] = 1
        assert not longest_run_ones_in_a_block(stream).passes()


class TestMatrixRank:
    def test_gf2_rank_identity(self):
        assert gf2_rank(np.eye(8, dtype=np.uint8)) == 8

    def test_gf2_rank_dependent_rows(self):
        mat = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        # Row 3 = row 1 xor row 2 over GF(2).
        assert gf2_rank(mat) == 2

    def test_gf2_rank_zero_matrix(self):
        assert gf2_rank(np.zeros((4, 4), dtype=np.uint8)) == 0

    def test_random_passes(self, good):
        assert binary_matrix_rank(good).passes()

    def test_low_rank_stream_fails(self):
        # Repeating one 32-bit word: every matrix has rank 1.
        word = np.random.default_rng(5).integers(0, 2, 32).astype(np.uint8)
        stream = np.tile(word, 38 * 32 + 32)
        assert not binary_matrix_rank(stream).passes()


class TestDft:
    def test_random_passes(self, good):
        assert dft(good).passes()

    def test_periodic_fails(self):
        stream = np.tile(bits("11110000"), 2000)
        assert not dft(stream).passes()


class TestTemplates:
    def test_non_overlapping_random_passes(self, good):
        assert non_overlapping_template_matching(good[:200000]).passes()

    def test_non_overlapping_template_stuffed_fails(self):
        rng = np.random.default_rng(6)
        stream = rng.integers(0, 2, 100000).astype(np.uint8)
        # Stuff the default template 000000001 far too often.
        for start in range(0, stream.size - 9, 40):
            stream[start:start + 9] = bits("000000001")
        assert not non_overlapping_template_matching(stream).passes()

    def test_overlapping_random_passes(self, good):
        assert overlapping_template_matching(good).passes()

    def test_overlapping_ones_stuffed_fails(self):
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 2, 1032 * 64).astype(np.uint8)
        for start in range(0, stream.size - 16, 300):
            stream[start:start + 16] = 1
        assert not overlapping_template_matching(stream).passes()

    def test_aperiodic_template_enumeration(self):
        templates = aperiodic_templates(4)
        assert (1, 1, 1, 1) not in templates   # periodic
        assert (0, 0, 0, 1) in templates        # aperiodic
        for template in templates:
            assert len(template) == 4


class TestUniversal:
    def test_random_passes(self, good):
        assert maurers_universal(good).passes()

    def test_compressible_fails(self):
        stream = np.tile(bits("0110100110010110"), 80000)[:2 ** 20]
        assert not maurers_universal(stream).passes()


class TestLinearComplexity:
    def test_berlekamp_massey_lfsr(self):
        # x^3 + x + 1 LFSR produces a period-7 sequence of complexity 3.
        state = [1, 0, 0]
        seq = []
        for _ in range(28):
            seq.append(state[-1])
            feedback = state[-1] ^ state[-3]
            state = [feedback] + state[:-1]
        assert berlekamp_massey(np.array(seq, dtype=np.uint8)) == 3

    def test_berlekamp_massey_random_is_half(self):
        rng = np.random.default_rng(8)
        seq = rng.integers(0, 2, 200).astype(np.uint8)
        assert abs(berlekamp_massey(seq) - 100) <= 3

    def test_random_passes(self, good):
        assert linear_complexity(good[:200000]).passes()

    def test_lfsr_stream_fails(self):
        state = list(np.random.default_rng(9).integers(0, 2, 16))
        seq = []
        for _ in range(500 * 40):
            seq.append(state[-1])
            feedback = state[-1] ^ state[-3] ^ state[-5] ^ state[-16]
            state = [feedback] + state[:-1]
        assert not linear_complexity(
            np.array(seq, dtype=np.uint8)).passes()


class TestSerialAndApEn:
    def test_serial_random_passes(self, good):
        assert serial(good).passes()

    def test_serial_periodic_fails(self):
        stream = np.tile(bits("0101100111"), 110000)[:2 ** 20]
        assert not serial(stream).passes()

    def test_serial_reports_two_p_values(self, good):
        result = serial(good)
        assert set(result.extra_p_values) == {"p_value1", "p_value2"}

    def test_apen_random_passes(self, good):
        assert approximate_entropy(good).passes()

    def test_apen_regular_fails(self):
        stream = np.tile(bits("01"), 2 ** 17)
        assert not approximate_entropy(stream).passes()


class TestCusum:
    def test_spec_example(self):
        # SP 800-22 2.13.8 example (n=100), forward p=0.219194.
        e_bits = bits("11001001000011111101101010100010001000010110100011"
                      "00001000110100110001001100011001100010100010111000")
        result = cumulative_sums(e_bits)
        assert result.extra_p_values["forward"] == pytest.approx(
            0.219194, abs=1e-3)

    def test_random_passes(self, good):
        assert cumulative_sums(good).passes()

    def test_drifting_fails(self):
        rng = np.random.default_rng(10)
        stream = (rng.random(20000) < 0.53).astype(np.uint8)
        assert not cumulative_sums(stream).passes()

    @pytest.mark.parametrize("n", [100, 1000, 10 ** 4, 10 ** 5, 10 ** 6])
    @pytest.mark.parametrize("z_of_n", [
        lambda n: 0.0, lambda n: 1.0, lambda n: 3.0,
        lambda n: 0.5 * np.sqrt(n), lambda n: float(np.sqrt(n)),
        lambda n: 3.0 * np.sqrt(n), lambda n: float(n)],
        ids=["0", "1", "3", "sqrt_n/2", "sqrt_n", "3sqrt_n", "n"])
    def test_p_value_equals_the_norm_cdf_sum(self, n, z_of_n):
        # ``ndtr`` is what ``scipy.stats.norm.cdf`` evaluates: the same
        # sum over ``norm.cdf`` must give the same float, bit for bit.
        from scipy.stats import norm

        z = z_of_n(n)
        expected = 0.0
        if z != 0:
            sqrt_n = np.sqrt(n)
            k_end = int((n / z - 1) // 4)

            def cdf(offset, k_start):
                return norm.cdf(np.array(
                    [(4 * k + offset) * z / sqrt_n
                     for k in range(k_start, k_end + 1)]))

            total = 1.0
            k_start = int((-n / z + 1) // 4)
            for high, low in zip(cdf(1, k_start), cdf(-1, k_start)):
                total -= (high - low)
            k_start = int((-n / z - 3) // 4)
            for high, low in zip(cdf(3, k_start), cdf(1, k_start)):
                total += (high - low)
            expected = float(min(max(total, 0.0), 1.0))
        assert _cusum_p_value(z, n) == expected


class TestExcursions:
    def test_random_behaviour(self, good):
        result = random_excursion(good)
        if result.applicable:
            assert result.passes()
            assert len(result.extra_p_values) == 8
        else:
            assert result.statistics["cycles"] < 500

    def test_variant_random_behaviour(self, good):
        result = random_excursion_variant(good)
        if result.applicable:
            assert result.passes()
            assert len(result.extra_p_values) == 18

    def test_too_few_cycles_inapplicable(self):
        # A heavily drifting walk barely crosses zero.
        rng = np.random.default_rng(11)
        stream = (rng.random(100000) < 0.6).astype(np.uint8)
        result = random_excursion(stream)
        assert not result.applicable


class TestAllTemplatesVariant:
    def test_aperiodic_9bit_count_matches_sts(self):
        from repro.nist.templates import aperiodic_templates
        # The reference STS iterates 148 aperiodic 9-bit templates.
        assert len(aperiodic_templates(9)) == 148

    def test_random_stream_passes_across_templates(self, good):
        from repro.nist.templates import non_overlapping_all_templates
        results = non_overlapping_all_templates(good[:200000],
                                                max_templates=24)
        assert len(results) == 24
        # At alpha = 0.001, all two dozen templates pass a good stream
        # with overwhelming probability.
        assert sum(1 for r in results if r.passes()) >= 23

    def test_each_result_carries_template_id(self, good):
        from repro.nist.templates import non_overlapping_all_templates
        results = non_overlapping_all_templates(good[:100000],
                                                max_templates=3)
        ids = [r.statistics["template"] for r in results]
        assert len(set(ids)) == 3
