"""QUAC executor, the end-to-end TRNG, throughput model, overheads."""

import numpy as np
import pytest

from stream_spec import SpecStream

from repro.core.overheads import OverheadModel
from repro.core.quac import QuacExecutor
from repro.core.throughput import (QuacThroughputModel, TrngConfiguration,
                                   system_throughput_gbps)
from repro.core.trng import QuacTrng
from repro.dram.device import BEST_DATA_PATTERN
from repro.dram.geometry import DramGeometry
from repro.dram.timing import speed_grade
from repro.errors import ConfigurationError, InsufficientEntropyError


@pytest.fixture(scope="module")
def trng(module_m13, entropy_scale):
    return QuacTrng(module_m13, entropy_per_block=256.0 * entropy_scale)


class TestQuacExecutor:
    def test_direct_and_softmc_agree_statistically(self, module_m13,
                                                   small_geometry):
        executor = QuacExecutor(module_m13)
        addr = small_geometry.segment_address(2, 2, 9)
        direct = executor.run_direct(addr, BEST_DATA_PATTERN,
                                     iterations=60)
        softmc = np.stack([
            executor.run_via_softmc(addr, BEST_DATA_PATTERN)
            for _ in range(60)])
        # Per-bitline means agree within binomial noise on average.
        gap = np.abs(direct.mean(axis=0) - softmc.mean(axis=0)).mean()
        assert gap < 0.1

    def test_direct_probabilities_match_device(self, module_m13,
                                               small_geometry):
        executor = QuacExecutor(module_m13)
        addr = small_geometry.segment_address(0, 3, 4)
        np.testing.assert_array_equal(
            executor.probabilities(addr, "0111"),
            module_m13.segment_probabilities(addr, "0111"))

    def test_direct_fresh_randomness_per_call(self, module_m13,
                                              small_geometry):
        executor = QuacExecutor(module_m13)
        addr = small_geometry.segment_address(1, 2, 9)
        a = executor.run_direct(addr, BEST_DATA_PATTERN)
        b = executor.run_direct(addr, BEST_DATA_PATTERN)
        assert not np.array_equal(a, b)

    def test_verify_four_row_activation(self, fresh_module,
                                        small_geometry):
        # The paper's Section 4 confirmation experiment must succeed.
        executor = QuacExecutor(fresh_module)
        addr = small_geometry.segment_address(0, 0, 6)
        assert executor.verify_four_row_activation(addr)


class TestQuacTrng:
    def test_characterization_selects_segments(self, trng):
        assert len(trng.segments) == 4
        assert all(s >= 1 for s in trng.sib_per_bank)

    def test_iteration_output_size(self, trng):
        # One iteration conditions every driven bank's SIBs.
        assert trng.bits_per_iteration == 256 * sum(trng.sib_per_bank)
        assert SpecStream(trng).unit_bits() == trng.bits_per_iteration
        assert trng.iteration_latency_ns > 0

    def test_random_bits_exact_length(self, trng):
        out = trng.random_bits(1000)
        assert out.size == 1000

    def test_pool_carries_over(self, trng):
        first = trng.random_bits(100)
        second = trng.random_bits(100)
        assert not np.array_equal(first, second)

    def test_random_bytes(self, trng):
        assert len(trng.random_bytes(32)) == 32

    def test_output_is_balanced(self, trng):
        stream = trng.random_bits(50000)
        assert abs(stream.mean() - 0.5) < 0.02

    def test_faithful_path_matches_shape(self, trng):
        # The cell-level SoftMC read-out is one row_bits-wide 0/1 row.
        row = trng._faithful_readout(trng.segments[0])
        assert row.shape == (trng.module.geometry.row_bits,)
        assert set(np.unique(row).tolist()) <= {0, 1}

    def test_negative_request_rejected(self, trng):
        with pytest.raises(InsufficientEntropyError):
            trng.random_bits(-1)

    def test_insufficient_entropy_detected(self, module_m13):
        with pytest.raises(InsufficientEntropyError):
            QuacTrng(module_m13, entropy_per_block=1e6)

    def test_rowclone_config_requires_supported_pattern(self, module_m13):
        with pytest.raises(ConfigurationError):
            QuacTrng(module_m13, data_pattern="0101")

    def test_one_bank_configuration(self, module_m13, entropy_scale):
        trng = QuacTrng(module_m13, TrngConfiguration.ONE_BANK,
                        entropy_per_block=256.0 * entropy_scale)
        assert len(trng.segments) == 1
        width = trng.bits_per_iteration
        np.testing.assert_array_equal(trng.random_bits(width),
                                      SpecStream(trng).bits(width))


class TestThroughputModel:
    @pytest.fixture(scope="class")
    def full_geometry(self):
        return DramGeometry.full_scale()

    def test_figure11_ordering(self, timing, full_geometry):
        results = {}
        for config in TrngConfiguration:
            model = QuacThroughputModel(timing, full_geometry, 7, config)
            results[config] = model.throughput_gbps()
        assert results[TrngConfiguration.RC_BGP] > \
            results[TrngConfiguration.BGP] > \
            results[TrngConfiguration.ONE_BANK]

    def test_rc_bgp_near_paper(self, timing, full_geometry):
        # With the population-average 7 SIBs, RC+BGP lands near the
        # paper's 3.44 Gb/s per channel.
        model = QuacThroughputModel(timing, full_geometry, 7,
                                    TrngConfiguration.RC_BGP)
        assert model.throughput_gbps() == pytest.approx(3.44, rel=0.25)

    def test_iteration_latency_near_paper(self, timing, full_geometry):
        # The paper: one iteration takes 1940 ns.
        model = QuacThroughputModel(timing, full_geometry, 7,
                                    TrngConfiguration.RC_BGP)
        assert model.iteration().total_ns == pytest.approx(1940, rel=0.15)

    def test_output_bits_formula(self, timing, full_geometry):
        model = QuacThroughputModel(timing, full_geometry, [5, 6, 7, 8],
                                    TrngConfiguration.RC_BGP)
        assert model.iteration().output_bits == 256 * 26

    def test_bandwidth_scaling_quasi_linear(self, timing, full_geometry):
        model = QuacThroughputModel(timing, full_geometry, 7,
                                    TrngConfiguration.RC_BGP)
        base = model.throughput_gbps()
        fast = model.scaled(12000).throughput_gbps()
        assert 2.0 < fast / base < 5.0   # sub-linear but strong scaling

    def test_sib_validation(self, timing, full_geometry):
        with pytest.raises(ConfigurationError):
            QuacThroughputModel(timing, full_geometry, [1, 2],
                                TrngConfiguration.RC_BGP)
        with pytest.raises(ConfigurationError):
            QuacThroughputModel(timing, full_geometry, 0,
                                TrngConfiguration.ONE_BANK)

    def test_breakdown_phases_sum(self, timing, full_geometry):
        breakdown = QuacThroughputModel(
            timing, full_geometry, 7,
            TrngConfiguration.RC_BGP).iteration()
        assert breakdown.init_ns + breakdown.quac_ns + \
            breakdown.read_ns == pytest.approx(breakdown.total_ns)

    def test_system_scaling(self):
        assert system_throughput_gbps(3.44) == pytest.approx(13.76)
        with pytest.raises(ConfigurationError):
            system_throughput_gbps(1.0, channels=0)


class TestOverheads:
    def test_memory_overhead_matches_paper(self):
        model = OverheadModel()
        # Section 9: 192 KB reserved, 0.002% of an 8 GB module.
        assert model.reserved_bytes() == 192 * 1024
        assert model.reserved_fraction() == pytest.approx(0.002e-2,
                                                          rel=0.2)

    def test_storage_bits_near_paper(self):
        # Paper: 1316 bits; our addressing is slightly more generous.
        bits = OverheadModel().storage_bits()
        assert 1000 < bits < 2200

    def test_area_matches_paper(self):
        model = OverheadModel()
        assert model.total_area_mm2() == pytest.approx(0.0014, abs=0.0003)
        assert model.cpu_area_fraction() < 0.001

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OverheadModel(n_banks=0)
