"""The 4-channel system TRNG."""

import numpy as np
import pytest

from stream_spec import SpecStream, unit_bytes

from repro.core.health import HealthMonitor, HealthTestFailure
from repro.core.multichannel import SystemTrng, reference_system
from repro.dram.module_factory import build_table3_population
from repro.errors import ConfigurationError, InsufficientEntropyError


@pytest.fixture(scope="module")
def system(small_geometry, entropy_scale):
    modules = build_table3_population(small_geometry,
                                      names=["M13", "M4", "M15", "M1"])
    return SystemTrng(modules, entropy_per_block=256.0 * entropy_scale)


class TestSystemTrng:
    def test_four_channels(self, system):
        assert system.n_channels == 4

    def test_system_throughput_is_channel_sum(self, system):
        assert system.system_throughput_gbps() == pytest.approx(
            sum(t.throughput_gbps() for t in system.channels))

    def test_bits_per_system_iteration(self, system):
        assert system.bits_per_system_iteration() == \
            sum(t.bits_per_iteration for t in system.channels)

    def test_worst_channel_gates_latency(self, system):
        worst = system.worst_channel_latency_ns()
        assert all(t.iteration_latency_ns <= worst
                   for t in system.channels)

    def test_random_bits_round_robin(self, system):
        out = system.random_bits(10_000)
        assert out.size == 10_000
        assert abs(out.mean() - 0.5) < 0.05

    def test_random_bytes(self, system):
        assert len(system.random_bytes(64)) == 64

    def test_surplus_bits_are_pooled_not_discarded(self, system):
        # A draw leaves the iteration surplus in the pool; the next
        # draw must be served from it without touching the hardware.
        system.random_bits(100)   # leaves a large surplus pooled
        assert len(system._pool) > 0
        counters = [sum(t.cursors()) for t in system.channels]
        again = system.random_bits(200)
        assert again.size == 200
        assert [sum(t.cursors())
                for t in system.channels] == counters

    def test_consecutive_draws_are_distinct(self, system):
        first = system.random_bits(2000)
        second = system.random_bits(2000)
        assert not np.array_equal(first, second)

    def test_bulk_draw_batches_across_channels(self, system):
        # A request far beyond one system iteration must spread over
        # every channel (each batches its fair share).
        system._pool.clear()
        counters = [sum(t.cursors()) for t in system.channels]
        bulk = system.random_bits(6 * system.bits_per_system_iteration())
        assert bulk.size == 6 * system.bits_per_system_iteration()
        advanced = [sum(t.cursors()) - c
                    for t, c in zip(system.channels, counters)]
        assert all(a > 0 for a in advanced)

    def test_iter_bytes_streams_chunks(self, system):
        stream = system.iter_bytes(32)
        chunks = [next(stream) for _ in range(3)]
        assert all(len(c) == 32 for c in chunks)
        assert len(set(chunks)) == 3

    def test_iter_bytes_validates_chunk_size(self, system):
        with pytest.raises(ConfigurationError):
            next(system.iter_bytes(0))

    def test_channels_produce_distinct_streams(self, system):
        spec = SpecStream(system)
        a, b = (unit_bytes(banks, 0) for banks in spec.channels[:2])
        n = min(len(a), len(b))
        assert a[:n] != b[:n]

    def test_negative_request_rejected(self, system):
        with pytest.raises(InsufficientEntropyError):
            system.random_bits(-5)

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemTrng([])


class TestMonitoredSystem:
    """Per-channel health monitoring over the batched system harvest."""

    def _monitored_system(self, small_geometry, entropy_scale,
                          names=("M13", "M6")):
        modules = build_table3_population(small_geometry,
                                          names=list(names))
        monitors = [HealthMonitor(claimed_min_entropy=0.01,
                                  consecutive_failures_to_alarm=2)
                    for _ in modules]
        system = SystemTrng(modules,
                            entropy_per_block=256.0 * entropy_scale,
                            monitors=monitors)
        return system, monitors

    def test_monitor_count_must_match_channels(self, small_geometry,
                                               entropy_scale):
        modules = build_table3_population(small_geometry,
                                          names=["M13", "M6"])
        with pytest.raises(ConfigurationError):
            SystemTrng(modules, entropy_per_block=256.0 * entropy_scale,
                       monitors=[HealthMonitor(claimed_min_entropy=0.01)])

    def test_healthy_monitored_system_generates(self, small_geometry,
                                                entropy_scale):
        system, monitors = self._monitored_system(small_geometry,
                                                  entropy_scale)
        stream = system.random_bits(
            3 * system.bits_per_system_iteration())
        assert abs(stream.mean() - 0.5) < 0.05
        assert all(m.samples_checked > 0 for m in monitors)
        assert all(m.rct_failures == 0 for m in monitors)

    def test_failed_channel_keeps_healthy_channels_pooled_bits(
            self, small_geometry, entropy_scale):
        # The regression this guards: a HealthTestFailure raised for
        # one channel mid-batch must not discard bits that healthy
        # channels already contributed to the pool in the same round.
        system, monitors = self._monitored_system(small_geometry,
                                                  entropy_scale)
        system.channels[1].data_pattern = "1111"   # channel 1 goes dead
        with pytest.raises(HealthTestFailure):
            system.random_bits(4 * system.bits_per_system_iteration())
        pooled = len(system._pool)
        assert pooled > 0, "healthy channel's bits were lost"
        # Only the healthy channel contributed: pooled bits come in
        # whole iterations of channel 0.
        assert pooled % system.channels[0].bits_per_iteration == 0
        assert monitors[0].rct_failures == 0
        assert monitors[1].rct_failures > 0
        # The surviving pool serves later draws without re-harvesting
        # (and therefore without re-raising).
        counters = [sum(t.cursors()) for t in system.channels]
        served = system.random_bits(min(64, pooled))
        assert served.size == min(64, pooled)
        assert [sum(t.cursors())
                for t in system.channels] == counters

    def test_unmonitored_entries_allowed(self, small_geometry,
                                         entropy_scale):
        modules = build_table3_population(small_geometry,
                                          names=["M13", "M6"])
        system = SystemTrng(
            modules, entropy_per_block=256.0 * entropy_scale,
            monitors=[HealthMonitor(claimed_min_entropy=0.01), None])
        system.channels[1].data_pattern = "1111"   # dead but unwatched
        out = system.random_bits(2 * system.bits_per_system_iteration())
        assert out.size == 2 * system.bits_per_system_iteration()


class TestReferenceSystem:
    def test_requires_four_channels(self, module_m4):
        with pytest.raises(ConfigurationError):
            reference_system([module_m4])

    def test_small_scale_reference(self, small_geometry, entropy_scale):
        modules = build_table3_population(
            small_geometry, names=["M13", "M4", "M15", "M1"])
        system = reference_system(modules,
                                  entropy_per_block=256.0 * entropy_scale)
        assert system.n_channels == 4
        assert system.system_throughput_gbps() > 0
