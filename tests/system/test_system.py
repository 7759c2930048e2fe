"""Synthetic traces, channel simulation, idle-window TRNG injection."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.dram.timing import speed_grade
from repro.errors import ConfigurationError
from repro.system.channel import ChannelActivity, ChannelSimulator
from repro.system.integration import IdleTrngInjector
from repro.system.traces import (SPEC2006_WORKLOADS, WorkloadSpec,
                                 generate_arrivals, workload_by_name)


class TestWorkloads:
    def test_twenty_three_workloads(self):
        # The 23 SPEC2006 workloads of Figure 12.
        assert len(SPEC2006_WORKLOADS) == 23

    def test_lookup(self):
        assert workload_by_name("mcf").mpki == 35.0
        with pytest.raises(KeyError):
            workload_by_name("doom")

    def test_memory_intensity_ordering(self):
        # mcf generates far more traffic than namd.
        assert workload_by_name("mcf").channel_request_rate() > \
            20 * workload_by_name("namd").channel_request_rate()

    def test_mean_gap(self):
        spec = workload_by_name("namd")
        assert spec.mean_gap_ns() == pytest.approx(
            1e9 / spec.channel_request_rate())


class TestArrivals:
    def test_sorted_within_window(self):
        arrivals = generate_arrivals(workload_by_name("milc"), 1e6, seed=1)
        assert (np.diff(arrivals) >= 0).all()
        assert arrivals[-1] < 1e6

    def test_rate_approximately_matches_spec(self):
        spec = workload_by_name("libquantum")
        arrivals = generate_arrivals(spec, 5e6, seed=2)
        measured_rate = arrivals.size / (5e6 / 1e9)
        assert measured_rate == pytest.approx(spec.channel_request_rate(),
                                              rel=0.3)

    def test_deterministic(self):
        spec = workload_by_name("gcc")
        a = generate_arrivals(spec, 1e6, seed=3)
        b = generate_arrivals(spec, 1e6, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_string_hash_salt(self):
        # Python salts ``str`` hashes per process; the trace must not
        # depend on it, or Figure 12 changes from run to run.
        script = ("from repro.system.traces import generate_arrivals, "
                  "workload_by_name\n"
                  "print(generate_arrivals(workload_by_name('mcf'), 1e5, "
                  "seed=3).tolist())")
        outputs = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 10

    def test_burstiness_tracks_row_hit_rate(self):
        # High row locality yields more back-to-back arrivals.
        bursty = WorkloadSpec("bursty", mpki=10, ipc=0.5, row_hit_rate=0.9)
        smooth = WorkloadSpec("smooth", mpki=10, ipc=0.5, row_hit_rate=0.1)
        gaps_bursty = np.diff(generate_arrivals(bursty, 5e6, seed=4))
        gaps_smooth = np.diff(generate_arrivals(smooth, 5e6, seed=4))
        tight = 5.0  # ns
        assert (gaps_bursty < tight).mean() > (gaps_smooth < tight).mean()

    def test_duration_validated(self):
        with pytest.raises(ConfigurationError):
            generate_arrivals(workload_by_name("gcc"), 0.0)


class TestChannelSimulator:
    def test_busy_intervals_ordered_and_clipped(self, timing):
        sim = ChannelSimulator(timing, row_hit_rate=0.5, seed=5)
        arrivals = generate_arrivals(workload_by_name("milc"), 1e5, seed=5)
        activity = sim.simulate(arrivals, 1e5)
        for (s0, e0), (s1, e1) in zip(activity.busy_intervals,
                                      activity.busy_intervals[1:]):
            assert e0 <= s1 + 1e-9
        assert all(e <= 1e5 for _, e in activity.busy_intervals)

    def test_utilization_grows_with_traffic(self, timing):
        sim = ChannelSimulator(timing, seed=6)
        low = sim.simulate(generate_arrivals(
            workload_by_name("namd"), 1e6, seed=6), 1e6)
        high = sim.simulate(generate_arrivals(
            workload_by_name("mcf"), 1e6, seed=6), 1e6)
        assert high.utilization() > low.utilization()

    def test_idle_gaps_complement_busy(self, timing):
        sim = ChannelSimulator(timing, seed=7)
        activity = sim.simulate(generate_arrivals(
            workload_by_name("sphinx3"), 1e5, seed=7), 1e5)
        total = activity.busy_time_ns() + activity.idle_gap_lengths().sum()
        assert total == pytest.approx(1e5, rel=1e-6)

    def test_miss_costs_more_than_hit(self, timing):
        sim = ChannelSimulator(timing)
        assert sim.service_time_ns(row_hit=False) > \
            sim.service_time_ns(row_hit=True)

    def test_row_hit_rate_validated(self, timing):
        with pytest.raises(ConfigurationError):
            ChannelSimulator(timing, row_hit_rate=1.5)


class TestIdleInjection:
    @pytest.fixture(scope="class")
    def injector(self, timing):
        return IdleTrngInjector(timing, peak_trng_gbps_per_channel=3.5)

    def test_restart_overhead_subtracts(self, injector):
        activity = ChannelActivity(
            duration_ns=1000.0, busy_intervals=[(400.0, 500.0)])
        usable = injector.usable_idle_ns(activity)
        # Two gaps (400 and 500 ns), each paying 250 ns overhead.
        assert usable == pytest.approx(150.0 + 250.0)

    def test_short_gaps_contribute_nothing(self, injector):
        activity = ChannelActivity(
            duration_ns=1000.0,
            busy_intervals=[(i * 100.0, i * 100.0 + 60.0)
                            for i in range(10)])
        assert injector.usable_idle_ns(activity) == 0.0

    def test_idle_channel_near_peak(self, injector):
        activity = ChannelActivity(duration_ns=1e6, busy_intervals=[])
        result = injector.evaluate_activity("idle", activity)
        assert result.trng_throughput_gbps == pytest.approx(
            3.5 * 4, rel=0.01)

    def test_figure12_shape(self, injector):
        results = injector.evaluate_all(duration_ns=1e6)
        by_name = {r.workload: r for r in results}
        # Memory-intensive workloads keep the least TRNG throughput.
        assert by_name["mcf"].trng_throughput_gbps < \
            by_name["namd"].trng_throughput_gbps
        # The average bar is appended last.
        assert results[-1].workload == "Average"
        average = results[-1].trng_throughput_gbps
        assert by_name["mcf"].trng_throughput_gbps < average < \
            by_name["namd"].trng_throughput_gbps

    def test_average_usable_fraction_near_paper(self, injector):
        # Paper: 74.13% of the empirical peak on average.
        results = injector.evaluate_all(duration_ns=2e6)
        assert results[-1].usable_idle_fraction == pytest.approx(
            0.7413, abs=0.12)

    def test_peak_validated(self, timing):
        with pytest.raises(ConfigurationError):
            IdleTrngInjector(timing, peak_trng_gbps_per_channel=0.0)


class TestRefresh:
    def test_refresh_occupies_channel_when_idle(self, timing):
        sim = ChannelSimulator(timing, seed=8, model_refresh=True)
        activity = sim.simulate(np.zeros(0), duration_ns=1e6)
        # tRFC per tREFI: ~4.5% utilization from refresh alone.
        expected = timing.tRFC / timing.tREFI
        assert activity.utilization() == pytest.approx(expected, rel=0.1)

    def test_refresh_can_be_disabled(self, timing):
        sim = ChannelSimulator(timing, seed=8, model_refresh=False)
        activity = sim.simulate(np.zeros(0), duration_ns=1e6)
        assert activity.utilization() == 0.0

    def test_refresh_fragments_idle_windows(self, timing):
        with_ref = ChannelSimulator(timing, seed=8, model_refresh=True)
        without = ChannelSimulator(timing, seed=8, model_refresh=False)
        gaps_with = with_ref.simulate(np.zeros(0), 1e6).idle_gap_lengths()
        gaps_without = without.simulate(np.zeros(0), 1e6).idle_gap_lengths()
        assert gaps_with.max() < gaps_without.max()
        # Idle windows between refreshes are ~tREFI - tRFC long.
        assert gaps_with.max() == pytest.approx(
            timing.tREFI - timing.tRFC, rel=0.05)

    def test_refresh_interleaves_with_demand(self, timing):
        sim = ChannelSimulator(timing, seed=9, model_refresh=True)
        arrivals = generate_arrivals(workload_by_name("milc"), 1e6, seed=9)
        with_demand = sim.simulate(arrivals, 1e6)
        refresh_only = sim.simulate(np.zeros(0), 1e6)
        assert with_demand.utilization() > refresh_only.utilization()
