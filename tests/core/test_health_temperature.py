"""Online health tests and the runtime temperature manager."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.harvest as harvest_module
from repro.core.health import (HealthMonitor, HealthTestFailure,
                               MonitoredTrng, adaptive_proportion_cutoff,
                               repetition_count_cutoff)
from repro.core.parallel import ThreadPoolBackend
from repro.core.temperature_manager import (DEFAULT_RANGES,
                                            TemperatureManagedTrng)
from repro.core.trng import QuacTrng
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import build_module, spec_by_name
from repro.errors import (BitstreamError, CharacterizationError,
                          ConfigurationError)


def _loop_check(monitor: HealthMonitor, matrix: np.ndarray):
    """Reference semantics: one :meth:`check` call per row."""
    verdicts = []
    for row in matrix:
        verdicts.append(monitor.check(row))
    return np.asarray(verdicts, dtype=bool)


def _bit_loop_reference(monitor: HealthMonitor, matrix: np.ndarray):
    """The SP 800-90B tests and accounting as a plain loop over bits.

    Returns ``(verdicts, stats, alarm_row)`` for a fresh ``monitor``'s
    parameters: the verdicts of the rows reached, the lifetime
    statistics after them, and the row that alarms (``None`` if none).
    """
    stats = dict(samples_checked=0, rct_failures=0, apt_failures=0,
                 _consecutive=0)
    window = monitor.window
    verdicts = []
    for index, row in enumerate(matrix.tolist()):
        longest, run, previous = 0, 0, None
        for bit in row:
            run = run + 1 if bit == previous else 1
            previous = bit
            longest = max(longest, run)
        rct_ok = longest < monitor.rct_cutoff
        apt_ok = True
        for start in range(0, len(row) - window + 1, window):
            ones = sum(row[start:start + window])
            if max(ones, window - ones) >= monitor.apt_cutoff:
                apt_ok = False
        stats["samples_checked"] += len(row)
        stats["rct_failures"] += not rct_ok
        stats["apt_failures"] += not apt_ok
        verdicts.append(rct_ok and apt_ok)
        if rct_ok and apt_ok:
            stats["_consecutive"] = 0
            continue
        stats["_consecutive"] += 1
        if stats["_consecutive"] >= monitor.consecutive_failures_to_alarm:
            return verdicts, stats, index
    return verdicts, stats, None


@st.composite
def _planted_rows(draw):
    """Monitor parameters plus rows with a run planted at the RCT
    cutoff and, in some rows, a window planted at the APT cutoff."""
    entropy = draw(st.sampled_from([1.0, 0.9, 0.5, 0.02]))
    window = draw(st.sampled_from([64, 128]))
    alarm = draw(st.integers(1, 4))
    monitor = HealthMonitor(claimed_min_entropy=entropy, window=window,
                            consecutive_failures_to_alarm=alarm)
    cutoff = monitor.rct_cutoff
    # Wide enough for a cutoff + 1 run bounded on both sides, and
    # mostly not a whole number of bytes, so padding follows the row.
    width = 8 * draw(st.integers(cutoff // 8 + 2, cutoff // 8 + 40)) \
        + draw(st.sampled_from([5, 1, 7, 0, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            row = (np.arange(width) % 2).astype(np.uint8)
        else:
            row = rng.integers(0, 2, width, dtype=np.uint8)
        if width >= window and draw(st.booleans()):
            # A window whose dominant value count sits at the cutoff.
            start = window * draw(st.integers(0, width // window - 1))
            value = draw(st.integers(0, 1))
            count = monitor.apt_cutoff - draw(st.integers(0, 1))
            block = np.full(window, 1 - value, dtype=np.uint8)
            block[rng.permutation(window)[:count]] = value
            row[start:start + window] = block
        # A run of cutoff - 1, cutoff or cutoff + 1 bits, flush with
        # either end of the row or at any bit offset within a byte.
        length = cutoff + draw(st.sampled_from([-1, 0, 1]))
        where = draw(st.sampled_from(["end", "start", "offset"]))
        if where == "start":
            first = 0
        elif where == "end":
            first = width - length
        else:
            byte = draw(st.integers(0, (width - length - 8) // 8))
            first = 8 * byte + draw(st.integers(0, 7))
        value = draw(st.integers(0, 1))
        row[first:first + length] = value
        if first > 0:
            row[first - 1] = 1 - value
        if first + length < width:
            row[first + length] = 1 - value
        rows.append(row)
    return monitor, np.stack(rows)


class TestCutoffs:
    def test_rct_cutoff_formula(self):
        # H = 1 bit/sample -> C = 21 at alpha = 2^-20 (the 90B example).
        assert repetition_count_cutoff(1.0) == 21

    def test_rct_cutoff_grows_for_weak_sources(self):
        assert repetition_count_cutoff(0.02) > \
            repetition_count_cutoff(0.5)

    def test_rct_rejects_nonpositive_entropy(self):
        with pytest.raises(ConfigurationError):
            repetition_count_cutoff(0.0)

    def test_apt_cutoff_bounds(self):
        cutoff = adaptive_proportion_cutoff(1.0, window=512)
        # A full-entropy binary source: cutoff near but below the
        # window, above the mean (256).
        assert 256 < cutoff <= 512

    def test_apt_cutoff_looser_for_weak_sources(self):
        assert adaptive_proportion_cutoff(0.1, 512) > \
            adaptive_proportion_cutoff(0.9, 512)


class TestHealthMonitor:
    def test_healthy_source_passes(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9)
        rng = np.random.default_rng(15)
        for _ in range(5):
            assert monitor.check(rng.integers(0, 2, 4096).astype(np.uint8))
        assert monitor.rct_failures == 0
        assert monitor.apt_failures == 0

    def test_stuck_source_alarms(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9,
                                consecutive_failures_to_alarm=2)
        stuck = np.ones(4096, dtype=np.uint8)
        assert monitor.check(stuck) is False
        with pytest.raises(HealthTestFailure):
            monitor.check(stuck)

    def test_single_failure_does_not_alarm(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9,
                                consecutive_failures_to_alarm=2)
        rng = np.random.default_rng(16)
        assert monitor.check(np.ones(4096, dtype=np.uint8)) is False
        # A healthy block resets the streak.
        assert monitor.check(rng.integers(0, 2, 4096).astype(np.uint8))
        assert monitor.check(np.ones(4096, dtype=np.uint8)) is False

    def test_biased_window_trips_apt(self):
        monitor = HealthMonitor(claimed_min_entropy=0.9, window=512,
                                consecutive_failures_to_alarm=10)
        rng = np.random.default_rng(17)
        biased = (rng.random(4096) < 0.95).astype(np.uint8)
        monitor.check(biased)
        assert monitor.apt_failures >= 1

    @pytest.mark.parametrize("entropy", [0.0, -0.5, 1.01, float("nan")])
    def test_rejects_entropy_outside_unit_interval(self, entropy):
        with pytest.raises(ConfigurationError):
            HealthMonitor(claimed_min_entropy=entropy)

    @pytest.mark.parametrize("window", [0, -512, 500, 12, 512.0])
    def test_rejects_window_not_positive_multiple_of_8(self, window):
        with pytest.raises(ConfigurationError):
            HealthMonitor(window=window)

    @pytest.mark.parametrize("alarm", [0, -1])
    def test_rejects_alarm_streak_below_one(self, alarm):
        with pytest.raises(ConfigurationError):
            HealthMonitor(consecutive_failures_to_alarm=alarm)


class TestMonitoredTrng:
    def test_healthy_quac_source_generates(self, module_m13,
                                           entropy_scale):
        trng = QuacTrng(module_m13,
                        entropy_per_block=256.0 * entropy_scale)
        # Credit the raw segment with its conservative per-bit
        # min-entropy (total entropy / row bits).
        monitored = MonitoredTrng(trng, HealthMonitor(
            claimed_min_entropy=0.01))
        stream = monitored.random_bits(5000)
        assert stream.size == 5000
        assert monitored.monitor.samples_checked > 0
        assert monitored.monitor.rct_failures == 0

    def test_dead_segment_is_caught(self, fresh_module, small_geometry):
        # Sabotage: a TRNG whose segment went deterministic (uniform
        # pattern -> no conflict -> no metastability).
        scale = small_geometry.row_bits / 65536
        trng = QuacTrng(fresh_module, entropy_per_block=256.0 * scale)
        trng.data_pattern = "1111"      # post-characterization drift
        monitored = MonitoredTrng(trng, HealthMonitor(
            claimed_min_entropy=0.01, consecutive_failures_to_alarm=2))
        with pytest.raises(HealthTestFailure):
            monitored.random_bits(50000)


class TestCheckMany:
    """The vectorized batch path must be the looped path, faster."""

    WIDTH = 2048

    def _monitor(self, alarm=10):
        return HealthMonitor(claimed_min_entropy=0.9,
                             consecutive_failures_to_alarm=alarm)

    def _crafted_matrix(self):
        """Rows with hand-known verdicts: pass, RCT-fail, pass, APT-fail."""
        rng = np.random.default_rng(91)
        healthy = rng.integers(0, 2, self.WIDTH).astype(np.uint8)
        stuck = np.ones(self.WIDTH, dtype=np.uint8)
        alternating = np.tile([0, 1], self.WIDTH // 2).astype(np.uint8)
        biased = np.tile([1, 1, 1, 1, 1, 1, 1, 0],
                         self.WIDTH // 8).astype(np.uint8)
        return (np.stack([healthy, stuck, alternating, biased]),
                [True, False, True, False])

    def test_agrees_with_looped_check(self):
        matrix, expected = self._crafted_matrix()
        batched, looped = self._monitor(), self._monitor()
        verdicts = batched.check_many(matrix)
        np.testing.assert_array_equal(verdicts, expected)
        np.testing.assert_array_equal(_loop_check(looped, matrix),
                                      expected)
        for stat in ("samples_checked", "rct_failures", "apt_failures",
                     "_consecutive"):
            assert getattr(batched, stat) == getattr(looped, stat), stat

    def test_biased_row_fails_apt_not_rct(self):
        matrix, _ = self._crafted_matrix()
        monitor = self._monitor()
        # Precondition for the crafted row: dominant count 448/512 is
        # beyond the cutoff, while its longest run (7) is far below
        # the RCT cutoff (24 at H=0.9).
        assert 448 >= monitor.apt_cutoff
        assert 7 < monitor.rct_cutoff
        monitor.check_many(matrix[3:4])
        assert monitor.apt_failures == 1
        assert monitor.rct_failures == 0

    def test_rct_boundary_is_exact(self):
        monitor = self._monitor()
        cutoff = monitor.rct_cutoff
        assert cutoff == 24   # 1 + ceil(20 / 0.9)

        def with_run(length):
            row = np.tile([0, 1], self.WIDTH // 2).astype(np.uint8)
            row[100] = 0
            row[101:101 + length] = 1
            row[101 + length] = 0
            return row

        matrix = np.stack([with_run(cutoff - 1), with_run(cutoff)])
        verdicts = monitor.check_many(matrix)
        np.testing.assert_array_equal(verdicts, [True, False])
        assert monitor.rct_failures == 1

    def test_alarm_at_same_row_as_looped_path(self):
        healthy = np.random.default_rng(92).integers(
            0, 2, self.WIDTH).astype(np.uint8)
        stuck = np.ones(self.WIDTH, dtype=np.uint8)
        matrix = np.stack([healthy, stuck, stuck, stuck])
        batched, looped = self._monitor(alarm=2), self._monitor(alarm=2)
        with pytest.raises(HealthTestFailure):
            batched.check_many(matrix)
        with pytest.raises(HealthTestFailure):
            _loop_check(looped, matrix)
        # Both alarmed on row 2; row 3 stayed unreached and uncounted.
        for monitor in (batched, looped):
            assert monitor.samples_checked == 3 * self.WIDTH
            assert monitor.rct_failures == 2
            assert monitor._consecutive == 2
        assert batched.apt_failures == looped.apt_failures

    def test_rct_chunking_does_not_change_verdicts(self):
        # The RCT bounds its temporaries by processing row chunks;
        # force a tiny chunk so one call spans many chunks and compare
        # against a monitor that sees every row in one chunk.
        matrix, expected = self._crafted_matrix()
        chunked = self._monitor()
        chunked._RCT_CHUNK_ELEMENTS = self.WIDTH   # one row per chunk
        whole = self._monitor()
        np.testing.assert_array_equal(chunked.check_many(matrix),
                                      expected)
        np.testing.assert_array_equal(whole.check_many(matrix), expected)
        assert chunked.rct_failures == whole.rct_failures

    def test_single_row_check_unchanged(self):
        row = np.ones(self.WIDTH, dtype=np.uint8)
        monitor = self._monitor()
        assert monitor.check(row) is False
        assert monitor.samples_checked == self.WIDTH
        assert monitor.rct_failures == 1

    def test_one_dimensional_input_is_one_row(self):
        monitor = self._monitor()
        verdicts = monitor.check_many(np.zeros(self.WIDTH, dtype=np.uint8))
        assert verdicts.shape == (1,)

    def test_bad_inputs_rejected(self):
        monitor = self._monitor()
        with pytest.raises(BitstreamError):
            monitor.check_many(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(BitstreamError):
            monitor.check_many(np.full((1, 8), 2, dtype=np.uint8))

    @given(case=_planted_rows(), split=st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_packed_kernel_matches_bit_loop(self, case, split):
        monitor, matrix = case
        verdicts, stats, alarm_row = _bit_loop_reference(monitor, matrix)
        # Two calls, so a failure streak carries across a call boundary.
        got = []
        try:
            for part in (matrix[:split], matrix[split:]):
                got.extend(monitor.check_many(part))
        except HealthTestFailure:
            assert monitor.samples_checked // matrix.shape[1] - 1 == \
                alarm_row
        else:
            assert alarm_row is None
            np.testing.assert_array_equal(got, verdicts)
        for stat, value in stats.items():
            assert getattr(monitor, stat) == value, stat


class TestMonitoredTrngBatched:
    """The batched harvest is the per-iteration harvest, reordered not
    re-judged."""

    def _pair(self, module, entropy_scale, **monitor_kwargs):
        kwargs = dict(claimed_min_entropy=0.01)
        kwargs.update(monitor_kwargs)
        trng = QuacTrng(module, entropy_per_block=256.0 * entropy_scale)
        return MonitoredTrng(trng, HealthMonitor(**kwargs))

    def test_batch_one_matches_iteration(self, module_m13, entropy_scale):
        sequential = self._pair(module_m13, entropy_scale)
        batched = self._pair(module_m13, entropy_scale)
        # A draw of n iterations' bits is n health-checked iterations,
        # with identical monitor accounting.
        width = batched.bits_per_iteration
        for n in (1, 4, 2):
            got = batched.random_bits(n * width).reshape(n, -1)
            for row in got:
                want, _ = sequential.iteration()
                np.testing.assert_array_equal(row, want)
        for stat in ("samples_checked", "rct_failures", "apt_failures"):
            assert getattr(batched.monitor, stat) == \
                getattr(sequential.monitor, stat)

    def test_random_bits_pools_surplus(self, module_m13, entropy_scale):
        monitored = self._pair(module_m13, entropy_scale)
        monitored.random_bits(100)
        counter = sum(monitored.trng.cursors())
        checked = monitored.monitor.samples_checked
        again = monitored.random_bits(100)   # surplus covers this
        assert again.size == 100
        assert sum(monitored.trng.cursors()) == counter
        assert monitored.monitor.samples_checked == checked

    def test_dead_segment_alarm_matches_per_iteration_path(
            self, fresh_module, small_geometry):
        scale = small_geometry.row_bits / 65536
        by_iteration = MonitoredTrng(
            QuacTrng(fresh_module, entropy_per_block=256.0 * scale),
            HealthMonitor(claimed_min_entropy=0.01,
                          consecutive_failures_to_alarm=2))
        by_batch = MonitoredTrng(
            QuacTrng(fresh_module, entropy_per_block=256.0 * scale),
            HealthMonitor(claimed_min_entropy=0.01,
                          consecutive_failures_to_alarm=2))
        by_iteration.trng.data_pattern = "1111"   # drift to deterministic
        by_batch.trng.data_pattern = "1111"
        with pytest.raises(HealthTestFailure):
            for _ in range(8):
                by_iteration.iteration()
        with pytest.raises(HealthTestFailure):
            by_batch.random_bits(50_000)
        # A dead segment fails deterministically, so both paths must
        # reject at the same read-out with identical accounting.
        for stat in ("samples_checked", "rct_failures", "_consecutive"):
            assert getattr(by_batch.monitor, stat) == \
                getattr(by_iteration.monitor, stat), stat


class TestTemperatureManager:
    @pytest.fixture(scope="class")
    def managed(self, module_m13, entropy_scale):
        return TemperatureManagedTrng(
            module_m13, entropy_per_block=256.0 * entropy_scale)

    def test_one_characterization_pass_at_setup(self, managed):
        assert managed.characterization_passes == 1
        assert len(managed.ranges) == len(DEFAULT_RANGES)

    def test_range_selection_follows_sensor(self, managed, module_m13):
        module_m13.temperature_c = 50.0
        low_entry = managed.active_entry()
        module_m13.temperature_c = 85.0
        high_entry = managed.active_entry()
        module_m13.temperature_c = 50.0
        assert low_entry.low_c != high_entry.low_c
        # No re-characterization happened: both ranges were stored.
        assert managed.characterization_passes == 1

    def test_generation_across_a_temperature_swing(self, managed,
                                                   module_m13):
        module_m13.temperature_c = 50.0
        cold = managed.random_bits(4000)
        module_m13.temperature_c = 80.0
        hot = managed.random_bits(4000)
        module_m13.temperature_c = 50.0
        assert abs(cold.mean() - 0.5) < 0.05
        assert abs(hot.mean() - 0.5) < 0.05

    def test_out_of_envelope_triggers_recharacterization(
            self, module_m13, entropy_scale):
        managed = TemperatureManagedTrng(
            module_m13, ranges=[(45.0, 60.0)],
            entropy_per_block=256.0 * entropy_scale)
        module_m13.temperature_c = 70.0
        try:
            entry = managed.active_entry()
            assert entry.covers(70.0)
            assert managed.characterization_passes == 2
        finally:
            module_m13.temperature_c = 50.0

    @pytest.mark.parametrize("reading", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_non_finite_reading_rejected_before_characterizing(
            self, managed, module_m13, reading):
        # A failed sensor must not characterize a range around its
        # reading (nan covers nothing; inf gives an infinite range).
        module_m13.temperature_c = 50.0
        passes, ranges = managed.characterization_passes, managed.ranges
        module_m13.temperature_c = reading
        try:
            with pytest.raises(CharacterizationError,
                               match=f"sensor reads {reading}"):
                managed.random_bits(256)
        finally:
            module_m13.temperature_c = 50.0
        assert managed.characterization_passes == passes
        assert managed.ranges == ranges
        bits = managed.random_bits(4000)
        assert bits.size == 4000
        assert abs(bits.mean() - 0.5) < 0.05

    def test_overlapping_ranges_rejected(self, module_m13, entropy_scale):
        with pytest.raises(ConfigurationError):
            TemperatureManagedTrng(
                module_m13, ranges=[(40.0, 60.0), (55.0, 70.0)],
                entropy_per_block=256.0 * entropy_scale)

    def test_empty_ranges_rejected(self, module_m13, entropy_scale):
        with pytest.raises(ConfigurationError):
            TemperatureManagedTrng(module_m13, ranges=[],
                                   entropy_per_block=256.0 * entropy_scale)

    @pytest.mark.parametrize("ranges", [
        [(float("-inf"), float("inf"))], [(float("nan"), 60.0)],
        [(40.0, float("inf"))]], ids=["-inf..inf", "nan..60", "40..inf"])
    def test_non_finite_ranges_rejected(self, module_m13, entropy_scale,
                                        ranges):
        # Rejected up front, before a characterization at a non-finite
        # centre fails with an unrelated message.
        with pytest.raises(ConfigurationError, match="non-finite"):
            TemperatureManagedTrng(module_m13, ranges=ranges,
                                   entropy_per_block=256.0 * entropy_scale)

    def test_stored_entries_accounting(self, managed):
        assert managed.stored_column_entries() == sum(
            sum(e.trng.sib_per_bank) for e in managed._entries)

    def test_batch_iterations_uses_active_range(self, module_m13,
                                                entropy_scale):
        module_m13.temperature_c = 50.0

        def build():
            return TemperatureManagedTrng(
                module_m13, entropy_per_block=256.0 * entropy_scale)

        fresh, sequential = build(), build()
        active = fresh.active_entry().trng
        width = active.bits_per_iteration
        bits = fresh.random_bits(3 * width).reshape(3, -1)
        assert bits.shape == (3, active.bits_per_iteration)
        for row in bits:
            want, latency = sequential.iteration()
            np.testing.assert_array_equal(row, want)
            assert latency == pytest.approx(active.iteration_latency_ns)
        # Every range reads one shared cursor table, and only the
        # active range's segments advanced.
        assert all(e.trng.executor is fresh.executor
                   for e in fresh._entries)
        segments = {s for e in fresh._entries for s in e.trng.segments}
        assert {s: fresh.executor.cursor(s) for s in segments} == {
            s: 3 if s in active.segments else 0 for s in segments}

    @pytest.mark.parametrize("async_harvest", [False, True],
                             ids=["sync", "async-readahead"])
    def test_temperature_swing_never_replays_an_iteration(self,
                                                          async_harvest):
        # The ranges of one module mostly pick the same segments, so
        # they share thermal keys: a range switch must carry on from
        # the iterations other ranges claimed, never redraw them.  With
        # readahead, each switch hands in-flight rounds back; their
        # units are claimed again, so only gathered rounds count.
        geometry = DramGeometry.small(segments_per_bank=16,
                                      cache_blocks_per_row=4)
        module = build_module(spec_by_name("M13"), geometry)
        managed = TemperatureManagedTrng(
            module, entropy_per_block=256.0 * geometry.row_bits / 65536,
            async_harvest=async_harvest)
        managed.harvest_engine.readahead = async_harvest
        gathered = []
        gather_round = managed.gather_round

        def record(round_, results, pool):
            gathered.extend(round_.tasks)
            return gather_round(round_, results, pool)

        managed.gather_round = record
        entries = managed._entries
        assert set(entries[0].trng.segments) & set(entries[1].trng.segments)
        for temperature in (50.0, 60.0, 50.0, 80.0, 60.0):
            module.temperature_c = temperature
            managed.random_bytes(200 * 32)
        claimed = [(task.thermal_key, k) for task in gathered
                   for k in range(task.first_iteration,
                                  task.first_iteration + task.iterations)]
        assert len({task.thermal_key for task in gathered}) > 1
        assert len(claimed) == len(set(claimed))
        assert (managed.harvest_engine.rounds_cancelled > 0) == async_harvest

    def test_random_bits_pools_surplus(self, managed, module_m13):
        module_m13.temperature_c = 50.0
        managed.random_bits(100)
        assert len(managed._pool) > 0
        counter = sum(managed.active_entry().trng.cursors())
        again = managed.random_bits(100)   # surplus covers this
        assert again.size == 100
        assert sum(managed.active_entry().trng.cursors()) == counter

    def test_pool_flushed_when_range_changes(self, managed, module_m13):
        # Surplus conditioned under one range's plans must not be
        # served once the sensor moves to another range.
        module_m13.temperature_c = 50.0
        managed.random_bits(100)
        low_entry = managed.active_entry()
        assert len(managed._pool) > 0
        try:
            module_m13.temperature_c = 85.0
            high_trng = managed.active_entry().trng
            assert managed.active_entry() is not low_entry
            counter = sum(high_trng.cursors())
            out = managed.random_bits(100)
            assert out.size == 100
            # The stale pool was discarded and the high range harvested.
            assert managed._pool_entry is managed.active_entry()
            assert sum(high_trng.cursors()) > counter
        finally:
            module_m13.temperature_c = 50.0


class TestAsyncWrappers:
    """async_harvest wired through the monitored and temperature-managed
    wrappers: same bits, same verdicts, overlapped with serving."""

    def _monitored(self, module, entropy_scale, **kwargs):
        trng = QuacTrng(module, entropy_per_block=256.0 * entropy_scale)
        return MonitoredTrng(trng, HealthMonitor(
            claimed_min_entropy=0.01, consecutive_failures_to_alarm=2),
            **kwargs)

    def test_monitored_async_stream_matches_sync(self, module_m13,
                                                 entropy_scale):
        draws = [100, 5000, 37]
        sync = self._monitored(module_m13, entropy_scale)
        expected = [sync.random_bits(n) for n in draws]
        with ThreadPoolBackend(2) as backend:
            trng = QuacTrng(module_m13,
                            entropy_per_block=256.0 * entropy_scale,
                            backend=backend)
            monitored = MonitoredTrng(
                trng, HealthMonitor(claimed_min_entropy=0.01,
                                    consecutive_failures_to_alarm=2),
                async_harvest=True)
            for n, want in zip(draws, expected):
                np.testing.assert_array_equal(monitored.random_bits(n),
                                              want)
        assert monitored.harvest_engine.rounds_gathered > 0
        for stat in ("samples_checked", "rct_failures", "apt_failures"):
            assert getattr(monitored.monitor, stat) == \
                getattr(sync.monitor, stat), stat

    def test_monitored_async_inflight_alarm_keeps_pooled_bits(
            self, fresh_module, small_geometry, monkeypatch):
        # The open ROADMAP item's regression: a health alarm landing
        # from an in-flight round must not destroy conditioned bits
        # the monitor already passed in earlier rounds.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        scale = small_geometry.row_bits / 65536
        monitored = self._monitored(fresh_module, scale,
                                    async_harvest=True)
        surplus_draw = monitored.bits_per_iteration + 7
        monitored.random_bits(surplus_draw)      # healthy rounds
        pooled = len(monitored._pool)
        assert pooled > 0                        # surplus survived take
        monitored.trng.data_pattern = "1111"     # segment goes dead
        with pytest.raises(HealthTestFailure):
            monitored.random_bits(50_000)
        # Healthy surplus still pooled, and it serves without any new
        # harvest (which would re-raise).
        assert len(monitored._pool) >= pooled
        counter = sum(monitored.trng.cursors())
        served = monitored.random_bits(min(64, pooled))
        assert served.size == min(64, pooled)
        assert sum(monitored.trng.cursors()) == counter

    def test_monitored_async_alarm_accounting_matches_sync(
            self, fresh_module, small_geometry):
        scale = small_geometry.row_bits / 65536
        sync = self._monitored(fresh_module, scale)
        sync.trng.data_pattern = "1111"
        with pytest.raises(HealthTestFailure):
            sync.random_bits(50_000)
        hybrid = self._monitored(fresh_module, scale, async_harvest=True)
        hybrid.trng.data_pattern = "1111"
        with pytest.raises(HealthTestFailure):
            hybrid.random_bits(50_000)
        # The alarm lands on the same read-out with the same counters:
        # in-flight rounds never gathered are never checked, exactly
        # like rounds the synchronous path never harvested.
        for stat in ("samples_checked", "rct_failures", "_consecutive"):
            assert getattr(hybrid.monitor, stat) == \
                getattr(sync.monitor, stat), stat

    def test_temperature_async_matches_sync_at_steady_range(
            self, module_m13, entropy_scale):
        module_m13.temperature_c = 50.0
        try:
            sync = TemperatureManagedTrng(
                module_m13, entropy_per_block=256.0 * entropy_scale)
            expected = [sync.random_bits(n) for n in (4000, 333)]
            managed = TemperatureManagedTrng(
                module_m13, entropy_per_block=256.0 * entropy_scale,
                async_harvest=True)
            for want in expected:
                np.testing.assert_array_equal(
                    managed.random_bits(want.size), want)
            assert managed.harvest_engine.rounds_gathered > 0
        finally:
            module_m13.temperature_c = 50.0

    def test_temperature_async_range_change_discards_backlog(
            self, module_m13, entropy_scale, monkeypatch):
        # One-iteration rounds + readahead leave rounds genuinely in
        # flight when the sensor moves.  The next draw hands them back
        # to the cursors and drops the old range's pooled surplus.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 1)
        module_m13.temperature_c = 50.0
        try:
            managed = TemperatureManagedTrng(
                module_m13, entropy_per_block=256.0 * entropy_scale,
                async_harvest=True)
            engine = managed.harvest_engine
            engine.readahead = True
            bpi = managed.active_entry().trng.bits_per_iteration
            managed.random_bits(2 * bpi + 7)
            low_entry = managed._pool_entry
            pending = engine.pending_rounds
            assert pending > 0
            module_m13.temperature_c = 85.0
            high_entry = managed.active_entry()
            assert high_entry is not low_entry
            high_bpi = high_entry.trng.bits_per_iteration
            assert len(managed._pool) % high_bpi != 0  # surplus tellable
            out = managed.random_bits(100)
            assert out.size == 100
            assert engine.rounds_cancelled == pending
            assert managed._pool_entry is high_entry
            # Every bit served or pooled since the switch came from
            # whole one-iteration rounds of the high range.
            assert (len(managed._pool) + 100) % high_bpi == 0
        finally:
            module_m13.temperature_c = 50.0
