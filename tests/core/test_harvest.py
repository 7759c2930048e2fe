"""The harvest engine: one refill loop gathering into one pool.

Two families of guarantees:

* **Equivalence** -- ``async_harvest=True`` produces the bit-identical
  stream the synchronous path produces, for any draw sequence, on any
  backend (the golden streams in ``tests/test_determinism.py`` pin the
  same fact end to end);
* **Edge cases** -- draining while a refill is in flight, backend
  teardown with a pending round, a health alarm landing from an
  in-flight round without losing healthy channels' bits, and
  ``REPRO_EXECUTION_BACKEND`` switching mid-process.

Several tests shrink ``MAX_BATCH_ITERATIONS`` so that a draw needs many
rounds -- that is what actually exercises the pipeline (plan round k+1
while round k executes) without multi-megabit draws.
"""

import numpy as np
import pytest

import repro.core.harvest as harvest_module
from repro.core.harvest import AsyncHarvestEngine
from repro.core.health import HealthMonitor, HealthTestFailure
from repro.core.multichannel import SystemTrng
from repro.core.parallel import (BACKEND_ENV_VAR, ProcessPoolBackend,
                                 SerialBackend, ThreadPoolBackend,
                                 resolve_backend, run_bank_task)
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_table3_population
from repro.errors import ConfigurationError, InsufficientEntropyError


def _fresh_trng(module, entropy_scale, backend=None, **kwargs):
    return QuacTrng(module, entropy_per_block=256.0 * entropy_scale,
                    backend=backend or SerialBackend(), **kwargs)


def _fresh_system(small_geometry, entropy_scale, names=("M13", "M4"),
                  backend=None, **kwargs):
    modules = build_table3_population(small_geometry, names=list(names))
    return SystemTrng(modules, entropy_per_block=256.0 * entropy_scale,
                      backend=backend or SerialBackend(), **kwargs)


class TestAsyncEquivalence:
    """async_harvest moves wall-clock time, never a bit."""

    @pytest.mark.parametrize("make_backend, backend_id", [
        (SerialBackend, "serial"),
        (lambda: ThreadPoolBackend(2), "thread"),
        (lambda: ProcessPoolBackend(2), "process"),
    ], ids=["serial", "thread", "process"])
    def test_quac_async_stream_matches_sync(self, module_m13,
                                            entropy_scale, make_backend,
                                            backend_id):
        draws = [1, 513, 37, 4096]
        sync = _fresh_trng(module_m13, entropy_scale)
        expected = [sync.random_bits(n) for n in draws]
        with make_backend() as backend:
            trng = _fresh_trng(module_m13, entropy_scale, backend,
                               async_harvest=True)
            for n, want in zip(draws, expected):
                np.testing.assert_array_equal(
                    trng.random_bits(n), want,
                    err_msg=f"async diverged on {backend_id} at n={n}")

    def test_system_async_stream_matches_sync(self, small_geometry,
                                              entropy_scale):
        sync = _fresh_system(small_geometry, entropy_scale)
        draws = [4096, 3 * sync.bits_per_system_iteration(), 123]
        expected = [sync.random_bits(n) for n in draws]
        with ThreadPoolBackend(4) as backend:
            system = _fresh_system(small_geometry, entropy_scale,
                                   backend=backend, async_harvest=True)
            for n, want in zip(draws, expected):
                np.testing.assert_array_equal(system.random_bits(n), want)

    def test_multi_round_pipeline_matches_sync(self, module_m13,
                                               entropy_scale, monkeypatch):
        # Tiny batches force every draw through many pipelined rounds.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 3)
        sync = _fresh_trng(module_m13, entropy_scale)
        expected = sync.random_bits(20 * sync.bits_per_iteration)
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        got = trng.random_bits(20 * trng.bits_per_iteration)
        np.testing.assert_array_equal(got, expected)
        assert trng.harvest_engine.rounds_planned >= 7

    def test_random_bytes_served_through_engine(self, module_m13,
                                                entropy_scale):
        sync = _fresh_trng(module_m13, entropy_scale)
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        assert trng.random_bytes(96) == sync.random_bytes(96)
        assert trng.harvest_engine.rounds_gathered > 0

    def test_readahead_constant_size_stream_matches_sync(self, module_m13,
                                                         entropy_scale):
        # The documented readahead contract: constant-size request
        # streams (iter_bytes) are still bit-identical to synchronous.
        sync = _fresh_trng(module_m13, entropy_scale)
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        trng.harvest_engine.readahead = True
        stream = trng.iter_bytes(64)
        want = sync.iter_bytes(64)
        for _ in range(8):
            assert next(stream) == next(want)


class TestDoubleBuffer:
    """Serving-pool mechanics around in-flight rounds."""

    def test_drain_while_refill_in_flight(self, module_m13, entropy_scale,
                                          monkeypatch):
        # With readahead on, serving a draw leaves the next round in
        # flight; the consumer drains the pool while that round
        # executes, and the next draw gathers it into the pool.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        sync = _fresh_trng(module_m13, entropy_scale)
        draw = 4 * sync.bits_per_iteration
        expected = [sync.random_bits(draw) for _ in range(4)]
        with ThreadPoolBackend(2) as backend:
            trng = _fresh_trng(module_m13, entropy_scale, backend,
                               async_harvest=True)
            trng.harvest_engine.readahead = True
            first = trng.random_bits(draw)
            # The engine committed the assumed-repeat round already.
            assert trng.harvest_engine.pending_rounds > 0
            assert trng.harvest_engine.in_flight_bits() >= draw
            rest = [trng.random_bits(draw) for _ in range(3)]
        for got, want in zip([first] + rest, expected):
            np.testing.assert_array_equal(got, want)

    def test_drained_front_swaps_with_back_in_place(self, module_m13,
                                                    entropy_scale):
        # Rounds gather straight into the serving pool: random_bits
        # serves from the same BitBuffer object across draws.
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        pool = trng._pool
        trng.random_bits(trng.bits_per_iteration)
        trng.random_bits(8 * trng.bits_per_iteration)
        assert trng._pool is pool

    def test_negative_request_rejected(self, module_m13, entropy_scale):
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        with pytest.raises(InsufficientEntropyError):
            trng.random_bits(-1)

    def test_engine_requires_positive_in_flight_bound(self, module_m13,
                                                      entropy_scale):
        trng = _fresh_trng(module_m13, entropy_scale)
        with pytest.raises(ConfigurationError):
            AsyncHarvestEngine(trng, trng.backend, max_in_flight=0)


class TestTeardown:
    """Pending rounds through close/cancel/drain."""

    def test_backend_close_with_pending_round(self, module_m13,
                                              entropy_scale, monkeypatch):
        # Closing the backend with a round in flight must not hang or
        # lose the round: pooled backends finish submitted work, so the
        # pending result stays joinable and the stream stays intact.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        sync = _fresh_trng(module_m13, entropy_scale)
        draw = 4 * sync.bits_per_iteration
        expected = [sync.random_bits(draw) for _ in range(2)]
        backend = ProcessPoolBackend(2)
        trng = _fresh_trng(module_m13, entropy_scale, backend,
                           async_harvest=True)
        trng.harvest_engine.readahead = True
        first = trng.random_bits(draw)
        assert trng.harvest_engine.pending_rounds > 0
        backend.close()   # round still in flight
        second = trng.random_bits(draw)   # gathers, then rebuilds pool
        backend.close()
        np.testing.assert_array_equal(first, expected[0])
        np.testing.assert_array_equal(second, expected[1])

    def test_cancel_pending_discards_but_recovers(self, module_m13,
                                                  entropy_scale,
                                                  monkeypatch):
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        sync = _fresh_trng(module_m13, entropy_scale)
        draw = 4 * sync.bits_per_iteration
        expected = [sync.random_bits(draw) for _ in range(2)]
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        trng.harvest_engine.readahead = True
        trng.random_bits(draw)
        claimed = trng.cursors()
        assert trng.harvest_engine.pending_rounds > 0
        cancelled = trng.harvest_engine.cancel_pending()
        assert cancelled > 0
        assert trng.harvest_engine.pending_rounds == 0
        assert trng.harvest_engine.rounds_cancelled == cancelled
        # The cancelled rounds' iterations go back to the cursors, so
        # the engine serves them next: the stream equals a run that
        # never cancelled.
        assert trng.cursors()[0] < claimed[0]
        np.testing.assert_array_equal(trng.random_bits(draw), expected[1])

    def test_drain_keeps_planned_entropy(self, module_m13, entropy_scale,
                                         monkeypatch):
        # drain() is the graceful teardown: pending bits pool instead
        # of being discarded, so the stream stays equal to synchronous.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        sync = _fresh_trng(module_m13, entropy_scale)
        draw = 4 * sync.bits_per_iteration
        expected = [sync.random_bits(draw) for _ in range(2)]
        trng = _fresh_trng(module_m13, entropy_scale, async_harvest=True)
        trng.harvest_engine.readahead = True
        first = trng.random_bits(draw)
        assert trng.harvest_engine.pending_rounds > 0
        failure = trng.harvest_engine.drain(trng._pool)
        assert failure is None
        assert trng.harvest_engine.pending_rounds == 0
        second = trng.random_bits(draw)
        np.testing.assert_array_equal(first, expected[0])
        np.testing.assert_array_equal(second, expected[1])


class TestInFlightHealthFailure:
    """Monitor verdicts applied when an in-flight round lands."""

    def _monitored_async_system(self, small_geometry, entropy_scale,
                                backend=None):
        modules = build_table3_population(small_geometry,
                                          names=["M13", "M6"])
        monitors = [HealthMonitor(claimed_min_entropy=0.01,
                                  consecutive_failures_to_alarm=2)
                    for _ in modules]
        system = SystemTrng(modules,
                            entropy_per_block=256.0 * entropy_scale,
                            backend=backend or SerialBackend(),
                            monitors=monitors, async_harvest=True)
        return system, monitors

    def test_failure_from_in_flight_round_keeps_healthy_bits(
            self, small_geometry, entropy_scale):
        with ThreadPoolBackend(4) as backend:
            system, monitors = self._monitored_async_system(
                small_geometry, entropy_scale, backend)
            system.channels[1].data_pattern = "1111"   # channel 1 dead
            with pytest.raises(HealthTestFailure):
                system.random_bits(4 * system.bits_per_system_iteration())
            pooled = len(system._pool)
            assert pooled > 0, "healthy channel's bits were lost"
            # Only channel 0 contributed: whole iterations of its width.
            assert pooled % system.channels[0].bits_per_iteration == 0
            assert monitors[0].rct_failures == 0
            assert monitors[1].rct_failures > 0
            # The surviving pool serves later draws without
            # re-harvesting (and therefore without re-raising).
            counters = [sum(t.cursors())
                        for t in system.channels]
            served = system.random_bits(min(64, pooled))
            assert served.size == min(64, pooled)
            assert [sum(t.cursors())
                    for t in system.channels] == counters

    def test_failure_with_second_round_still_in_flight(
            self, small_geometry, entropy_scale, monkeypatch):
        # Shrink rounds so the alarm lands while another round is
        # genuinely in flight; the queued round must survive the raise
        # and be gathered by the next fill.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 2)
        system, _monitors = self._monitored_async_system(
            small_geometry, entropy_scale)
        system.channels[1].data_pattern = "1111"
        with pytest.raises(HealthTestFailure):
            system.random_bits(8 * system.bits_per_system_iteration())
        engine = system.harvest_engine
        leftover = engine.pending_rounds
        pooled_before = len(system._pool)
        # Draining gathers the queued rounds; their healthy channel's
        # bits pool, their dead channel's alarm is reported, not lost.
        failure = engine.drain(system._pool)
        assert engine.pending_rounds == 0
        if leftover:
            assert failure is not None
            assert len(system._pool) >= pooled_before

    def test_healthy_async_monitored_system_matches_sync(
            self, small_geometry, entropy_scale):
        modules = build_table3_population(small_geometry,
                                          names=["M13", "M6"])
        sync = SystemTrng(modules,
                          entropy_per_block=256.0 * entropy_scale,
                          monitors=[HealthMonitor(claimed_min_entropy=0.01)
                                    for _ in modules])
        n = 3 * sync.bits_per_system_iteration()
        want = sync.random_bits(n)
        system, monitors = self._monitored_async_system(small_geometry,
                                                        entropy_scale)
        np.testing.assert_array_equal(system.random_bits(n), want)
        assert all(m.samples_checked > 0 for m in monitors)


class TestBackendEnvSwitching:
    """REPRO_EXECUTION_BACKEND switching mid-process."""

    def test_generators_follow_env_at_construction(self, module_m13,
                                                   entropy_scale,
                                                   monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        reference = _fresh_trng(module_m13, entropy_scale, backend=None,
                                async_harvest=True)
        want = reference.random_bits(4096)
        # Switch the env mid-process: generators built afterwards run
        # on the new backend; the stream must not move.
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:2")
        switched = QuacTrng(module_m13,
                            entropy_per_block=256.0 * entropy_scale,
                            async_harvest=True)
        assert isinstance(switched.backend, ThreadPoolBackend)
        np.testing.assert_array_equal(switched.random_bits(4096), want)
        monkeypatch.setenv(BACKEND_ENV_VAR, "process:2")
        switched = QuacTrng(module_m13,
                            entropy_per_block=256.0 * entropy_scale,
                            async_harvest=True)
        assert isinstance(switched.backend, ProcessPoolBackend)
        np.testing.assert_array_equal(switched.random_bits(4096), want)

    def test_spec_resolution_stays_shared_after_switch(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:2")
        first = resolve_backend(None)
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:2")
        assert resolve_backend(None) is first


class TestPackedResults:
    """Workers ship packed bytes; gathering never moves a bit."""

    def test_packed_results_assemble_identically(self, module_m13,
                                                 entropy_scale):
        batched = _fresh_trng(module_m13, entropy_scale)
        results = [run_bank_task(task) for task in
                   batched.plan_batch(5, collect_raw=True)]
        for result in results:
            assert len(result.digests) * 8 == 5 * result.digest_bits
            assert len(result.raw) * 8 == 5 * result.raw_bits
        # The packed gather lays banks side by side as bytes; its
        # unpacked view is the per-iteration stream.
        fresh = _fresh_trng(module_m13, entropy_scale)
        sequential = _fresh_trng(module_m13, entropy_scale)
        want = np.vstack([sequential.iteration()[0] for _ in range(5)])
        np.testing.assert_array_equal(
            fresh.random_bits(5 * fresh.bits_per_iteration).reshape(5, -1),
            want)

    def test_packed_monitoring_counts_identically(self, module_m13,
                                                  entropy_scale):
        trng = _fresh_trng(module_m13, entropy_scale)
        results = [run_bank_task(t) for t in
                   trng.plan_batch(4, collect_raw=True)]
        # Reference order: iteration-major, bank-minor raw rows.
        rows = np.stack([r.raw_matrix() for r in results], axis=1)
        a = HealthMonitor(claimed_min_entropy=0.01)
        b = HealthMonitor(claimed_min_entropy=0.01)
        np.testing.assert_array_equal(
            a.check_bank_results(results, 4),
            b.check_many(rows.reshape(4 * len(results), -1)))
        assert a.samples_checked == b.samples_checked


# The equivalence classes above all build *fresh* generators on the
# session-scoped module fixtures; that is safe because QuacTrng owns its
# executor (and iteration cursors) -- the module itself is only read.
