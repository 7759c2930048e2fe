"""Round-shard fault injection: failures may cost time, never bits.

The remote backend ships whole shards per host, so a dying worker
takes a whole slice of a refill round with it.  This suite injects
exactly those faults and holds the output to the determinism
contract:

* a worker killed mid-shard re-shards the remaining banks onto the
  survivors and the stream replays the serial reference **bit for
  bit**, in sync and async harvest modes, through the plain, the
  monitored, and the temperature-managed generators;
* a health alarm carried by an in-flight round shard still pools the
  healthy channels' bits before re-raising.

Everything here runs against real worker subprocesses
(:class:`~repro.core.remote.LocalCluster`); the wire-level fuzz lives
in ``tests/core/test_remote.py`` and the backend contract in
``tests/core/test_backend_conformance.py``.
"""

import numpy as np
import pytest

import repro.core.harvest as harvest_module
from repro.core.health import HealthMonitor, HealthTestFailure
from repro.core.multichannel import SystemTrng
from repro.core.parallel import SerialBackend
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_module, spec_by_name

GOLDEN_BITS = 4096


def _fresh_trng(module, entropy_scale, backend, **kwargs):
    return QuacTrng(module, entropy_per_block=256.0 * entropy_scale,
                    backend=backend, **kwargs)


@pytest.fixture(scope="module")
def serial_golden(small_geometry, entropy_scale):
    """The serial reference stream every injected fault must replay."""
    module = build_module(spec_by_name("M13"), small_geometry)
    return _fresh_trng(module, entropy_scale,
                       SerialBackend()).random_bits(GOLDEN_BITS)


def _round_backend(n_workers):
    return RemoteBackend(cluster=LocalCluster(n_workers))


def _warm(backend):
    """Open every link (off the clock and, more importantly, *before*
    the fault is injected)."""
    assert all(backend.ping())


class TestKilledWorkerMidShard:
    @pytest.mark.parametrize("async_harvest", [False, True],
                             ids=["sync", "async"])
    def test_reshard_replays_golden_stream(self, small_geometry,
                                           entropy_scale, serial_golden,
                                           async_harvest):
        # Kill one of three hosts with its links warm, then draw the
        # golden stream: the first refill round discovers the death
        # mid-shard, parks the whole slice, and re-shards it onto the
        # survivors -- the merged stream must not move a single bit.
        module = build_module(spec_by_name("M13"), small_geometry)
        with _round_backend(3) as backend:
            _warm(backend)
            backend._cluster._procs[0].kill()
            backend._cluster._procs[0].wait()
            trng = _fresh_trng(module, entropy_scale, backend,
                               async_harvest=async_harvest)
            stream = trng.random_bits(GOLDEN_BITS)
            np.testing.assert_array_equal(stream, serial_golden)
            assert sum(link.dead for link in backend._links) == 1

    def test_kill_between_draws_keeps_stream_exact(self, small_geometry,
                                                   entropy_scale,
                                                   serial_golden):
        # The death lands mid-*stream* with rounds already pooled: the
        # surviving hosts must continue the very same bit sequence.
        module = build_module(spec_by_name("M13"), small_geometry)
        with _round_backend(3) as backend:
            _warm(backend)
            trng = _fresh_trng(module, entropy_scale, backend,
                               async_harvest=True)
            head = trng.random_bits(1000)
            backend._cluster._procs[1].kill()
            backend._cluster._procs[1].wait()
            tail = trng.random_bits(GOLDEN_BITS - 1000)
            np.testing.assert_array_equal(
                np.concatenate([head, tail]), serial_golden)


class TestMonitoredAndTemperatureGenerators:
    def _monitored(self, module, entropy_scale, backend, **kwargs):
        return SystemTrng(
            [module], entropy_per_block=256.0 * entropy_scale,
            backend=backend,
            monitors=[HealthMonitor(claimed_min_entropy=0.01,
                                    consecutive_failures_to_alarm=2)],
            **kwargs)

    @pytest.mark.parametrize("async_harvest", [False, True],
                             ids=["sync", "async"])
    def test_monitored_stream_survives_worker_kill(
            self, small_geometry, entropy_scale, async_harvest):
        draws = [900, 3000, 77]
        module = build_module(spec_by_name("M13"), small_geometry)
        reference = self._monitored(module, entropy_scale,
                                    SerialBackend())
        expected = [reference.random_bits(n) for n in draws]
        with _round_backend(2) as backend:
            _warm(backend)
            monitored = self._monitored(module, entropy_scale, backend,
                                        async_harvest=async_harvest)
            np.testing.assert_array_equal(
                monitored.random_bits(draws[0]), expected[0])
            backend._cluster._procs[0].kill()
            backend._cluster._procs[0].wait()
            for n, want in zip(draws[1:], expected[1:]):
                np.testing.assert_array_equal(monitored.random_bits(n),
                                              want)
        # Re-sharded rounds were monitored exactly once each: the
        # verdict accounting matches the serial reference.
        for stat in ("samples_checked", "rct_failures", "apt_failures"):
            assert getattr(monitored.monitors[0], stat) == \
                getattr(reference.monitors[0], stat), stat

    def test_inflight_shard_alarm_keeps_pooled_bits(
            self, fresh_module, small_geometry, monkeypatch):
        # The PR-4 regression, re-pinned for round shards: an alarm
        # arriving with an in-flight round shard must not destroy
        # conditioned bits the monitor already passed.
        monkeypatch.setattr(harvest_module, "MAX_BATCH_ITERATIONS", 4)
        scale = small_geometry.row_bits / 65536
        with _round_backend(2) as backend:
            _warm(backend)
            monitored = self._monitored(fresh_module, scale, backend,
                                        async_harvest=True)
            monitored.random_bits(monitored.bits_per_system_iteration()
                                  + 7)
            pooled = len(monitored._pool)
            assert pooled > 0
            monitored.channels[0].data_pattern = "1111"   # goes dead
            with pytest.raises(HealthTestFailure):
                monitored.random_bits(50_000)
            # The healthy surplus is still pooled and serves without a
            # new harvest (which would re-raise the alarm).
            assert len(monitored._pool) >= pooled
            served = monitored.random_bits(min(64, pooled))
            assert served.size == min(64, pooled)

    def test_temperature_managed_stream_survives_worker_kill(
            self, small_geometry, entropy_scale):
        module = build_module(spec_by_name("M13"), small_geometry)
        module.temperature_c = 50.0
        reference = TemperatureManagedTrng(
            module, entropy_per_block=256.0 * entropy_scale)
        expected = [reference.random_bits(n) for n in (2000, 2500)]
        with _round_backend(2) as backend:
            _warm(backend)
            managed = TemperatureManagedTrng(
                module, entropy_per_block=256.0 * entropy_scale,
                backend=backend, async_harvest=True)
            np.testing.assert_array_equal(managed.random_bits(2000),
                                          expected[0])
            backend._cluster._procs[1].kill()
            backend._cluster._procs[1].wait()
            np.testing.assert_array_equal(managed.random_bits(2500),
                                          expected[1])
