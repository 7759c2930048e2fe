"""Parallel execution backends: equivalence and determinism properties.

The backends exist to scale the batched engine across cores, but their
contract is stricter than "same distribution": for a fixed module seed,
every backend at every worker count must produce the **bit-identical**
stream the serial reference produces.  This suite is what makes further
parallelization safe to refactor -- any scheduling-order leak into the
output breaks it immediately.
"""

import numpy as np
import pytest

from repro.core.multichannel import SystemTrng
from repro.core.parallel import (BACKEND_ENV_VAR, ProcessPoolBackend,
                                 SerialBackend, ThreadPoolBackend,
                                 available_backends, resolve_backend,
                                 run_bank_task)
from repro.core.remote import RemoteBackend
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_table3_population
from repro.errors import ConfigurationError

#: Worker counts the equivalence contract is exercised at.
WORKER_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def channel_modules(small_geometry):
    """Four distinct channel modules (the reference system's shape)."""
    return build_table3_population(small_geometry,
                                   names=["M13", "M4", "M15", "M1"])


def _fresh_trng(module, small_geometry, backend):
    scale = small_geometry.row_bits / 65536
    return QuacTrng(module, entropy_per_block=256.0 * scale,
                    backend=backend)


def _rows(trng, n):
    """``n`` iterations' worth of ``random_bits``, one row each."""
    return trng.random_bits(n * trng.bits_per_iteration).reshape(n, -1)


class TestBackendEquivalence:
    """Serial == ThreadPool == ProcessPool, bit for bit."""

    @pytest.mark.parametrize("module_fixture", ["module_m13", "module_m4"])
    @pytest.mark.parametrize("n", [1, 3, 7, 29])
    def test_batch_bit_identical_across_backends(self, request,
                                                 small_geometry,
                                                 module_fixture, n):
        module = request.getfixturevalue(module_fixture)
        reference = _rows(_fresh_trng(module, small_geometry,
                                      SerialBackend()), n)
        for backend in (ThreadPoolBackend(2), ProcessPoolBackend(2)):
            with backend:
                bits = _rows(_fresh_trng(module, small_geometry, backend),
                             n)
            np.testing.assert_array_equal(
                bits, reference,
                err_msg=f"{backend!r} diverged from serial at n={n}")

    @pytest.mark.parametrize("backend_cls", [ThreadPoolBackend,
                                             ProcessPoolBackend])
    def test_worker_count_does_not_perturb_stream(self, module_m13,
                                                  small_geometry,
                                                  backend_cls):
        reference = _rows(_fresh_trng(module_m13, small_geometry,
                                      SerialBackend()), 5)
        for workers in WORKER_COUNTS:
            with backend_cls(workers) as backend:
                bits = _rows(_fresh_trng(module_m13, small_geometry,
                                         backend), 5)
            np.testing.assert_array_equal(
                bits, reference,
                err_msg=f"{backend_cls.__name__}({workers}) perturbed "
                        f"the seeded stream")

    def test_random_bits_draw_sequence_identical(self, module_m13,
                                                 small_geometry):
        # Pooled draws of awkward sizes must replay identically: the
        # pool, the batch sizing, and the fan-out all sit between the
        # RNG and the consumer.
        draws = [1, 513, 37, 4096]
        serial = _fresh_trng(module_m13, small_geometry, SerialBackend())
        expected = [serial.random_bits(n) for n in draws]
        for backend in (ThreadPoolBackend(8), ProcessPoolBackend(2)):
            with backend:
                trng = _fresh_trng(module_m13, small_geometry, backend)
                for n, want in zip(draws, expected):
                    np.testing.assert_array_equal(trng.random_bits(n),
                                                  want)

    def test_batch_one_still_matches_iteration(self, module_m13,
                                               small_geometry):
        # The identity survives the fan-out on a process pool: a draw
        # of n iterations' bits is n sequential iterations.
        with ProcessPoolBackend(2) as backend:
            batched = _fresh_trng(module_m13, small_geometry, backend)
            sequential = _fresh_trng(module_m13, small_geometry,
                                     SerialBackend())
            for n in (1, 3, 2):
                for row in _rows(batched, n):
                    want, _ = sequential.iteration()
                    np.testing.assert_array_equal(row, want)


class TestSystemBackendEquivalence:
    """Per-channel shares fan out without touching the stream."""

    def _stream(self, modules, small_geometry, backend, draws):
        scale = small_geometry.row_bits / 65536
        system = SystemTrng(modules, entropy_per_block=256.0 * scale,
                            backend=backend)
        return [system.random_bits(n) for n in draws]

    def test_system_stream_identical_across_backends(self, channel_modules,
                                                     small_geometry):
        draws = [100, 7000, 33]
        expected = self._stream(channel_modules, small_geometry,
                                SerialBackend(), draws)
        for backend in (ThreadPoolBackend(8), ProcessPoolBackend(2)):
            with backend:
                got = self._stream(channel_modules, small_geometry,
                                   backend, draws)
            for want, have in zip(expected, got):
                np.testing.assert_array_equal(have, want)

    def test_bulk_draw_schedules_every_channel(self, channel_modules,
                                               small_geometry):
        scale = small_geometry.row_bits / 65536
        system = SystemTrng(channel_modules,
                            entropy_per_block=256.0 * scale,
                            backend=ThreadPoolBackend(8))
        counters = [sum(t.cursors()) for t in system.channels]
        system.random_bits(4 * system.bits_per_system_iteration())
        advanced = [sum(t.cursors()) - c
                    for t, c in zip(system.channels, counters)]
        assert all(a > 0 for a in advanced)


class TestTaskPlanning:
    """The planned tasks are the serial path, reified."""

    def test_plan_advances_draw_counters_in_bank_order(self, module_m13,
                                                       small_geometry):
        trng = _fresh_trng(module_m13, small_geometry, SerialBackend())
        trng.plan_batch(2)
        before = trng.cursors()
        tasks = trng.plan_batch(3)
        assert len(tasks) == trng.configuration.n_banks
        # Each bank's task starts at its segment's cursor, which then
        # advances by exactly the planned iterations.
        assert [task.first_iteration for task in tasks] == before
        assert trng.cursors() == [c + 3 for c in before]
        # Planning alone fixes the keys: executing the same plan twice
        # gives the same bits (a task is a pure function).
        first = [run_bank_task(task) for task in tasks]
        second = [run_bank_task(task) for task in tasks]
        for a, b in zip(first, second):
            assert a.digests == b.digests

    def test_tasks_carry_raw_only_when_asked(self, module_m13,
                                             small_geometry):
        trng = _fresh_trng(module_m13, small_geometry, SerialBackend())
        plain = run_bank_task(trng.plan_batch(2)[0])
        assert plain.raw is None
        monitored = run_bank_task(trng.plan_batch(2, collect_raw=True)[0])
        assert monitored.raw_matrix().shape == (2, monitored.raw_bits)

    def test_plan_rejects_nonpositive_batch(self, module_m13,
                                            small_geometry):
        trng = _fresh_trng(module_m13, small_geometry, SerialBackend())
        with pytest.raises(ConfigurationError):
            trng.plan_batch(0)


class TestBackendResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_environment_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:3")
        backend = resolve_backend(None)
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers == 3

    def test_spec_string_with_worker_count(self):
        backend = resolve_backend("process:4")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 4

    def test_spec_resolution_is_shared(self):
        assert resolve_backend("thread:2") is resolve_backend("thread:2")

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_known_backends_listed(self):
        assert set(available_backends()) == {"serial", "thread", "process",
                                             "remote"}

    @pytest.mark.parametrize("spec", ["gpu", "thread:zero", "serial:2",
                                      "process:0", 42, "remote",
                                      "remote:0", "remote:host",
                                      "remote:host:notaport",
                                      "remote:host:70000",
                                      "remote:host:0"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            resolve_backend(spec)

    def test_remote_cluster_spec_resolves_lazily(self):
        # Resolution must not spawn workers: the cluster starts on
        # first use, and the spec-resolved instance is shared.
        backend = resolve_backend("remote:3")
        assert isinstance(backend, RemoteBackend)
        assert backend.n_workers == 3
        assert backend._cluster is not None
        assert not backend._cluster.running
        assert resolve_backend("remote:3") is backend

    def test_remote_address_spec_parses_hosts(self):
        backend = resolve_backend("remote:hosta:9123,hostb:9124")
        assert isinstance(backend, RemoteBackend)
        assert backend._addresses == [("hosta", 9123), ("hostb", 9124)]
        assert backend.n_workers == 2


class TestSubmitMap:
    """Backend-specific corners of the one verb, ``submit_round`` (the
    shared contract lives in ``test_backend_conformance.py``)."""

    def test_serial_submit_is_already_done(self):
        pending = SerialBackend().submit_round(_square, [1, 2, 3])
        assert pending.done()
        assert pending.result() == [1, 4, 9]

    def test_single_task_submit_goes_to_pool(self):
        # Even a one-task round leaves the caller's thread: the pool
        # runs it, so the caller can keep planning meanwhile.
        backend = ThreadPoolBackend(2)
        try:
            pending = backend.submit_round(_square, [7])
            assert backend._pool is not None
            assert pending.result() == [49]
        finally:
            backend.close()


def _square(x):
    return x * x
