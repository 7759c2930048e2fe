"""The executable execution-backend contract.

``docs/ARCHITECTURE.md``'s add-a-backend guide states the invariants a
backend must keep; this suite *is* that contract, run against every
registered backend -- serial, thread pool, process pool, and the
remote socket backend on localhost clusters.  A new backend earns its
registration by appearing in :data:`BACKEND_IDS` and passing
unchanged.  Each behaviour is checked once, by one test:

* ``submit_round`` returns a ``PendingResult`` holding one future per
  task, in submission order, whose ``result()`` (cached) equals
  ``[run_bank_task(t) for t in tasks]``, as does the blocking
  ``run_round`` -- even when tasks complete out of order;
* a failing task's exception propagates at join, sticky, from its own
  future alone (its round-mates still land), the round reports
  ``done()``, ``run_round`` raises it too, and the backend survives;
* a task whose block slice is empty, reversed or past the end of its
  row is refused, never served;
* empty task lists complete immediately;
* ``close()`` is idempotent, leaves outstanding ``PendingResult``\\ s
  joinable, and the backend transparently rebuilds on next use.

Every backend runs the one task function the generators submit,
:func:`~repro.core.parallel.run_bank_task`, over small
:class:`~repro.core.parallel.BankTask`\\ s -- the only function a remote
worker runs.  A task whose 257-bit row is not whole bytes is the
failing task: ``run_bank_task`` rejects it with a
``ConfigurationError``, which a remote worker reports back as a
``RemoteExecutionError`` naming it.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.parallel import (BankTask, ProcessPoolBackend,
                                 SerialBackend, ThreadPoolBackend,
                                 available_backends, run_bank_task)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.dram.sense_amplifier import settle_thresholds
from repro.errors import ConfigurationError, RemoteExecutionError
from repro.rng import derive_key

#: Every registered backend, by conformance-fixture id.  ``remote``
#: is a one-host cluster (each round ships as one shard) and
#: ``remote-rounds`` a two-host cluster (each round splits into
#: shards across the hosts).
BACKEND_IDS = ["serial", "thread", "process", "remote", "remote-rounds"]


def _task(index, iterations=2, bits=256, fail=False):
    """A small bank task; ``fail`` gives it a row that is not whole
    bytes."""
    width = bits + 1 if fail else bits
    return BankTask(
        thermal_key=derive_key(2021, "conformance", index),
        thresholds=settle_thresholds(np.linspace(0.1, 0.9, width)),
        iterations=iterations,
        block_slices=((0, bits // 2), (bits // 2, bits)),
        first_iteration=index)


def _tasks(n, **kwargs):
    return [_task(index, **kwargs) for index in range(n)]


def _bits(results):
    """Comparable form of a result list (``BankResult`` has no ==)."""
    return [(r.digests, r.raw, r.iterations, r.digest_bits, r.raw_bits)
            for r in results]


def _expected(tasks):
    return _bits(run_bank_task(task) for task in tasks)


def _failing(values):
    """Tasks where the marker ``"boom"`` stands for a failing task."""
    return [_task(index, fail=value == "boom")
            for index, value in enumerate(values)]


#: What a failing task raises: its own ``ConfigurationError`` in
#: process, a ``RemoteExecutionError`` naming it from a worker.
TASK_FAILURE = dict(expected_exception=(ConfigurationError,
                                        RemoteExecutionError),
                    match="must be whole bytes")


def _inverse_cost(n):
    """Earlier tasks carry more iterations, so completion order
    inverts submission order on any concurrent backend."""
    return [_task(index, iterations=48 * (n - index), bits=4096)
            for index in range(n)]


def _slow(n):
    return _tasks(n, iterations=64, bits=4096)


@pytest.fixture(scope="module", params=BACKEND_IDS)
def backend(request):
    if request.param == "serial":
        yield SerialBackend()
        return
    if request.param == "thread":
        built = ThreadPoolBackend(2)
    elif request.param == "process":
        built = ProcessPoolBackend(2)
    else:
        hosts = 2 if request.param == "remote-rounds" else 1
        built = RemoteBackend(cluster=LocalCluster(hosts))
    yield built
    built.close()


def test_every_registered_backend_is_conformance_tested():
    assert {spec.split("-")[0] for spec in BACKEND_IDS} == \
        set(available_backends())


def test_submit_round_result_equals_map(backend):
    # One future per task, in submission order; the joined list is
    # their results, cached, and the blocking run_round returns the
    # same list -- for a one-task round too.
    for tasks in (_tasks(17), [_task(9)]):
        pending = backend.submit_round(run_bank_task, tasks)
        first = pending.result()
        assert _bits(first) == _expected(tasks)
        assert pending.result() is first
        assert pending.done()
        assert _bits(future.result() for future in pending.futures) == \
            _expected(tasks)
        assert _bits(backend.run_round(run_bank_task, tasks)) == \
            _expected(tasks)


def test_submit_round_ordering_under_out_of_order_completion(backend):
    # Earlier tasks run longer, so on any backend with >= 2 workers the
    # *completion* order inverts the submission order; however the
    # round is split across workers, the result list must not.
    tasks = _inverse_cost(5)
    assert _bits(backend.submit_round(run_bank_task, tasks).result()) \
        == _expected(tasks)


def test_submit_round_exception_at_join(backend):
    # One task raising must not abort the round's other tasks, and
    # the exception surfaces at join -- sticky, like a failed future.
    tasks = _failing([1, "boom", 3])
    pending = backend.submit_round(run_bank_task, tasks)
    with pytest.raises(**TASK_FAILURE) as joined:
        pending.result()
    with pytest.raises(**TASK_FAILURE):
        pending.result()
    first, failed, last = pending.futures
    assert failed.exception() is not None
    assert _bits([first.result(), last.result()]) == \
        _expected([tasks[0], tasks[2]])
    # A round whose only task fails is just as sticky.
    alone = backend.submit_round(run_bank_task, _failing(["boom"]))
    with pytest.raises(**TASK_FAILURE):
        alone.result()
    with pytest.raises(**TASK_FAILURE):
        alone.result()
    # The blocking run_round raises the same error.
    with pytest.raises(**TASK_FAILURE) as ran:
        backend.run_round(run_bank_task, tasks)
    assert type(ran.value) is type(joined.value)
    # The backend survives failed rounds.
    tasks = _tasks(1)
    assert _bits(backend.submit_round(run_bank_task, tasks).result()) \
        == _expected(tasks)


def test_failed_round_reports_done(backend):
    # A round whose task failed is *done with failure* (like a failed
    # future), so a poller waiting on done() terminates.
    pending = backend.submit_round(run_bank_task, _failing(["boom", 2]))
    deadline = time.monotonic() + 30.0
    while not pending.done():
        assert time.monotonic() < deadline, \
            "failed round never reported done()"
        time.sleep(0.01)
    with pytest.raises(**TASK_FAILURE):
        pending.result()


@pytest.mark.parametrize("block_slices", [((128, 128),), ((192, 64),),
                                          ((0, 512),)],
                         ids=["empty", "reversed", "past_the_row"])
def test_slice_outside_its_row_is_refused(backend, block_slices):
    # run_bank_task refuses the task, in process and on a worker
    # alike, so no digest of a truncated slice is served.  The refusal
    # is the bad task's alone: its round-mates are served the serial
    # bytes on every backend, the remote wire included.
    good = _tasks(3)
    bad = dataclasses.replace(good[1], block_slices=block_slices)
    pending = backend.submit_round(run_bank_task, [good[0], bad, good[2]])
    first, failed, last = pending.futures
    with pytest.raises(**TASK_FAILURE):
        failed.result()
    assert _bits([first.result(), last.result()]) == \
        _expected([good[0], good[2]])


def test_submit_round_empty_round(backend):
    pending = backend.submit_round(run_bank_task, [])
    assert pending.done()
    assert pending.result() == []
    assert backend.run_round(run_bank_task, []) == []


def test_close_with_pending_round_keeps_result_joinable(backend):
    # An in-flight round is submitted work like any other: close()
    # waits for it and the handle stays joinable.
    tasks = _slow(6)
    pending = backend.submit_round(run_bank_task, tasks)
    backend.close()
    assert _bits(pending.result()) == _expected(tasks)
    # close() is idempotent, and a closed backend transparently
    # rebuilds its pool or cluster on next use.
    backend.close()
    again = _tasks(2)
    assert _bits(backend.submit_round(run_bank_task, again).result()) \
        == _expected(again)


def test_remote_runs_only_run_bank_task():
    # Workers run nothing but run_bank_task, so any other function is
    # refused at submit -- before a socket is opened (nothing listens
    # on port 1).
    backend = RemoteBackend(addresses=[("127.0.0.1", 1)])
    with pytest.raises(ConfigurationError, match="run_bank_task"):
        backend.submit_round(abs, [-1])
    with pytest.raises(ConfigurationError):
        backend.run_round(lambda task: task, [])
    assert backend.request_count() == 0
    assert backend._links is None
