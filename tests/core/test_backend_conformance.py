"""The executable execution-backend contract.

``docs/ARCHITECTURE.md``'s add-a-backend guide states the invariants a
backend must keep; this suite *is* that contract, run against every
registered backend -- serial, thread pool, process pool, and the
remote socket backend on a localhost cluster.  A new backend earns its
registration by appearing in :data:`BACKEND_IDS` and passing
unchanged:

* ``run_round(fn, tasks)`` equals ``[fn(t) for t in tasks]``, in
  order, even when tasks complete out of order;
* ``submit_round(fn, tasks)`` returns a ``PendingResult`` whose
  ``result()`` is that same list (cached, in submission order) -- the
  remote fixtures run it under both wire protocols: per-task
  (``remote``) and round shards (``remote-rounds``);
* a task function's exception propagates (and the backend survives);
* empty task lists complete immediately;
* ``close()`` leaves outstanding ``PendingResult``\\ s joinable and the
  backend transparently rebuilds on next use.

Task functions live at module level so process pools and remote
workers can unpickle them by reference; the remote cluster gets this
directory on its workers' ``sys.path`` for exactly that reason.
"""

import os
import time

import pytest

from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend, available_backends)
from repro.core.remote import LocalCluster, RemoteBackend

#: Every registered backend, by conformance-fixture id.  ``remote``
#: runs the per-task wire protocol, ``remote-rounds`` the round-shard
#: protocol -- same registered backend, both protocol versions held to
#: the same contract.
BACKEND_IDS = ["serial", "thread", "process", "remote", "remote-rounds"]


def _square(x):
    return x * x


def _raise_on_marker(x):
    if x == "boom":
        raise ValueError("marked task")
    return x


def _sleep_inverse(pair):
    """Sleep *longer* for earlier tasks, so completion order inverts
    submission order on any concurrent backend."""
    index, delay_s = pair
    time.sleep(delay_s)
    return index


def _slow_square(x):
    time.sleep(0.05)
    return x * x


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
        built = RemoteBackend(
            cluster=LocalCluster(
                2, extra_sys_paths=[os.path.dirname(__file__)]),
            round_execution=(request.param == "remote-rounds"))
    yield built
    built.close()


def test_every_registered_backend_is_conformance_tested():
    assert {spec.split("-")[0] for spec in BACKEND_IDS} == \
        set(available_backends())


def test_map_matches_builtin_map(backend):
    tasks = list(range(17))
    assert backend.run_round(_square, tasks) == list(map(_square, tasks))


def test_submit_map_result_equals_map(backend):
    # The non-blocking verb and its blocking helper agree.
    tasks = list(range(23))
    pending = backend.submit_round(_square, tasks)
    assert pending.result() == backend.run_round(_square, tasks)
    assert pending.done()


def test_result_is_cached(backend):
    pending = backend.submit_round(_square, [3, 4, 5])
    first = pending.result()
    assert pending.result() is first


def test_ordering_under_out_of_order_completion(backend):
    # Earlier tasks sleep longer, so on any backend with >= 2 workers
    # the *completion* order inverts the submission order; the result
    # list must not -- whether the round goes out task by task or as
    # whole shards.
    tasks = [(index, 0.05 * (4 - index) / 4) for index in range(5)]
    assert backend.run_round(_sleep_inverse, tasks) == list(range(5))


def test_exception_propagates_from_map(backend):
    with pytest.raises(ValueError):
        backend.run_round(_raise_on_marker, [1, "boom", 3])


def test_exception_propagates_from_submit_map(backend):
    # A round whose only task fails: the failure is sticky -- joining
    # again re-raises, same as a concurrent.futures future.
    pending = backend.submit_round(_raise_on_marker, ["boom"])
    with pytest.raises(ValueError):
        pending.result()
    with pytest.raises(ValueError):
        pending.result()


def test_backend_survives_a_task_exception(backend):
    with pytest.raises(ValueError):
        backend.run_round(_raise_on_marker, ["boom"])
    assert backend.run_round(_square, [6]) == [36]


def test_empty_task_list_completes_immediately(backend):
    assert backend.run_round(_square, []) == []


def test_single_task(backend):
    assert backend.run_round(_square, [9]) == [81]


def test_close_with_pending_keeps_result_joinable(backend):
    # close() must wait for submitted work: a PendingResult taken
    # before close stays joinable after it.
    tasks = list(range(6))
    pending = backend.submit_round(_slow_square, tasks)
    backend.close()
    assert pending.result() == [x * x for x in tasks]


def test_backend_rebuilds_after_close(backend):
    # Runs after the close test on the same (module-scoped) backend:
    # a closed backend transparently rebuilds its pool/cluster.
    backend.close()
    assert backend.run_round(_square, [2, 3]) == [4, 9]


# ----------------------------------------------------------------------
# submit_round: the same contract, joined through the PendingResult
# ----------------------------------------------------------------------

def test_submit_round_result_equals_map(backend):
    tasks = list(range(19))
    pending = backend.submit_round(_square, tasks)
    assert pending.result() == list(map(_square, tasks))
    assert pending.done()


def test_run_round_matches_map(backend):
    # The blocking helper batch_iterations uses, over the edge cases.
    tasks = list(range(9))
    assert backend.run_round(_square, tasks) == \
        list(map(_square, tasks))
    assert backend.run_round(_square, []) == []
    assert backend.run_round(_square, [3]) == [9]
    with pytest.raises(ValueError):
        backend.run_round(_raise_on_marker, [1, "boom"])


def test_submit_round_ordering_under_out_of_order_completion(backend):
    # Earlier tasks sleep longer; whether the round goes out as
    # per-task submissions or as whole shards (the remote round
    # protocol), the merged list must stay in submission order.
    tasks = [(index, 0.05 * (4 - index) / 4) for index in range(5)]
    assert backend.submit_round(_sleep_inverse, tasks).result() == \
        list(range(5))


def test_submit_round_exception_at_join(backend):
    # One task raising must not abort the round's other tasks, and
    # the exception surfaces at join -- sticky, like a failed future.
    pending = backend.submit_round(_raise_on_marker, [1, "boom", 3])
    with pytest.raises(ValueError):
        pending.result()
    with pytest.raises(ValueError):
        pending.result()
    # The backend survives a failed round.
    assert backend.submit_round(_square, [5]).result() == [25]


def test_submit_round_empty_round(backend):
    pending = backend.submit_round(_square, [])
    assert pending.done()
    assert pending.result() == []


def test_close_with_pending_round_keeps_result_joinable(backend):
    # An in-flight *round shard* is submitted work like any other:
    # close() waits for it and the handle stays joinable.
    tasks = list(range(6))
    pending = backend.submit_round(_slow_square, tasks)
    backend.close()
    assert pending.result() == [x * x for x in tasks]
    # And the backend still rebuilds for round submissions after close.
    assert backend.submit_round(_square, [7]).result() == [49]
