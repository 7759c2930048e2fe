"""Sharded multi-host generation: the remote execution backend.

QUAC-TRNG's throughput scales with the module population, and the
ROADMAP's next lever past one machine is *distributed* generation: many
worker hosts, each owning a slice of the bank tasks of every refill
round, shipping packed byte pools back for merging.  This module is
that backend:

* :class:`RemoteBackend` -- a full
  :class:`~repro.core.parallel.ExecutionBackend` (``submit_round``
  returning a ``PendingResult``, idempotent ``close``) that fans tasks
  out to worker hosts over the length-prefixed pickle protocol of
  :mod:`repro.core.remote.wire`;
* :mod:`repro.core.remote.worker` -- the loop a host runs to serve
  tasks (``python -m repro.core.remote.worker --port N``);
* :class:`LocalCluster` -- N worker subprocesses on localhost, for
  tests, CI, and single-machine multi-process deployments without a
  fork-based pool.

**Shard map.**  Each round's task list is partitioned across workers
by :func:`shard_map`: a contiguous, iteration-weighted split computed
*serially in the client, in task order* -- so a round planned
channel-major keeps each channel's banks on one host where balance
allows, and the partition is a pure function of the round, never of
which worker answered first.  The backend memoizes the plan keyed on
the task signature (weights and live-worker count), so steady-state
refills -- identical bank lists round after round -- skip the
recompute and invalidate automatically when a bank's iteration
weight changes.  Because every
:class:`~repro.core.parallel.BankTask` is a pure function of itself
and results are merged in submission order, the assembled stream is
**bit-identical to the serial reference regardless of host count,
worker loss ordering, or result arrival order** -- the same contract
the thread and process pools honor, held to by
``tests/core/test_backend_conformance.py`` and the golden streams in
``tests/test_determinism.py``.

**Round execution.**  With ``round_execution=True`` (spec suffix
``+rounds``) each shard ships *whole*: one
:class:`~repro.core.remote.wire.RoundShard` message per host carries
the host's contiguous slice of the round, the worker loops the slice
locally, and one ``round_result`` frame comes back -- so a 16-bank
round on a 3-host cluster costs 3 socket round trips instead of 16.
The protocol is negotiated per link through the ``hello`` handshake;
a per-task-only (version 1) worker transparently falls back to task
shipping, and either protocol produces the same bits (pinned by
``tests/core/test_remote_rounds.py`` and the round-protocol golden
replays in ``tests/test_determinism.py``).

**Failure model.**  A worker whose connection dies is marked dead and
its unfinished tasks are requeued onto surviving workers (the tasks
are stateless, so re-execution reproduces the exact result the dead
worker would have shipped); under round execution the requeue
re-shards the *remaining* banks into fresh round shards across the
survivors.  Only when *every* worker has failed does
:class:`~repro.errors.RemoteExecutionError` surface.  A task function
that raises is not a dead worker: its exception ships back and
re-raises in the client.

Select the backend like any other: ``backend=RemoteBackend(...)``, or
``REPRO_EXECUTION_BACKEND=remote:2`` (a 2-worker
:class:`LocalCluster`) / ``remote:host1:9123,host2:9123`` (explicit
hosts); append ``+rounds`` to either form (``remote:2+rounds``) for
round-shard execution -- see
:func:`repro.core.parallel.resolve_backend`.

.. warning::
   **Trusted networks only.**  The protocol is pickle over plain TCP:
   connecting to a worker means being able to execute code on it, and
   unpickling a worker's replies means trusting the worker.  Keep
   workers on localhost or an isolated, trusted segment (see the
   :mod:`repro.core.remote.worker` warning); TLS/authentication is a
   ROADMAP item.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.parallel import (CompletedResult, ExecutionBackend,
                                 PendingResult)
from repro.core.remote import wire
from repro.errors import ConfigurationError, RemoteExecutionError

#: Seconds allowed for a TCP connect to a worker host.
CONNECT_TIMEOUT_S = 10.0

#: Seconds allowed for a LocalCluster worker subprocess to announce its
#: port (covers a cold python + numpy import on a loaded machine).
SPAWN_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# The shard map
# ----------------------------------------------------------------------

def shard_map(weights: Sequence[int], n_shards: int) -> List[List[int]]:
    """Partition task indices into up to ``n_shards`` contiguous runs.

    ``weights[i]`` is task ``i``'s relative cost (the backend uses the
    task's ``iterations``); a greedy fill closes each shard once it
    has reached its fair share of the remaining weight, so shards
    carry near-equal weight while staying *contiguous in task order*
    -- a channel-major round therefore keeps each channel's banks
    together where balance allows.  Every returned shard is non-empty
    (a very heavy head task simply leaves later shards unused).
    Deterministic: a pure function of the weights, computed serially
    in the client.

    >>> shard_map([1, 1, 1, 1], 2)
    [[0, 1], [2, 3]]
    >>> shard_map([4, 1, 1], 3)       # heavy head task gets a shard
    [[0], [1], [2]]
    >>> shard_map([1, 1, 4], 2)       # heavy tail task gets one too
    [[0, 1], [2]]
    >>> shard_map([1, 1], 4)          # never more shards than tasks
    [[0], [1]]
    """
    if n_shards < 1:
        raise ConfigurationError(
            f"shard count must be positive, got {n_shards}")
    if not weights:
        return []
    n_shards = min(n_shards, len(weights))
    shards: List[List[int]] = [[]]
    remaining_total = sum(weights)
    remaining_shards = n_shards
    current_weight = 0
    for index, weight in enumerate(weights):
        shards[-1].append(index)
        current_weight += weight
        tasks_left = len(weights) - index - 1
        if len(shards) < n_shards and tasks_left > 0 and (
                # Fair share reached...
                current_weight * remaining_shards >= remaining_total
                # ...or every later task must open a shard of its own
                # (keeps tail-heavy rounds from collapsing onto one
                # worker).
                or tasks_left == n_shards - len(shards)):
            remaining_total -= current_weight
            remaining_shards -= 1
            current_weight = 0
            shards.append([])
    return shards


def task_weights(tasks: Sequence) -> List[int]:
    """Relative shard weights of a task list (``iterations``, else 1)."""
    return [max(1, int(getattr(task, "iterations", 1) or 1))
            for task in tasks]


# ----------------------------------------------------------------------
# One worker host
# ----------------------------------------------------------------------

def _reply_kind(reply) -> Optional[str]:
    """The kind marker of a well-formed message tuple, else ``None``.

    Every reply a link reads gets its shape checked through this
    before any element is indexed: a peer shipping a non-tuple, an
    empty tuple, or a bare kind marker has violated the protocol, and
    that must read as a dead link -- never as an ``IndexError`` deep
    in a dispatch.
    """
    if isinstance(reply, tuple) and reply:
        return reply[0]
    return None

class _WorkerLink:
    """A persistent, lock-serialized connection to one worker host."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.dead = False
        #: Request/response exchanges completed or attempted on this
        #: link (tasks, rounds, pings, handshakes) -- the round-trip
        #: accounting the protocol benchmark reads.
        self.requests = 0
        #: Negotiated wire protocol version; ``None`` until the first
        #: ``hello`` handshake on the current connection.
        self.protocol: Optional[int] = None
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        host, port = self.address
        sock = socket.create_connection((host, port),
                                        timeout=CONNECT_TIMEOUT_S)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def run_task(self, fn: Callable, task) -> object:
        """One request/response round trip; raises on transport death.

        A transport failure marks the link dead and raises
        :class:`~repro.core.remote.wire.ConnectionClosed`; a task
        function that raised on the worker re-raises here as
        :class:`_TaskFailed` wrapping the shipped exception.
        """
        with self._lock:
            if self.dead:
                raise wire.ConnectionClosed(
                    f"worker {self.address} is marked dead")
            try:
                if self._sock is None:
                    self._sock = self._connect()
                self.requests += 1
                wire.send_frame(self._sock, (wire.TASK, fn, task))
                reply = wire.recv_frame(self._sock)
            except (OSError, RemoteExecutionError) as exc:
                # Any transport *or* protocol failure (truncated
                # stream, absurd header, unloadable reply) leaves the
                # connection desynchronized: the link is dead either
                # way.  Note ``send_frame`` pickles before sending, so
                # an unpicklable fn/task raises its own error here
                # with the connection still clean -- that one is the
                # caller's bug, not a dead worker, and falls through.
                self._mark_dead_locked()
                raise wire.ConnectionClosed(
                    f"worker {self.address} failed: {exc}")
        kind = _reply_kind(reply)
        if kind == wire.RESULT and len(reply) > 1:
            return reply[1]
        if kind == wire.ERROR and len(reply) > 1:
            raise _TaskFailed(reply[1])
        with self._lock:
            self._mark_dead_locked()
        raise wire.ConnectionClosed(
            f"worker {self.address} sent unexpected reply {reply!r}")

    def _handshake_locked(self) -> None:
        """Learn the worker's protocol version (caller holds the lock).

        Sends one ``hello`` and caches the negotiated version for the
        connection's lifetime.  A version-2+ worker answers with its
        version; a version-1 worker answers with an ``error``
        ("unknown message kind") over the still-synchronized
        connection, which *is* its version statement -- so negotiation
        needs no worker-side support to detect old workers.  Anything
        else is a protocol violation and raises (the caller's
        transport clause marks the link dead).
        """
        self.requests += 1
        wire.send_frame(self._sock, (wire.HELLO, wire.PROTOCOL_VERSION))
        reply = wire.recv_frame(self._sock)
        kind = _reply_kind(reply)
        if kind == wire.HELLO:
            try:
                version = int(reply[1])
            except (IndexError, TypeError, ValueError):
                raise RemoteExecutionError(
                    f"worker {self.address} answered the version "
                    f"handshake with a malformed hello {reply!r}")
            self.protocol = max(1, min(wire.PROTOCOL_VERSION, version))
        elif kind == wire.ERROR:
            self.protocol = 1
        else:
            raise RemoteExecutionError(
                f"worker {self.address} answered the version handshake "
                f"with reply kind {kind!r}")

    def run_round(self, fn: Callable,
                  shard: wire.RoundShard) -> List[Tuple[str, object]]:
        """One whole-shard round trip; returns the per-task slot list.

        Ships the shard in a single ``round`` message and reads back
        one ``round_result`` frame of ``(SLOT_OK, result)`` /
        ``(SLOT_ERROR, exception)`` slots in task order.  Raises
        :class:`_RoundsUnsupported` when the negotiated protocol
        predates round execution -- the caller then falls back to
        per-task shipping on the same (healthy) connection.  Transport
        or protocol failures (including a malformed slot list) mark
        the link dead, exactly as in :meth:`run_task`; a top-level
        ``error`` reply means the worker rejected the shard itself
        (e.g. it could not unpickle the frame) and raises
        :class:`_TaskFailed` against every task in the shard.
        """
        with self._lock:
            if self.dead:
                raise wire.ConnectionClosed(
                    f"worker {self.address} is marked dead")
            try:
                if self._sock is None:
                    self._sock = self._connect()
                if self.protocol is None:
                    self._handshake_locked()
                if self.protocol < wire.ROUND_PROTOCOL_VERSION:
                    raise _RoundsUnsupported(self.address)
                self.requests += 1
                wire.send_frame(self._sock, (wire.ROUND, fn, shard))
                reply = wire.recv_frame(self._sock)
            except _RoundsUnsupported:
                raise
            except (OSError, RemoteExecutionError) as exc:
                self._mark_dead_locked()
                raise wire.ConnectionClosed(
                    f"worker {self.address} failed: {exc}")
        kind = _reply_kind(reply)
        if kind == wire.ROUND_RESULT:
            slots = reply[1] if len(reply) > 1 else None
            if not wire.valid_round_slots(slots, len(shard.tasks)):
                with self._lock:
                    self._mark_dead_locked()
                raise wire.ConnectionClosed(
                    f"worker {self.address} returned a malformed "
                    f"round result for a {len(shard.tasks)}-task shard")
            return list(slots)
        if kind == wire.ERROR and len(reply) > 1:
            raise _TaskFailed(reply[1])
        with self._lock:
            self._mark_dead_locked()
        raise wire.ConnectionClosed(
            f"worker {self.address} sent unexpected reply {reply!r}")

    def ping(self) -> bool:
        """True when the worker answers a ping (marks dead when not)."""
        with self._lock:
            if self.dead:
                return False
            try:
                if self._sock is None:
                    self._sock = self._connect()
                self.requests += 1
                wire.send_frame(self._sock, (wire.PING,))
                if _reply_kind(wire.recv_frame(self._sock)) == wire.PONG:
                    return True
                # Anything but a pong means the stream is
                # desynchronized: dead link, like every other
                # unexpected reply.
                self._mark_dead_locked()
                return False
            except (OSError, RemoteExecutionError):
                # Same taxonomy as run_task: transport *or* protocol
                # failure means a desynchronized link -- dead, not an
                # exception out of a bool-returning probe.
                self._mark_dead_locked()
                return False

    def _mark_dead_locked(self) -> None:
        self.dead = True
        # A future reconnection may reach a different (respawned)
        # worker build; renegotiate the protocol then.
        self.protocol = None
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def close(self) -> None:
        with self._lock:
            self.protocol = None
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def revive(self) -> None:
        """Forget a dead verdict so the next use reconnects."""
        with self._lock:
            self.dead = False


class _TaskFailed(Exception):
    """Internal: the task *function* raised on the worker."""

    def __init__(self, exception: BaseException) -> None:
        super().__init__(repr(exception))
        self.exception = exception


class _RoundsUnsupported(Exception):
    """Internal: the link's negotiated protocol predates round
    execution; the dispatch falls back to per-task shipping.  Not a
    :class:`~repro.errors.RemoteExecutionError` on purpose -- it must
    never be mistaken for (or swallowed as) a transport failure."""


# ----------------------------------------------------------------------
# An in-flight round
# ----------------------------------------------------------------------

_OK = "ok"
_RAISE = "raise"


class _RemoteDispatch(PendingResult):
    """One ``submit_round`` in flight across the links.

    Primary assignment follows the shard map (one sender thread per
    shard, so workers execute concurrently); a shard whose worker dies
    parks its unfinished indices, and :meth:`result` requeues them onto
    surviving workers.  Results land slot-per-index, so merge order is
    submission order whatever the arrival order was.

    With ``use_rounds`` each shard ships as one
    :class:`~repro.core.remote.wire.RoundShard` message (one round
    trip per worker instead of one per task); a link whose negotiated
    protocol predates rounds falls back to per-task shipping on the
    same connection, and the requeue path re-shards a dead worker's
    remaining tasks into fresh round shards across the survivors.
    Either protocol fills the same slots with the same values.
    """

    def __init__(self, fn: Callable, tasks: List,
                 links: List[_WorkerLink],
                 on_finish: Callable[["_RemoteDispatch"], None],
                 use_rounds: bool = False,
                 shard_plan: Optional[Callable[[Sequence[int], int],
                                               List[List[int]]]] = None
                 ) -> None:
        self._fn = fn
        self._tasks = tasks
        self._links = links
        self._on_finish = on_finish
        self._use_rounds = use_rounds
        self._shard_plan = shard_plan if shard_plan is not None \
            else shard_map
        self._slots: List[Optional[Tuple[str, object]]] = \
            [None] * len(tasks)
        self._leftover: List[int] = []
        self._transport_error: Optional[BaseException] = None
        self._threads: List[threading.Thread] = []
        self._unsettled = 0
        self._lock = threading.Lock()
        self._result_lock = threading.Lock()
        self._results: Optional[List] = None
        self._fatal: Optional[BaseException] = None
        self._finished = False

    def start(self) -> None:
        live = [link for link in self._links if not link.dead]
        if not live:
            # Every worker failed earlier; give them one reconnection
            # chance rather than failing a fresh round outright.
            for link in self._links:
                link.revive()
            live = list(self._links)
        shards = self._shard_plan(task_weights(self._tasks), len(live))
        self._unsettled = len([s for s in shards if s])
        for link, indices in zip(live, shards):
            if not indices:
                continue
            thread = threading.Thread(target=self._run_shard,
                                      args=(link, indices), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _execute(self, link: _WorkerLink, indices: List[int]) -> None:
        """Run tasks on one link -- as one round shard where the
        negotiated protocol allows, task by task otherwise."""
        if self._use_rounds:
            try:
                self._run_round(link, indices)
                return
            except _RoundsUnsupported:
                pass  # version-1 worker: per-task on the same link
        self._run_indices(link, indices)

    def _run_round(self, link: _WorkerLink, indices: List[int]) -> None:
        """Ship one whole shard; park every index if the link dies.

        The reply is all-or-nothing (one ``round_result`` frame), so a
        transport death mid-shard parks the *entire* slice for the
        requeue pass -- re-execution on a survivor reproduces the
        exact results the dead worker would have shipped.
        """
        shard = wire.RoundShard(
            start=indices[0],
            tasks=tuple(self._tasks[index] for index in indices))
        try:
            slots = link.run_round(self._fn, shard)
        except _TaskFailed as failed:
            # The worker rejected the shard itself (e.g. could not
            # unpickle the frame): that is every shipped task's
            # failure, exactly as per-task shipping would record it.
            for index in indices:
                self._slots[index] = (_RAISE, failed.exception)
            return
        except _RoundsUnsupported:
            raise
        except (RemoteExecutionError, OSError) as exc:
            with self._lock:
                self._leftover.extend(
                    index for index in indices
                    if self._slots[index] is None)
                self._transport_error = exc
            return
        except Exception as exc:
            # Not a transport failure: e.g. the fn/shard would not
            # pickle.  The tasks' own bug, recorded against each.
            for index in indices:
                self._slots[index] = (_RAISE, exc)
            return
        for index, (status, payload) in zip(indices, slots):
            self._slots[index] = (_OK, payload) if status == wire.SLOT_OK \
                else (_RAISE, payload)

    def _run_indices(self, link: _WorkerLink,
                     indices: List[int]) -> None:
        """Run tasks on one link, parking the rest if it dies."""
        for position, index in enumerate(indices):
            try:
                self._slots[index] = \
                    (_OK, link.run_task(self._fn, self._tasks[index]))
            except _TaskFailed as failed:
                self._slots[index] = (_RAISE, failed.exception)
            except (RemoteExecutionError, OSError) as exc:
                with self._lock:
                    self._leftover.extend(indices[position:])
                    self._transport_error = exc
                return
            except Exception as exc:
                # Not a transport failure: e.g. the fn/task would
                # not pickle.  Record it against the task, exactly
                # where a process pool surfaces the same error.
                self._slots[index] = (_RAISE, exc)

    def _run_shard(self, link: _WorkerLink, indices: List[int]) -> None:
        try:
            self._execute(link, indices)
        finally:
            # The last shard thread to finish settles any leftovers,
            # so a dispatch completes (or fails) without the caller
            # having to join it -- done() stays live.
            with self._lock:
                self._unsettled -= 1
                last = self._unsettled == 0
            if last:
                try:
                    self._run_leftovers()
                except RemoteExecutionError as exc:
                    self._fatal = exc
                    self._finish()

    def _run_leftovers(self) -> None:
        """Requeue dead workers' tasks across the survivors.

        Each pass re-shards the parked indices over every live link
        and runs the shards concurrently (the recovery tail keeps all
        survivors busy, not one); under round execution each requeued
        slice ships as a fresh round shard.  A link dying mid-requeue
        parks its remainder again and the next pass re-shards over the
        shrunken survivor set, so the loop terminates -- with every
        slot filled, or with no links left and a
        :class:`~repro.errors.RemoteExecutionError`.
        """
        while True:
            with self._lock:
                pending, self._leftover = self._leftover, []
            if not pending:
                return
            live = [link for link in self._links if not link.dead]
            if not live:
                with self._lock:
                    self._leftover.extend(
                        index for index in pending
                        if self._slots[index] is None)
                raise RemoteExecutionError(
                    f"all {len(self._links)} remote workers failed "
                    f"with {len(pending)} task(s) unfinished") \
                    from self._transport_error
            shards = self._shard_plan(
                task_weights([self._tasks[i] for i in pending]),
                len(live))
            threads = []
            for link, shard in zip(live, shards):
                if not shard:
                    continue
                thread = threading.Thread(
                    target=self._execute,
                    args=(link, [pending[j] for j in shard]),
                    daemon=True)
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()

    def done(self) -> bool:
        """Complete -- every slot filled, or failed for good.

        A dispatch that lost every worker counts as done (joining it
        raises), matching how a failed ``concurrent.futures`` future
        reports ``done() == True``.
        """
        return self._fatal is not None or \
            all(slot is not None for slot in self._slots)

    def result(self) -> List:
        with self._result_lock:
            if self._results is not None:
                return self._results
            for thread in self._threads:
                thread.join()
            if self._fatal is not None:
                raise self._fatal
            try:
                # Settled by the last shard thread already; this is
                # the no-thread / revive edge's safety net.
                self._run_leftovers()
            except RemoteExecutionError as exc:
                self._fatal = exc
                self._finish()
                raise
            for slot in self._slots:
                if slot[0] == _RAISE:
                    self._finish()
                    raise slot[1]
            self._results = [slot[1] for slot in self._slots]
            self._finish()
            return self._results

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._on_finish(self)


# ----------------------------------------------------------------------
# Localhost worker clusters
# ----------------------------------------------------------------------

class LocalCluster:
    """N worker subprocesses on localhost, spawned on demand.

    The test/CI/single-machine deployment of the remote backend: each
    worker is ``python -m repro.core.remote.worker --port 0
    --announce`` with ``src`` prepended to its ``PYTHONPATH`` (plus any
    ``extra_sys_paths`` -- e.g. a test directory whose module-level
    functions tasks reference).  ``worker_args`` appends extra CLI
    flags to every spawned worker -- e.g. ``["--protocol-version",
    "1"]`` spawns per-task-only workers, which is how the
    version-negotiation tests build mixed-protocol clusters.
    :meth:`start` is idempotent and re-entrant after :meth:`stop`, so
    a backend closed mid-session transparently respawns its workers on
    next use.
    """

    def __init__(self, n_workers: int,
                 extra_sys_paths: Sequence[str] = (),
                 spawn_timeout_s: float = SPAWN_TIMEOUT_S,
                 worker_args: Sequence[str] = ()) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"worker count must be positive, got {n_workers}")
        self.n_workers = n_workers
        self.extra_sys_paths = list(extra_sys_paths)
        self.spawn_timeout_s = spawn_timeout_s
        self.worker_args = list(worker_args)
        self._procs: List[subprocess.Popen] = []
        self._addresses: List[Tuple[str, int]] = []
        self._stderr_tails: List[deque] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while every spawned worker process is alive."""
        with self._lock:
            return bool(self._procs) and \
                all(proc.poll() is None for proc in self._procs)

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """``(host, port)`` of every running worker (starts them)."""
        self.start()
        with self._lock:
            return list(self._addresses)

    def start(self) -> None:
        """Spawn the workers (idempotent while they are running)."""
        with self._lock:
            if self._procs and all(p.poll() is None for p in self._procs):
                return
            self._stop_locked()
            src_root = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))))
            paths = [src_root, *self.extra_sys_paths]
            existing = os.environ.get("PYTHONPATH")
            if existing:
                paths.append(existing)
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
            try:
                for _ in range(self.n_workers):
                    proc = subprocess.Popen(
                        [sys.executable, "-u", "-m",
                         "repro.core.remote.worker",
                         "--host", "127.0.0.1", "--port", "0",
                         "--announce", *self.worker_args],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        env=env)
                    self._procs.append(proc)
                    self._stderr_tails.append(_drain_stderr(proc))
                deadline = time.monotonic() + self.spawn_timeout_s
                for proc, tail in zip(self._procs, self._stderr_tails):
                    self._addresses.append(
                        ("127.0.0.1", _read_announced_port(
                            proc, deadline, tail)))
            except BaseException:
                self._stop_locked()
                raise

    def stop(self) -> None:
        """Terminate every worker process (idempotent)."""
        with self._lock:
            self._stop_locked()

    def _stop_locked(self) -> None:
        procs, self._procs = self._procs, []
        self._addresses = []
        self._stderr_tails = []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __del__(self) -> None:
        try:
            self.stop()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"LocalCluster(n_workers={self.n_workers}, {state})"


def _drain_stderr(proc: subprocess.Popen) -> deque:
    """Drain a worker's stderr into a bounded tail (prevents pipe
    stalls on chatty workers; keeps the tail for spawn diagnostics)."""
    tail: deque = deque(maxlen=50)

    def drain() -> None:
        for line in proc.stderr:
            tail.append(line.decode(errors="replace").rstrip())

    threading.Thread(target=drain, daemon=True).start()
    return tail


def _read_announced_port(proc: subprocess.Popen, deadline: float,
                         stderr_tail: deque) -> int:
    """Wait for a worker's ``QUAC-REMOTE-WORKER <port>`` line."""
    from repro.core.remote.worker import ANNOUNCE_PREFIX

    fd = proc.stdout.fileno()
    buffer = b""
    while b"\n" not in buffer:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RemoteExecutionError(
                f"worker subprocess did not announce a port within "
                f"the spawn timeout; stderr: {list(stderr_tail)!r}")
        ready, _, _ = select.select([fd], [], [], min(remaining, 0.2))
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RemoteExecutionError(
                    f"worker subprocess exited before announcing "
                    f"(rc={proc.poll()}); stderr: {list(stderr_tail)!r}")
            buffer += chunk
    line = buffer.split(b"\n", 1)[0].decode(errors="replace").strip()
    prefix, _, port = line.rpartition(" ")
    if prefix != ANNOUNCE_PREFIX or not port.isdigit():
        raise RemoteExecutionError(
            f"unexpected worker announcement {line!r}")
    return int(port)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------

class RemoteBackend(ExecutionBackend):
    """Execute rounds of tasks on remote worker hosts over sockets.

    Parameters
    ----------
    addresses:
        ``(host, port)`` pairs of already-running workers (see
        :mod:`repro.core.remote.worker`).  Connections are opened
        lazily and kept for the backend's lifetime.
    cluster:
        A :class:`LocalCluster` this backend *owns*: started on first
        use, stopped by :meth:`close`, respawned transparently when
        the backend is used again after a close.  Exactly one of
        ``addresses`` / ``cluster`` must be given.
    round_execution:
        Ship :meth:`submit_round` rounds as whole
        :class:`~repro.core.remote.wire.RoundShard` messages -- one
        socket round trip per *host* instead of one per task.  The
        spec suffix ``+rounds`` (``"remote:2+rounds"``) sets it; a
        worker whose negotiated protocol predates rounds transparently
        falls back to per-task shipping.  Either protocol ships the
        same bits; only the round-trip count differs.

    The full :class:`~repro.core.parallel.ExecutionBackend` contract
    holds: results in submission order, ``close()`` waits for
    in-flight rounds (their :class:`~repro.core.parallel.
    PendingResult`\\ s stay joinable), and worker count/failure is
    never observable in the output -- only in wall-clock time.
    """

    name = "remote"

    def __init__(self, addresses: Optional[Sequence[Tuple[str, int]]]
                 = None,
                 cluster: Optional[LocalCluster] = None,
                 round_execution: bool = False) -> None:
        if (addresses is None) == (cluster is None):
            raise ConfigurationError(
                "give RemoteBackend exactly one of addresses= or "
                "cluster=")
        if addresses is not None and not list(addresses):
            raise ConfigurationError("need at least one worker address")
        self._addresses = [tuple(a) for a in addresses] \
            if addresses is not None else None
        self._cluster = cluster
        self.round_execution = bool(round_execution)
        self._links: Optional[List[_WorkerLink]] = None
        self._lock = threading.Lock()
        self._active: set = set()
        # Single-slot shard-plan memo, keyed on the task signature
        # (weights + live-worker count): steady-state refills reuse
        # the plan; any weight change misses the key and recomputes.
        self._shard_cache_key: Optional[Tuple] = None
        self._shard_cache_plan: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: Shard plans actually computed / served from the memo --
        #: the cache's observable behaviour, for the regression tests.
        self.shard_maps_computed = 0
        self.shard_map_cache_hits = 0

    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Configured worker host count."""
        if self._cluster is not None:
            return self._cluster.n_workers
        return len(self._addresses)

    def _ensure_links(self) -> List[_WorkerLink]:
        with self._lock:
            if self._links is None:
                if self._cluster is not None:
                    self._cluster.start()
                    addresses = self._cluster.addresses
                else:
                    addresses = self._addresses
                self._links = [_WorkerLink(a) for a in addresses]
            return self._links

    def ping(self) -> List[bool]:
        """Per-worker liveness (True where a ping round-trips)."""
        return [link.ping() for link in self._ensure_links()]

    def request_count(self) -> int:
        """Socket round trips attempted across the current links.

        Counts every request/response exchange (tasks, round shards,
        pings, version handshakes) since the links were built; resets
        when :meth:`close` drops them.  The round-trips-per-refill
        accounting ``benchmarks/test_remote_scaling.py`` compares the
        two protocols with.
        """
        with self._lock:
            links = self._links or []
        return sum(link.requests for link in links)

    # ------------------------------------------------------------------

    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        """Submit one planned round across the worker hosts.

        With :attr:`round_execution` each worker receives its entire
        contiguous slice in one ``round`` message (version-1 workers
        fall back to per-task shipping per link); without it every
        task is its own request.  Same results either way, in
        submission order.
        """
        tasks = list(tasks)
        if not tasks:
            return CompletedResult([])
        links = self._ensure_links()
        dispatch = _RemoteDispatch(fn, tasks, links, self._unregister,
                                   use_rounds=self.round_execution,
                                   shard_plan=self._shard_plan)
        with self._lock:
            self._active.add(dispatch)
        dispatch.start()
        return dispatch

    def _shard_plan(self, weights: Sequence[int],
                    n_shards: int) -> List[List[int]]:
        """Memoized :func:`shard_map` keyed on the task signature.

        Steady-state generation submits the same bank list round after
        round; the single-slot memo skips the recompute there and
        invalidates by key miss the moment a bank's iteration weight
        (or the live-worker count) changes -- including requeue
        passes, whose shrunken task lists are their own signatures.
        """
        key = (tuple(weights), n_shards)
        with self._lock:
            if key == self._shard_cache_key:
                self.shard_map_cache_hits += 1
                return [list(shard) for shard in self._shard_cache_plan]
        plan = shard_map(list(weights), n_shards)
        with self._lock:
            self._shard_cache_key = key
            self._shard_cache_plan = tuple(tuple(s) for s in plan)
            self.shard_maps_computed += 1
        return plan

    def _unregister(self, dispatch: _RemoteDispatch) -> None:
        with self._lock:
            self._active.discard(dispatch)

    def close(self) -> None:
        """Wait for in-flight rounds, drop connections, stop the
        cluster (if owned).  Idempotent; the backend transparently
        reconnects -- and respawns an owned cluster -- on next use."""
        with self._lock:
            active = list(self._active)
        for dispatch in active:
            try:
                dispatch.result()
            except Exception:
                pass  # the owner of the PendingResult sees it too
        with self._lock:
            links, self._links = self._links, None
        for link in links or []:
            link.close()
        if self._cluster is not None:
            self._cluster.stop()

    def __repr__(self) -> str:
        protocol = ", rounds" if self.round_execution else ""
        if self._cluster is not None:
            return f"RemoteBackend(cluster={self._cluster!r}{protocol})"
        hosts = ",".join(f"{h}:{p}" for h, p in self._addresses)
        return f"RemoteBackend({hosts}{protocol})"


#: Spec suffix enabling round execution (``"remote:2+rounds"``).
ROUNDS_SPEC_SUFFIX = "+rounds"


def backend_from_spec(rest: str) -> RemoteBackend:
    """Build a backend from the ``remote:``-spec remainder.

    ``"2"`` (a bare integer) means a 2-worker :class:`LocalCluster`;
    ``"host:port[,host:port...]"`` means already-running workers.
    Either form takes the ``+rounds`` suffix to enable round-shard
    execution (``"2+rounds"``, ``"host:9123+rounds"``) -- which is how
    ``REPRO_EXECUTION_BACKEND=remote:2+rounds`` runs a whole suite
    under the round protocol.
    """
    rest = rest.strip()
    round_execution = rest.endswith(ROUNDS_SPEC_SUFFIX)
    if round_execution:
        rest = rest[:-len(ROUNDS_SPEC_SUFFIX)].strip()
    if not rest:
        raise ConfigurationError(
            "the remote backend spec needs workers: 'remote:N' for N "
            "localhost workers, or 'remote:host:port[,host:port...]' "
            "(either with an optional '+rounds' suffix)")
    if rest.isdigit():
        return RemoteBackend(cluster=LocalCluster(int(rest)),
                             round_execution=round_execution)
    addresses = []
    for part in rest.split(","):
        host, sep, port = part.strip().rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ConfigurationError(
                f"bad remote worker address {part.strip()!r}; "
                f"want host:port")
        addresses.append((host, int(port)))
    return RemoteBackend(addresses, round_execution=round_execution)
