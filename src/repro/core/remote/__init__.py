"""Sharded multi-host generation: the remote execution backend.

QUAC-TRNG's throughput scales with the module population; past one
machine, that population spreads across worker hosts, each owning a
slice of the bank tasks of every refill round and shipping packed byte
pools back for merging.  This package is that backend:

* :class:`RemoteBackend` -- an
  :class:`~repro.core.parallel.ExecutionBackend` (``submit_round``
  returning a ``PendingResult``, idempotent ``close``) that runs
  :func:`~repro.core.parallel.run_bank_task` rounds on worker hosts
  over the ``struct``-framed schema of :mod:`repro.core.remote.wire`;
* :mod:`repro.core.remote.worker` -- the loop a host runs to serve
  rounds (``python -m repro.core.remote.worker --port N``);
* :class:`LocalCluster` -- N worker subprocesses on localhost, for
  tests, CI, and single-machine multi-process deployments without a
  fork-based pool.

**Round shards.**  Each round's task list is partitioned across the
live workers by :func:`shard_map`: a contiguous, iteration-weighted
split computed serially in the client, in task order.  Each host's
slice ships whole in one ``round`` message, and one ``round_result``
frame comes back -- so a 16-bank round on a 3-host cluster costs 3
socket round trips.  Because every
:class:`~repro.core.parallel.BankTask` is a pure function of itself
and results are merged in submission order, the assembled stream is
**bit-identical to the serial reference regardless of host count,
worker loss, or result arrival order** -- held to by
``tests/core/test_backend_conformance.py`` and the golden streams in
``tests/test_determinism.py``.

**Failure model.**  A worker whose connection dies, or that answers
with anything the schema rejects, is marked dead; its unfinished
tasks are re-sharded across the surviving workers (the tasks are
stateless, so re-execution reproduces the exact results).  Only when
*every* worker has failed does
:class:`~repro.errors.RemoteExecutionError` surface.  A task that
raises on its worker is not a dead worker: it re-raises at join as a
``RemoteExecutionError`` naming the worker-side exception type.

Select the backend like any other: ``backend=RemoteBackend(...)``, or
``REPRO_EXECUTION_BACKEND=remote:2`` (a 2-worker
:class:`LocalCluster`) / ``remote:host1:9123,host2:9123`` (explicit
hosts) -- see :func:`repro.core.parallel.resolve_backend`.

.. warning::
   **Trusted networks only.**  No code crosses the wire -- a worker
   only ever runs ``run_bank_task`` on decoded fields -- but frames are
   neither authenticated nor encrypted, so the random bits a worker
   serves are readable on the path.  Keep workers on localhost or an
   isolated, trusted segment.
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
                                 PendingResult, run_bank_task)
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

class _WorkerLink:
    """A persistent, lock-serialized connection to one worker host."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.dead = False
        #: Request/response exchanges completed or attempted on this
        #: link (rounds and pings).
        self.requests = 0
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _exchange(self, message: Tuple) -> Tuple[int, object]:
        """One request/response; a failure marks the link dead.

        Any transport *or* decoding failure (closed socket, absurd
        header, a reply the schema rejects) leaves the connection
        desynchronized: the link is dead and
        :class:`~repro.core.remote.wire.ConnectionClosed` is raised.
        A message this build cannot encode raises its own
        :class:`~repro.errors.ConfigurationError` before a byte is
        sent, leaving the link alive.
        """
        with self._lock:
            if self.dead:
                raise wire.ConnectionClosed(
                    f"worker {self.address} is marked dead")
            try:
                if self._sock is None:
                    host, port = self.address
                    self._sock = socket.create_connection(
                        (host, port), timeout=CONNECT_TIMEOUT_S)
                    self._sock.settimeout(None)
                    self._sock.setsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY, 1)
                self.requests += 1
                wire.send_frame(self._sock, message)
                return wire.recv_frame(self._sock)
            except (OSError, RemoteExecutionError) as exc:
                self._close_locked(dead=True)
                raise wire.ConnectionClosed(
                    f"worker {self.address} failed: {exc}") from exc

    def run_round(self, tasks: List) -> List:
        """Run one shard; return a result or an exception per task.

        A task that raised on the worker comes back as a
        :class:`~repro.errors.RemoteExecutionError` naming its type; a
        shard the worker refused (an ``error`` reply) fails every task
        the same way.  A reply of the wrong kind or slot count marks
        the link dead and raises, like a transport failure.
        """
        kind, body = self._exchange((wire.ROUND, tasks))
        if kind == wire.ROUND_RESULT and len(body) == len(tasks):
            return [RemoteExecutionError(
                f"task raised {slot.type_name} on worker "
                f"{self.address}: {slot.message}")
                if isinstance(slot, wire.TaskError) else slot
                for slot in body]
        if kind == wire.ERROR:
            refused = RemoteExecutionError(
                f"worker {self.address} refused the round: {body}")
            return [refused] * len(tasks)
        self.close(dead=True)
        raise wire.ConnectionClosed(
            f"worker {self.address} answered a {len(tasks)}-task round "
            f"with kind {kind} ({len(body or ())} slots)")

    def ping(self) -> bool:
        """True when the worker answers a ping (marks dead when not)."""
        try:
            kind, _ = self._exchange((wire.PING,))
        except wire.ConnectionClosed:
            return False
        if kind != wire.PONG:
            self.close(dead=True)
        return kind == wire.PONG

    def close(self, dead: bool = False) -> None:
        """Drop the connection (and mark the link dead if asked)."""
        with self._lock:
            self._close_locked(dead)

    def _close_locked(self, dead: bool) -> None:
        self.dead = self.dead or dead
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def revive(self) -> None:
        """Forget a dead verdict so the next use reconnects."""
        with self._lock:
            self.dead = False


# ----------------------------------------------------------------------
# An in-flight round
# ----------------------------------------------------------------------

class _RemoteDispatch(PendingResult):
    """One ``submit_round`` in flight across the links.

    Primary assignment follows the shard map (one sender thread per
    shard, so workers execute concurrently); a shard whose worker dies
    parks its indices, and the last sender thread re-shards them over
    the survivors.  Each slot holds a task's result or its exception,
    so merge order is submission order whatever the arrival order was.
    """

    def __init__(self, tasks: List, links: List[_WorkerLink],
                 on_finish: Callable[["_RemoteDispatch"], None]) -> None:
        self._tasks = tasks
        self._links = links
        self._on_finish = on_finish
        self._slots: List[object] = [None] * len(tasks)
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
        shards = shard_map(task_weights(self._tasks), len(live))
        self._unsettled = len(shards)
        for link, indices in zip(live, shards):
            thread = threading.Thread(target=self._run_shard,
                                      args=(link, indices), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _run_round(self, link: _WorkerLink, indices: List[int]) -> None:
        """Ship one whole shard; park every index if the link dies.

        The reply is all-or-nothing (one ``round_result`` frame), so a
        transport death mid-shard parks the *entire* slice for the
        requeue pass.
        """
        try:
            slots = link.run_round([self._tasks[i] for i in indices])
        except RemoteExecutionError as exc:
            with self._lock:
                self._leftover.extend(indices)
                self._transport_error = exc
            return
        except Exception as exc:
            # Not a transport failure: a task the schema cannot hold.
            # The tasks' own bug, recorded against each.
            slots = [exc] * len(indices)
        for index, slot in zip(indices, slots):
            self._slots[index] = slot

    def _run_shard(self, link: _WorkerLink, indices: List[int]) -> None:
        try:
            self._run_round(link, indices)
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
        and runs the shards concurrently.  A link dying mid-requeue
        parks its shard again and the next pass re-shards over the
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
                    self._leftover.extend(pending)
                raise RemoteExecutionError(
                    f"all {len(self._links)} remote workers failed "
                    f"with {len(pending)} task(s) unfinished; last "
                    f"failure: {self._transport_error}") \
                    from self._transport_error
            shards = shard_map(
                task_weights([self._tasks[i] for i in pending]), len(live))
            threads = [threading.Thread(
                target=self._run_round,
                args=(link, [pending[j] for j in shard]), daemon=True)
                for link, shard in zip(live, shards)]
            for thread in threads:
                thread.start()
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
            self._finish()
            for slot in self._slots:
                if isinstance(slot, BaseException):
                    raise slot
            self._results = list(self._slots)
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
    --announce`` with ``src`` prepended to its ``PYTHONPATH``.
    :meth:`start` is idempotent and re-entrant after :meth:`stop`, so
    a backend closed mid-session transparently respawns its workers on
    next use.
    """

    def __init__(self, n_workers: int,
                 spawn_timeout_s: float = SPAWN_TIMEOUT_S) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"worker count must be positive, got {n_workers}")
        self.n_workers = n_workers
        self.spawn_timeout_s = spawn_timeout_s
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
            paths = [src_root]
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
                         "--announce"],
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
    """Execute :func:`~repro.core.parallel.run_bank_task` rounds on
    remote worker hosts over sockets.

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

    The :class:`~repro.core.parallel.ExecutionBackend` contract holds
    for the one task function workers run: results in submission
    order, ``close()`` waits for in-flight rounds (their
    :class:`~repro.core.parallel.PendingResult`\\ s stay joinable), and
    worker count/failure is never observable in the output -- only in
    wall-clock time.
    """

    name = "remote"

    def __init__(self, addresses: Optional[Sequence[Tuple[str, int]]]
                 = None,
                 cluster: Optional[LocalCluster] = None) -> None:
        if (addresses is None) == (cluster is None):
            raise ConfigurationError(
                "give RemoteBackend exactly one of addresses= or "
                "cluster=")
        if addresses is not None and not list(addresses):
            raise ConfigurationError("need at least one worker address")
        self._addresses = [tuple(a) for a in addresses] \
            if addresses is not None else None
        self._cluster = cluster
        self._links: Optional[List[_WorkerLink]] = None
        self._lock = threading.Lock()
        self._active: set = set()

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

        Counts every request/response exchange (round shards and
        pings) since the links were built; resets when :meth:`close`
        drops them.
        """
        with self._lock:
            links = self._links or []
        return sum(link.requests for link in links)

    # ------------------------------------------------------------------

    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        """Submit one planned round of bank tasks across the hosts.

        Workers only run :func:`~repro.core.parallel.run_bank_task`,
        so any other ``fn`` raises
        :class:`~repro.errors.ConfigurationError` before a socket is
        opened.  Each live worker receives its contiguous slice in one
        ``round`` message.
        """
        if fn is not run_bank_task:
            raise ConfigurationError(
                f"remote workers only run run_bank_task, not "
                f"{getattr(fn, '__qualname__', fn)!r}")
        tasks = list(tasks)
        if not tasks:
            return CompletedResult([])
        dispatch = _RemoteDispatch(tasks, self._ensure_links(),
                                   self._unregister)
        with self._lock:
            self._active.add(dispatch)
        dispatch.start()
        return dispatch

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
        if self._cluster is not None:
            return f"RemoteBackend(cluster={self._cluster!r})"
        hosts = ",".join(f"{h}:{p}" for h, p in self._addresses)
        return f"RemoteBackend({hosts})"


def backend_from_spec(rest: str) -> RemoteBackend:
    """Build a backend from the ``remote:``-spec remainder.

    ``"2"`` (a bare integer) means a 2-worker :class:`LocalCluster`;
    ``"host:port[,host:port...]"`` means already-running workers.
    """
    rest = rest.strip()
    if not rest:
        raise ConfigurationError(
            "the remote backend spec needs workers: 'remote:N' for N "
            "localhost workers, or 'remote:host:port[,host:port...]'")
    if rest.isdigit():
        return RemoteBackend(cluster=LocalCluster(int(rest)))
    addresses = []
    for part in rest.split(","):
        host, sep, port = part.strip().rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ConfigurationError(
                f"bad remote worker address {part.strip()!r}; "
                f"want host:port")
        addresses.append((host, int(port)))
    return RemoteBackend(addresses)
