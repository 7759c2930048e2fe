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
live workers by :func:`shard_map`: contiguous runs of near-equal
task counts, computed serially in the client, in task order.  Each
host's slice ships whole in one ``round`` message, and one
``round_result`` frame comes back -- so a 16-bank round on a 3-host
cluster costs 3 socket round trips.  Because every
:class:`~repro.core.parallel.BankTask` is a pure function of itself
and results are merged in submission order, the assembled stream is
**bit-identical to the serial reference regardless of host count,
worker loss, or result arrival order** -- held to by
``tests/core/test_backend_conformance.py`` and the golden streams in
``tests/test_determinism.py``.

**One dispatch loop per round.**  ``submit_round`` returns a
:class:`~repro.core.parallel.PendingResult` over one future per task
and hands the round to :func:`_dispatch` on a thread the backend owns.
Each pass ships the shards of the unfinished tasks concurrently and
sets the futures of every shard that comes back.

**Failure model.**  A worker whose connection dies, or that answers
with anything the schema rejects, is marked dead; its shard stays
unfinished and the next pass re-shards it across the surviving
workers (the tasks are stateless, so re-execution reproduces the
exact results).  Only when *every* worker has failed do the
unfinished futures fail with
:class:`~repro.errors.RemoteExecutionError`.  A task that
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
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.parallel import (ExecutionBackend, PendingResult,
                                 run_bank_task)
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

def shard_map(n_tasks: int, n_shards: int) -> List[range]:
    """Split ``n_tasks`` task indices into contiguous, near-equal runs.

    Returns ``min(n_shards, n_tasks)`` non-empty runs, in task order,
    whose sizes differ by at most one.  The tasks of one round carry
    iteration counts that differ by at most one (every bank task of a
    channel draws the channel's share, and the shares of a round's
    units differ by at most one), so equal runs carry equal work.

    >>> [list(shard) for shard in shard_map(4, 2)]
    [[0, 1], [2, 3]]
    >>> [list(shard) for shard in shard_map(5, 3)]
    [[0], [1, 2], [3, 4]]
    >>> [list(shard) for shard in shard_map(2, 4)]   # never > n_tasks
    [[0], [1]]
    """
    if n_shards < 1:
        raise ConfigurationError(
            f"shard count must be positive, got {n_shards}")
    n_shards = min(n_shards, n_tasks)
    return [range(n_tasks * k // n_shards, n_tasks * (k + 1) // n_shards)
            for k in range(n_shards)]


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
# One round in flight
# ----------------------------------------------------------------------

def _dispatch(tasks: List, futures: List[Future],
              links: List[_WorkerLink]) -> None:
    """Run one round over ``links``, setting one future per task.

    Each pass shards the tasks whose futures are still unset over the
    live links (:func:`shard_map`), ships the shards concurrently and
    sets the futures of every shard that comes back.  A shard whose
    link died stays unset, so the next pass re-shards it over the
    survivors; with no live link left, every unset future fails with a
    :class:`~repro.errors.RemoteExecutionError` chained from the last
    transport failure.  If every link is already dead when the round
    starts, they all get one reconnection chance.
    """
    if all(link.dead for link in links):
        for link in links:
            link.revive()
    transport_error: Optional[BaseException] = None
    try:
        while True:
            unfinished = [index for index, future in enumerate(futures)
                          if not future.done()]
            if not unfinished:
                return
            live = [link for link in links if not link.dead]
            if not live:
                raise RemoteExecutionError(
                    f"all {len(links)} remote workers failed with "
                    f"{len(unfinished)} task(s) unfinished; last "
                    f"failure: {transport_error}") from transport_error
            shards = [[unfinished[j] for j in shard]
                      for shard in shard_map(len(unfinished), len(live))]
            with ThreadPoolExecutor(len(shards)) as pool:
                replies = [pool.submit(link.run_round,
                                       [tasks[i] for i in shard])
                           for link, shard in zip(live, shards)]
                for shard, reply in zip(shards, replies):
                    try:
                        slots = reply.result()
                    except RemoteExecutionError as exc:
                        # The link died: the next pass re-shards these.
                        transport_error = exc
                        continue
                    except Exception as exc:
                        # A task the schema cannot hold: the tasks' own
                        # bug, recorded against each.
                        slots = [exc] * len(shard)
                    for index, slot in zip(shard, slots):
                        if isinstance(slot, BaseException):
                            futures[index].set_exception(slot)
                        else:
                            futures[index].set_result(slot)
    except BaseException as exc:
        # No live link left (or a failure of the loop itself): no
        # future may stay unset, or its join would hang.
        for future in futures:
            if not future.done():
                future.set_exception(exc)


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

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"worker count must be positive, got {n_workers}")
        self.n_workers = n_workers
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
                deadline = time.monotonic() + SPAWN_TIMEOUT_S
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
    order, ``close()`` shuts down the dispatch pool, which waits for
    in-flight rounds (their
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
        #: Runs each round's dispatch loop; built with the links.
        self._dispatcher: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Configured worker host count."""
        if self._cluster is not None:
            return self._cluster.n_workers
        return len(self._addresses)

    def _ensure_links(self) -> List[_WorkerLink]:
        """The links and the dispatcher, built on first use (call with
        ``_lock`` held)."""
        if self._links is None:
            if self._cluster is not None:
                self._cluster.start()
                addresses = self._cluster.addresses
            else:
                addresses = self._addresses
            self._links = [_WorkerLink(a) for a in addresses]
            self._dispatcher = ThreadPoolExecutor(
                thread_name_prefix="remote-round")
        return self._links

    def ping(self) -> List[bool]:
        """Per-worker liveness (True where a ping round-trips)."""
        with self._lock:
            links = self._ensure_links()
        return [link.ping() for link in links]

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
        opened.  The round's futures are set by one dispatch loop on
        the backend's dispatcher thread; each live worker receives its
        contiguous slice in one ``round`` message.
        """
        if fn is not run_bank_task:
            raise ConfigurationError(
                f"remote workers only run run_bank_task, not "
                f"{getattr(fn, '__qualname__', fn)!r}")
        tasks = list(tasks)
        futures = [Future() for _ in tasks]
        if tasks:
            with self._lock:
                links = self._ensure_links()
                self._dispatcher.submit(_dispatch, tasks, futures, links)
        return PendingResult(futures)

    def close(self) -> None:
        """Wait for in-flight rounds, drop connections, stop the
        cluster (if owned).  Idempotent; the backend transparently
        reconnects -- and respawns an owned cluster -- on next use."""
        with self._lock:
            links, self._links = self._links, None
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.shutdown()
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
