"""Pluggable parallel execution backends for the generation engine.

QUAC-TRNG's headline throughput comes from *concurrency*: the paper
drives four banks per channel and four channels per system, and every
bank's iteration is independent of every other's.  The simulator's
batched fast path (:meth:`repro.core.trng.QuacTrng.batch_iterations`)
mirrors that structure -- one vectorized draw per bank -- which makes
the per-bank work an embarrassingly parallel unit.  This module turns
that unit into a first-class, *picklable* task and provides three
interchangeable executors for it:

* :class:`SerialBackend` -- in-process loop (the default; zero overhead,
  bit-identical reference);
* :class:`ThreadPoolBackend` -- a shared ``ThreadPoolExecutor``; numpy
  releases the GIL inside the heavy kernels (``random``, ``packbits``)
  and ``hashlib`` releases it for large buffers, so threads already
  overlap most of the hot path;
* :class:`ProcessPoolBackend` -- a shared ``ProcessPoolExecutor`` for
  full CPU scaling across cores;
* :class:`~repro.core.remote.RemoteBackend` (in
  :mod:`repro.core.remote`) -- sharded fan-out to worker *hosts* over
  a length-prefixed pickle socket protocol, for scaling past one
  machine (resolved here as ``"remote:2"`` for a localhost cluster or
  ``"remote:host:port,..."`` for running workers).

**Determinism contract.**  Every task carries its segment's
thermal-stream key (derived from the hierarchical
:func:`repro.rng.derive_key` scheme, keyed by draw-site coordinates
rather than spawn order) and the index of its first iteration; the
worker expands the key via ``numpy.random.SeedSequence`` into a PCG64
stream and advances it straight to that iteration.  Iteration ``k`` of
a segment is therefore a pure function of (module seed, bank, segment,
``k``) -- not of batch sizes, worker counts or which worker runs first
-- and results are returned in submission order, so every backend
produces **bit-identical** streams (``tests/core/test_parallel.py``
enforces this).

Backends are selected per generator (``QuacTrng(..., backend=...)``),
by spec string (``"process:4"``), or globally through the
``REPRO_EXECUTION_BACKEND`` environment variable -- the latter is how
CI runs the whole tier-1 suite under a process pool.

Three calling conventions share the determinism contract:

* :meth:`ExecutionBackend.map` blocks until every task's result is
  available (the original PR-2 API);
* :meth:`ExecutionBackend.submit_map` returns a :class:`PendingResult`
  immediately, so the caller can keep planning, draining a bit pool, or
  submitting further rounds while the tasks execute.  This is the
  primitive the asynchronous harvest engine
  (:mod:`repro.core.harvest`) double-buffers on;
* :meth:`ExecutionBackend.submit_round` submits one planned refill
  round as a unit.  In-process backends decompose it into
  ``submit_map`` (the generic fallback); the remote backend ships each
  host its whole contiguous shard in a single request
  (:attr:`ExecutionBackend.ships_whole_rounds`), cutting socket round
  trips per refill from one per bank to one per host.  The async
  harvest engine always submits through it; the synchronous refill
  paths prefer it when the backend advertises ``ships_whole_rounds``
  and otherwise keep the blocking :meth:`ExecutionBackend.map` (whose
  pooled implementations run single-task rounds inline).

Because every result is a pure function of its task, *when* a result is
gathered can never change *what* it contains -- ``submit_map(fn,
tasks).result()`` equals ``map(fn, tasks)`` bit for bit on every
backend.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bitops import pack_bits, unpack_bits
from repro.crypto.conditioner import Sha256Conditioner
from repro.crypto.sha256 import Sha256
from repro.dram.sense_amplifier import sample_iterations
from repro.errors import ConfigurationError
# Not called here; kept importable so a tracer that rebinds the draw
# entry points by module attribute (``hostbench/layers.py``) finds them.
from repro.dram.sense_amplifier import sample_settles  # noqa: F401
from repro.rng import generator_from_key  # noqa: F401

#: Environment variable naming the default backend spec.
BACKEND_ENV_VAR = "REPRO_EXECUTION_BACKEND"


# ----------------------------------------------------------------------
# The unit of parallel work
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BankTask:
    """One bank's share of a batch: sample ``iterations`` read-outs and
    condition them.

    Everything a worker needs travels with the task (settling
    probabilities, the segment's thermal key and first iteration, the
    SIB slices and conditioning parameters), so the task pickles
    cheaply and never drags a :class:`~repro.dram.device.DramModule`
    across a process boundary.
    """

    #: The segment's thermal-stream key (``repro.rng.derive_key``
    #: words); the worker seeds a ``SeedSequence`` from it, so the
    #: stream is a function of the draw site, not of scheduling order.
    #: Older builds called this field ``key`` and drew each task from
    #: the start of its own per-draw stream; the new name makes such a
    #: worker fail every task (``AttributeError``) instead of serving
    #: the start of the segment's stream again for every task.
    thermal_key: Tuple[int, ...]
    #: Per-bitline settling probabilities of the bank's TRNG segment.
    probabilities: np.ndarray
    #: Iterations to sample (rows of the read-out matrix).
    iterations: int
    #: ``(start, stop)`` bit ranges of the bank's SHA input blocks.
    block_slices: Tuple[Tuple[int, int], ...]
    #: Shannon entropy credited to each block (conditioner parameter).
    entropy_per_block: float
    #: Condition with the from-scratch SHA-256 instead of hashlib.
    use_builtin_sha: bool = False
    #: Also return the raw read-out matrix (for health monitoring).
    collect_raw: bool = False
    #: Accumulate the worker's output into packed byte pools and ship
    #: only the bytes plus counts (8x smaller result pickles); read the
    #: matrices back through :meth:`BankResult.digest_matrix` /
    #: :meth:`BankResult.raw_matrix`.
    pack_output: bool = False
    #: Index of the segment's first iteration in this task; the worker
    #: advances the thermal stream straight to it.
    first_iteration: int = 0


def _pack_matrix(matrix: np.ndarray) -> bytes:
    """Pack a {0,1} matrix row-major into bytes (worker-side pool)."""
    return pack_bits(np.ravel(matrix))


def _unpack_matrix(data: bytes, rows: int, columns: int) -> np.ndarray:
    """Invert :func:`_pack_matrix` given the shipped counts."""
    return unpack_bits(data, rows * columns).reshape(rows, columns)


@dataclass(frozen=True, eq=False)
class BankResult:
    """A worker's answer to one :class:`BankTask`.

    Results travel in one of two interchangeable representations:
    unpacked matrices (``digests`` / ``raw``, the default) or packed
    byte pools plus counts (``digests_packed`` / ``raw_packed``, when
    the task set ``pack_output`` -- an 8x smaller pickle for
    multi-hundred-megabit draws).  Consumers read through
    :meth:`digest_matrix` and :meth:`raw_matrix`, which return the
    bit-identical matrix either way.
    """

    #: ``(iterations, DIGEST_BITS * n_blocks)`` conditioned bits, or
    #: ``None`` when the task asked for packed output.
    digests: Optional[np.ndarray] = None
    #: ``(iterations, segment_bits)`` raw read-outs, or ``None`` unless
    #: the task asked for them (packed tasks use ``raw_packed``).
    raw: Optional[np.ndarray] = None
    #: Packed conditioned bits (row-major), with shape counts below.
    digests_packed: Optional[bytes] = None
    #: Packed raw read-outs (row-major), or ``None``.
    raw_packed: Optional[bytes] = None
    #: Rows of both matrices (the task's ``iterations``).
    iterations: int = 0
    #: Columns of the conditioned matrix (bits per iteration).
    digest_bits: int = 0
    #: Columns of the raw matrix (segment bits).
    raw_bits: int = 0

    def digest_matrix(self) -> np.ndarray:
        """The ``(iterations, digest_bits)`` conditioned-bit matrix.

        Unpacks the worker's byte pool on demand; bit-identical to the
        matrix an unpacked task would have shipped.
        """
        if self.digests is not None:
            return self.digests
        return _unpack_matrix(self.digests_packed, self.iterations,
                              self.digest_bits)

    def raw_matrix(self) -> Optional[np.ndarray]:
        """The ``(iterations, raw_bits)`` read-out matrix, if collected."""
        if self.raw is not None:
            return self.raw
        if self.raw_packed is None:
            return None
        return _unpack_matrix(self.raw_packed, self.iterations,
                              self.raw_bits)

    def payload_bytes(self) -> int:
        """Approximate result-pickle payload (the matrices' bytes)."""
        total = 0
        for matrix in (self.digests, self.raw):
            if matrix is not None:
                total += matrix.nbytes
        for packed in (self.digests_packed, self.raw_packed):
            if packed is not None:
                total += len(packed)
        return total


def run_bank_task(task: BankTask) -> BankResult:
    """Execute one bank task (module-level, so process pools can pickle
    it).

    Reproduces exactly what the serial fast path does for one bank:
    sample iterations ``[first_iteration, first_iteration +
    iterations)`` of the segment's thermal stream, slice the SHA input
    blocks, and condition each block matrix in bulk.  With
    ``task.pack_output`` the conditioned bits (and raw read-outs, when
    collected) are accumulated into packed byte pools before shipping
    -- the content is bit-identical, only the wire format changes.
    """
    raw = np.atleast_2d(sample_iterations(
        task.probabilities, task.thermal_key, task.first_iteration,
        task.iterations))
    conditioner = Sha256Conditioner(task.entropy_per_block,
                                    use_builtin=task.use_builtin_sha)
    columns = [
        conditioner.condition_many(raw[:, start:stop])
                   .reshape(task.iterations, Sha256.DIGEST_BITS)
        for start, stop in task.block_slices
    ]
    digests = np.concatenate(columns, axis=1)
    if task.pack_output:
        return BankResult(
            digests_packed=_pack_matrix(digests),
            raw_packed=(_pack_matrix(raw) if task.collect_raw else None),
            iterations=task.iterations,
            digest_bits=digests.shape[1],
            raw_bits=raw.shape[1] if task.collect_raw else 0)
    return BankResult(digests=digests,
                      raw=raw if task.collect_raw else None,
                      iterations=task.iterations,
                      digest_bits=digests.shape[1],
                      raw_bits=raw.shape[1] if task.collect_raw else 0)


# ----------------------------------------------------------------------
# Pending results (the submit/poll half of the API)
# ----------------------------------------------------------------------

class PendingResult(abc.ABC):
    """Handle to an in-flight :meth:`ExecutionBackend.submit_map`.

    Poll with :meth:`done`, join with :meth:`result`.  Joining is
    idempotent (the result list is cached), and the list is always in
    submission order -- gathering order can never reorder results, just
    as scheduling order can never change them.
    """

    @abc.abstractmethod
    def done(self) -> bool:
        """True once every task's result is available without blocking."""

    @abc.abstractmethod
    def result(self) -> List:
        """Block until complete; return results in submission order."""


class CompletedResult(PendingResult):
    """A :class:`PendingResult` that was computed eagerly at submit.

    What :class:`SerialBackend` returns: the serial reference has no
    concurrency to expose, so its "pending" rounds are already done --
    which keeps callers of the submit/poll API backend-agnostic.
    """

    def __init__(self, results: List) -> None:
        self._results = results

    def done(self) -> bool:
        return True

    def result(self) -> List:
        return self._results


class FailedResult(PendingResult):
    """A :class:`PendingResult` whose computation failed at submit.

    What eager backends return when the map itself raised: the
    exception is deferred to :meth:`result`, matching pooled futures
    (and remote dispatches), where a task's exception surfaces at
    join, never at submit.  The conformance suite
    (``tests/core/test_backend_conformance.py``) holds every backend
    to that.
    """

    def __init__(self, exception: BaseException) -> None:
        self._exception = exception

    def done(self) -> bool:
        return True

    def result(self) -> List:
        raise self._exception


class _FuturePendingResult(PendingResult):
    """Pending results backed by ``concurrent.futures`` futures."""

    def __init__(self, futures: List) -> None:
        self._futures = futures
        self._results: Optional[List] = None

    def done(self) -> bool:
        return all(future.done() for future in self._futures)

    def result(self) -> List:
        if self._results is None:
            self._results = [future.result() for future in self._futures]
        return self._results


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class ExecutionBackend(abc.ABC):
    """Maps a task function over a task list, preserving order.

    Implementations must be *transparent*: ``backend.map(fn, tasks)``
    returns ``[fn(t) for t in tasks]`` in order, for any scheduling
    underneath.  The equivalence suite holds every backend to that.

    The non-blocking half, :meth:`submit_map`, carries the same
    contract: ``submit_map(fn, tasks).result() == map(fn, tasks)`` --
    only *when* the work happens differs.

    Example
    -------
    >>> backend = SerialBackend()
    >>> backend.map(lambda x: x + 1, [1, 2, 3])
    [2, 3, 4]
    >>> pending = backend.submit_map(lambda x: 2 * x, [1, 2, 3])
    >>> pending.done()          # serial completes eagerly at submit
    True
    >>> pending.result()
    [2, 4, 6]
    """

    #: Short name used in spec strings and reports.
    name: str = "abstract"

    #: True when results cross a process boundary (i.e. get pickled);
    #: the async harvest engine packs worker output only where that
    #: pays -- packing shrinks a pickle 8x, but threads share memory.
    ships_pickled_results: bool = False

    #: True when :meth:`submit_round` ships each worker its whole
    #: contiguous shard in one request (the remote backend's round
    #: protocol) instead of decomposing into per-task submissions.
    #: Purely an advertisement -- harvest paths call ``submit_round``
    #: unconditionally and the generic fallback keeps the contract.
    ships_whole_rounds: bool = False

    @abc.abstractmethod
    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Apply ``fn`` to every task; results in submission order."""

    def submit_map(self, fn: Callable, tasks: Sequence) -> PendingResult:
        """Start mapping ``fn`` over ``tasks``; return without waiting.

        The base implementation (used by :class:`SerialBackend`)
        computes eagerly and returns a :class:`CompletedResult` (a
        task's exception is deferred to :meth:`PendingResult.result`,
        where pooled futures surface it); pooled backends dispatch
        every task to their workers and return a handle whose
        :meth:`PendingResult.done` goes true as the pool drains.
        Either way the gathered list is bit-identical to a blocking
        :meth:`map` of the same tasks.
        """
        try:
            return CompletedResult(self.map(fn, tasks))
        except Exception as exc:
            return FailedResult(exc)

    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        """Start one planned *round* of tasks; return without waiting.

        Semantically identical to :meth:`submit_map` -- submission
        order, exception-at-join, bit-identical results -- but the
        round is submitted as a unit, so a backend that advertises
        :attr:`ships_whole_rounds` may ship each worker its entire
        contiguous shard in one request instead of one request per
        task (the remote backend's round protocol, which turns a
        16-bank refill on a 3-host cluster from 16 socket round trips
        into 3).  This base implementation is the generic fallback: it
        decomposes into :meth:`submit_map`, so in-process backends
        need no changes.  The conformance suite
        (``tests/core/test_backend_conformance.py``) exercises both
        paths on every registered backend.
        """
        return self.submit_map(fn, tasks)

    def run_round(self, fn: Callable, tasks: Sequence) -> List:
        """Execute one planned round, blocking until its results.

        The synchronous refill paths' capability switch, in one
        place: a backend that advertises :attr:`ships_whole_rounds`
        submits the round as a unit (one request per host) and joins
        it; everywhere else the blocking :meth:`map` keeps its inline
        fast paths (pooled backends run single-task rounds in the
        caller).  Bit-identical results either way.
        """
        if self.ships_whole_rounds:
            return self.submit_round(fn, tasks).result()
        return self.map(fn, tasks)

    def close(self) -> None:
        """Release pooled workers (no-op for poolless backends).

        Safe to call with rounds still in flight: pooled backends wait
        for submitted work to finish, so an outstanding
        :class:`PendingResult` stays joinable after close.  Closing is
        idempotent, and a closed pooled backend transparently rebuilds
        its pool on next use.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """In-process execution; the reference the pools must match."""

    name = "serial"

    def map(self, fn: Callable, tasks: Sequence) -> List:
        return [fn(task) for task in tasks]


class _PooledBackend(ExecutionBackend):
    """Shared lazy pool; single-task maps stay in-process."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"worker count must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool = None
        # Backends are shared across generators (and possibly user
        # threads); the lock keeps the lazy init from racing and
        # leaking a second, never-shut-down pool.
        self._pool_lock = threading.Lock()

    @abc.abstractmethod
    def _make_pool(self):
        """Construct the underlying ``concurrent.futures`` executor."""

    def map(self, fn: Callable, tasks: Sequence) -> List:
        tasks = list(tasks)
        # One task gains nothing from dispatch; run it inline.  The
        # result is identical either way (pure function of the task).
        if len(tasks) <= 1:
            return [fn(task) for task in tasks]
        return list(self._ensure_pool().map(fn, tasks))

    def submit_map(self, fn: Callable, tasks: Sequence) -> PendingResult:
        tasks = list(tasks)
        if not tasks:
            return CompletedResult([])
        # Unlike map(), even a single task goes to the pool: the caller
        # asked for overlap, so the parent thread must stay free.
        pool = self._ensure_pool()
        return _FuturePendingResult([pool.submit(fn, task)
                                     for task in tasks])

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __repr__(self) -> str:
        workers = self.max_workers if self.max_workers else "auto"
        return f"{type(self).__name__}(max_workers={workers})"


class ThreadPoolBackend(_PooledBackend):
    """Thread-pool execution (GIL-released numpy/hashlib kernels)."""

    name = "thread"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessPoolBackend(_PooledBackend):
    """Process-pool execution for full multi-core scaling."""

    name = "process"
    ships_pickled_results = True

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=self.max_workers)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------

_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}

#: The remote backend registers by name only: its class lives in
#: :mod:`repro.core.remote` (which imports this module) and is pulled
#: in lazily at resolution, so in-process users never pay the import.
REMOTE_BACKEND_NAME = "remote"

#: Backends resolved from spec strings are shared process-wide, so a
#: suite running under ``REPRO_EXECUTION_BACKEND=process`` spins up one
#: pool, not one per generator.  They are shut down at interpreter exit
#: (a dangling process pool otherwise races module teardown).
_shared_backends: Dict[str, ExecutionBackend] = {}


def _close_shared_backends() -> None:
    for backend in _shared_backends.values():
        backend.close()


atexit.register(_close_shared_backends)


def available_backends() -> Tuple[str, ...]:
    """The recognised backend spec names."""
    return tuple(_BACKENDS) + (REMOTE_BACKEND_NAME,)


def resolve_backend(spec=None) -> ExecutionBackend:
    """Turn a backend selection into an :class:`ExecutionBackend`.

    Accepts an existing backend (returned as-is), a spec string
    (``"serial"``, ``"thread"``, ``"process"``, optionally with a
    worker count as ``"process:4"``; ``"remote:2"`` for a two-worker
    localhost cluster or ``"remote:host:port[,host:port...]"`` for
    already-running worker hosts), or ``None`` -- which reads the
    ``REPRO_EXECUTION_BACKEND`` environment variable and falls back to
    serial.  String-resolved backends are shared per spec so pooled
    workers (and remote clusters) are reused across generators.

    >>> sorted(available_backends())
    ['process', 'remote', 'serial', 'thread']
    >>> resolve_backend("thread:2") is resolve_backend("thread:2")
    True
    >>> resolve_backend("process:4").max_workers
    4
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, SerialBackend.name)
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend spec must be a string or ExecutionBackend, "
            f"got {type(spec).__name__}")
    normalized = spec.strip().lower()
    if normalized in _shared_backends:
        return _shared_backends[normalized]
    name, _, count = normalized.partition(":")
    if name == REMOTE_BACKEND_NAME:
        from repro.core.remote import backend_from_spec
        backend = backend_from_spec(count)
        _shared_backends[normalized] = backend
        return backend
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {spec!r}; "
            f"choose from {', '.join(available_backends())}")
    workers: Optional[int] = None
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ConfigurationError(
                f"bad worker count in backend spec {spec!r}")
    if name == SerialBackend.name:
        if count:
            raise ConfigurationError(
                "the serial backend takes no worker count")
        backend = SerialBackend()
    else:
        backend = _BACKENDS[name](max_workers=workers)
    _shared_backends[normalized] = backend
    return backend
