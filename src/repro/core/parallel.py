"""Pluggable parallel execution backends for the generation engine.

QUAC-TRNG's headline throughput comes from *concurrency*: the paper
drives four banks per channel and four channels per system, and every
bank's iteration is independent of every other's.  The simulator's
refill rounds (:mod:`repro.core.harvest`) mirror that structure -- one
vectorized draw per bank (:meth:`repro.core.trng.QuacTrng.plan_batch`)
-- which makes the per-bank work an embarrassingly parallel unit.  This
module turns that unit into a first-class, *picklable* task and
provides four interchangeable executors for it:

* :class:`SerialBackend` -- in-process loop (the default; zero overhead,
  bit-identical reference);
* :class:`ThreadPoolBackend` -- a shared ``ThreadPoolExecutor``; numpy
  releases the GIL inside the sampling kernels (``random_raw``, the
  compare, ``packbits``), but CPython's ``hashlib`` releases it only
  for inputs of 2,048 bytes or more.  SHA input blocks at the small
  geometry are 64-128 bytes, so there the threads overlap sampling
  while the hashing runs one thread at a time;
* :class:`ProcessPoolBackend` -- a shared ``ProcessPoolExecutor`` for
  full CPU scaling across cores;
* :class:`~repro.core.remote.RemoteBackend` (in
  :mod:`repro.core.remote`) -- sharded fan-out of bank-task rounds to
  worker *hosts* over a ``struct``-framed socket protocol, for scaling
  past one machine (resolved here as ``"remote:2"`` for a localhost cluster or
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

One verb carries the determinism contract:
:meth:`ExecutionBackend.submit_round` starts one planned refill round
and returns a :class:`PendingResult` immediately -- one
``concurrent.futures.Future`` per task, whoever sets them -- so the
caller can keep planning, draining a bit pool, or submitting further
rounds while the tasks execute.  The harvest engine
(:mod:`repro.core.harvest`) submits every round through it;
:meth:`ExecutionBackend.run_round` is the blocking one-liner on top.
Because every result is a pure function of its task, *when* a result
is gathered can never change *what* it contains.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.conditioner import Sha256Conditioner
from repro.crypto.sha256 import Sha256
from repro.dram.sense_amplifier import SettleThresholds, sample_iterations
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

    Everything a worker needs travels with the task (lane thresholds,
    the segment's thermal key and first iteration, and the SIB
    slices), so the task pickles cheaply and never drags a
    :class:`~repro.dram.device.DramModule` across a process boundary.
    The probabilities the thresholds came from, and the entropy budget
    that planned the slices, stay with the generator: sampling and
    hashing depend on neither.
    """

    #: The segment's thermal-stream key (``repro.rng.derive_key``
    #: words); the worker seeds a ``SeedSequence`` from it, so the
    #: stream is a function of the draw site, not of scheduling order.
    thermal_key: Tuple[int, ...]
    #: Per-bitline lane thresholds of the bank's TRNG segment
    #: (``uint8`` ``hi``, ``uint32`` ``lo``; see
    #: :func:`~repro.dram.sense_amplifier.settle_thresholds`): the
    #: planner's cached pair, shared by every task of the slot and
    #: read-only (workers and the wire only read it).
    thresholds: SettleThresholds
    #: Iterations to sample (rows of the read-out matrix).
    iterations: int
    #: ``(start, stop)`` bit ranges of the bank's SHA input blocks:
    #: whole bytes of a whole-byte row (:func:`run_bank_task` refuses
    #: any other task).
    block_slices: Tuple[Tuple[int, int], ...]
    #: Also return the raw read-outs (for health monitoring).
    collect_raw: bool = False
    #: Index of the segment's first iteration in this task; the worker
    #: advances the thermal stream straight to it.
    first_iteration: int = 0


def packed_rows(blobs: Sequence[bytes], rows: int) -> np.ndarray:
    """Lay per-bank packed matrices side by side, iteration-major.

    ``blobs`` are row-major packed ``(rows, k)`` bit matrices whose
    rows are whole bytes (digest rows are multiples of 256 bits, raw
    rows multiples of the 512-bit cache block); the result is the
    ``(rows, total_bytes)`` ``uint8`` array whose row ``i`` is every
    bank's row ``i`` in bank order -- the packed form of the matrices
    concatenated along their columns, built without unpacking a bit.
    """
    return np.concatenate([np.frombuffer(blob, dtype=np.uint8)
                           .reshape(rows, -1) for blob in blobs], axis=1)


@dataclass(frozen=True, eq=False)
class BankResult:
    """A worker's answer to one :class:`BankTask`, always packed.

    Both matrices travel as row-major packed bytes plus their shapes,
    so a result travels 8x smaller than the bit matrices and the
    gather step can lay banks side by side as bytes
    (:func:`packed_rows`).
    """

    #: Packed ``(iterations, digest_bits)`` conditioned bits.
    digests: bytes
    #: Packed ``(iterations, raw_bits)`` raw read-outs, or ``None``
    #: unless the task asked for them.
    raw: Optional[bytes]
    #: Rows of both matrices (the task's ``iterations``).
    iterations: int
    #: Columns of the conditioned matrix (bits per iteration).
    digest_bits: int
    #: Columns of the raw matrix (segment bits; 0 without raw).
    raw_bits: int = 0


def _byte_slices(block_slices: Sequence[Tuple[int, int]],
                 width: int) -> List[Tuple[int, int]]:
    """The block slices as byte ranges of a packed ``width``-bit row.

    The one check of a task's shape: the row and every slice bound
    must be whole bytes, and every slice must satisfy ``0 <= start <
    stop <= width``.  Every task the planner makes does (rows are whole
    cache blocks, SIBs whole bytes of them); any other task raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if width % 8 or any(start % 8 or stop % 8
                        or not 0 <= start < stop <= width
                        for start, stop in block_slices):
        raise ConfigurationError(
            f"a bank task must be whole bytes, each block slice with "
            f"0 <= start < stop <= its row width; got a {width}-bit row "
            f"with block slices {tuple(block_slices)}")
    return [(start // 8, stop // 8) for start, stop in block_slices]


def run_bank_task(task: BankTask) -> BankResult:
    """Execute one bank task (module-level, so process pools can pickle
    it).

    Refuses a task that is not whole bytes (:func:`_byte_slices`)
    before drawing anything.  Otherwise samples iterations
    ``[first_iteration, first_iteration + iterations)`` of the
    segment's thermal stream and packs the read-out matrix once,
    row-major: that buffer is the result's ``raw`` when the task
    collects it.  Each SHA input block is hashed straight from a byte
    slice of its packed row
    (:meth:`~repro.crypto.conditioner.Sha256Conditioner.condition_rows`),
    which writes the digests in the result's row-major order.
    """
    width = task.thresholds.hi.size
    byte_slices = _byte_slices(task.block_slices, width)
    packed = np.packbits(sample_iterations(
        task.thresholds, task.thermal_key, task.first_iteration,
        task.iterations))
    digests = Sha256Conditioner().condition_rows(
        packed.reshape(task.iterations, width // 8), byte_slices)
    return BankResult(
        digests=digests,
        raw=packed.tobytes() if task.collect_raw else None,
        iterations=task.iterations,
        digest_bits=Sha256.DIGEST_BITS * len(task.block_slices),
        raw_bits=width if task.collect_raw else 0)


# ----------------------------------------------------------------------
# The round handle (the submit/poll half of the API)
# ----------------------------------------------------------------------

class PendingResult:
    """Handle to one :meth:`ExecutionBackend.submit_round`: a
    ``concurrent.futures.Future`` per task, in submission order.

    Poll with :meth:`done`, join with :meth:`result`.  Every backend
    returns this one class; they differ only in who sets the futures
    (the serial loop before returning, a pool's workers, or a remote
    round's dispatch loop).  ``futures`` is public, so a caller can
    read each task's outcome on its own.
    """

    def __init__(self, futures: List[Future]) -> None:
        self.futures = futures
        self._results: Optional[List] = None

    def done(self) -> bool:
        """True once every task's future is done (result or exception)."""
        return all(future.done() for future in self.futures)

    def result(self) -> List:
        """Block until complete; return results in submission order.

        Cached once it succeeds; a task's exception re-raises at every
        join, like a failed future's.
        """
        if self._results is None:
            self._results = [future.result() for future in self.futures]
        return self._results


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class ExecutionBackend(abc.ABC):
    """Runs a round of tasks through one function, preserving order.

    Implementations must be *transparent*:
    ``backend.submit_round(fn, tasks)`` returns a
    :class:`PendingResult` over one future per task, in submission
    order, so ``.result()`` is ``[fn(t) for t in tasks]`` for any
    scheduling underneath, and a task's exception surfaces at
    :meth:`PendingResult.result`, never at submit.  The conformance suite
    (``tests/core/test_backend_conformance.py``) holds every backend
    to that; :meth:`submit_round` is the one method a backend
    implements.

    Example
    -------
    >>> backend = SerialBackend()
    >>> backend.run_round(abs, [-1, -2, -3])
    [1, 2, 3]
    >>> pending = backend.submit_round(abs, [-4, 5])
    >>> pending.done()          # serial completes eagerly at submit
    True
    >>> pending.result()
    [4, 5]
    """

    #: Short name used in spec strings and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        """Start applying ``fn`` to one planned round of ``tasks``;
        return without waiting.  Results join in submission order."""

    def run_round(self, fn: Callable, tasks: Sequence) -> List:
        """Execute one round, blocking until its results."""
        return self.submit_round(fn, tasks).result()

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
    """In-process execution; the reference the pools must match.

    Rounds run eagerly at submit: every future is set (a result, or
    the task's exception) before the handle is returned.
    """

    name = "serial"

    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        futures = []
        for task in tasks:
            future = Future()
            try:
                future.set_result(fn(task))
            except Exception as exc:
                future.set_exception(exc)
            futures.append(future)
        return PendingResult(futures)


class _PooledBackend(ExecutionBackend):
    """A shared ``concurrent.futures`` pool, built lazily."""

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

    def submit_round(self, fn: Callable, tasks: Sequence) -> PendingResult:
        pool = self._ensure_pool()
        return PendingResult([pool.submit(fn, task) for task in tasks])

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
    """Thread-pool execution (overlaps the GIL-released numpy kernels)."""

    name = "thread"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessPoolBackend(_PooledBackend):
    """Process-pool execution for full multi-core scaling."""

    name = "process"

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
