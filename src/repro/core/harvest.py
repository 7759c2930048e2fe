"""The harvest engine: the one refill loop every generator runs.

QUAC-TRNG's headline throughput comes from keeping the DRAM banks busy
back to back; the simulator's batched engine mirrors that with planned
refill rounds of per-bank tasks.  Every generator
(:class:`~repro.core.trng.QuacTrng`,
:class:`~repro.core.multichannel.SystemTrng`,
:class:`~repro.core.temperature_manager.TemperatureManagedTrng`) is a
:class:`HarvestPlanner` over a list of channels (one
:class:`~repro.core.trng.QuacTrng` each) and their optional health
monitors, and differs from the others only in how it builds that list;
one round planner and one gather step serve them all, and one
:class:`AsyncHarvestEngine` tops up the serving pool:

* **Planning stays serial.**  Every round is planned in the caller --
  each task claims the next iterations of its segment's thermal-stream
  cursor in plan order -- so nothing about *when* a round executes can
  change *what* it produces.
* **At most one round is in flight.**  A planned round is submitted
  through :meth:`~repro.core.parallel.ExecutionBackend.submit_round`
  and gathered when its results land.  By default each fill is the
  synchronous loop: plan, execute, gather.  ``async_harvest=True``
  adds one step: after each fill the engine commits the next
  request's opening round, so the backend's workers execute it while
  the consumer works.
* **One pool.**  A landed round's rows are appended straight to the
  generator's serving :class:`~repro.bitops.BitBuffer`, behind
  whatever it still holds; there is no other buffer.

Determinism contract
--------------------

A planner's stream is a sequence of *units*: unit ``u`` is iteration
``u // C`` of channel ``u % C`` (``C`` channels), so units run
iteration-major and channel-minor -- the paper's system model, where
every channel runs every iteration.  Each round claims the next units
``[u0, u1)`` and pools their rows in unit order, and iteration ``k``
of a segment is a pure function of (module seed, segment, ``k``), so
the stream is a pure function of (seeds, unit): round sizes decide
only *when* a unit is generated, never *what* it is or where it lands.
Request splits and ``async_harvest`` (which commits the next round
before the next request arrives, sized as if the previous request
repeats) therefore never change a bit, on any backend at any worker
count.  :meth:`AsyncHarvestEngine.cancel_pending` hands a discarded
round's units back to the channels' cursors, so the next round claims
them again.  A round whose join raises (say, every remote worker lost)
is handed back the same way and the exception propagates; the next
fill claims those units again.
Only a health alarm (below) drops units, and the stream skips them
rather than replaying them.
``tests/core/test_stream_partition.py`` and the golden streams of
``tests/test_determinism.py`` pin this.

Each round's deficit is the requested bits minus what the pool
already holds; a round's yield is exact arithmetic, known at plan
time.

Health monitoring
-----------------

A planner with per-channel monitors applies their verdicts when an
in-flight round *lands*.  A channel whose monitor alarms contributes
no rows for that round; every other channel's rows are appended to
the pool in unit order **before** the round's first
:class:`~repro.core.health.HealthTestFailure` re-raises, so an alarm
never destroys bits that healthy channels already earned.  Nothing is
in flight when the alarm propagates; the next fill plans afresh.

Example
-------

>>> from repro.core.trng import QuacTrng
>>> from repro.dram.geometry import DramGeometry
>>> from repro.dram.module_factory import build_module, spec_by_name
>>> geometry = DramGeometry.small(segments_per_bank=16,
...                               cache_blocks_per_row=4)
>>> module = build_module(spec_by_name("M13"), geometry)
>>> trng = QuacTrng(module, async_harvest=True,
...                 entropy_per_block=256.0 * geometry.row_bits / 65536)
>>> bits = trng.random_bits(4096)          # and commits the next round
>>> int(bits.size)
4096
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.bitops import BitBuffer
from repro.core.parallel import (BankResult, BankTask, ExecutionBackend,
                                 PendingResult, run_bank_task)
from repro.errors import (ConfigurationError, HealthTestFailure,
                          InsufficientEntropyError, ReproError)

#: Cap on iterations one channel draws in one round: bounds the
#: transient read-out matrix to ~64 MB per bank at full-scale geometry
#: while still amortizing per-batch costs (RNG construction, task
#: dispatch) over a thousand iterations.
MAX_BATCH_ITERATIONS = 1024

#: Cap on raw read-out *bits* a monitored channel draws in one round
#: (64 Mi bits, 8 MiB packed): its tasks carry every bank's full raw
#: matrix, packed, alongside the conditioned bits, so its share of a
#: round is also bounded by raw volume.
MAX_MONITORED_RAW_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ChannelSpan:
    """One channel's slice of a harvest round's task list.

    The round's tasks are laid out channel-major; a span records which
    contiguous task range belongs to which channel so the gather step
    can monitor and pool each channel independently.
    """

    #: Planner-level channel index (0 for single-channel planners).
    channel: int
    #: Iterations this channel contributes to the round (contiguous,
    #: from its tasks' ``first_iteration``).
    iterations: int
    #: ``[start, stop)`` range into the round's task (and result) list.
    start: int
    stop: int


@dataclass
class HarvestRound:
    """One planned refill round: the tasks, their layout, and the yield.

    A round is *fully determined at plan time*: executing its tasks on
    any backend, in any order, produces the same results, and its yield
    (``yield_bits``) is exact arithmetic.
    """

    #: Per-bank tasks, channel-major (see ``spans``).
    tasks: List[BankTask]
    #: Channel layout of ``tasks``.
    spans: List[ChannelSpan]
    #: Conditioned bits the round pools if every channel is healthy.
    yield_bits: int
    #: In-flight handle, set once the engine submits the round.
    pending: Optional[PendingResult] = field(default=None, repr=False)


class HarvestPlanner:
    """Base of every generator: plans rounds, serves a pooled stream.

    A planner is the *deterministic* half of a generator, over
    ``channels``, a list of :class:`~repro.core.trng.QuacTrng`, and
    ``monitors``, one optional
    :class:`~repro.core.health.HealthMonitor` per channel (``None``
    leaves every channel unmonitored); a ``monitors`` list of another
    length raises :class:`~repro.errors.ConfigurationError`.  It owns
    everything else, written once for every generator: the round
    planner (:meth:`plan_round`) and gather step (:meth:`gather_round`),
    the serving pool, the :class:`AsyncHarvestEngine` that fills it,
    and :meth:`random_bits` / :meth:`random_bytes` / :meth:`iter_bytes`.
    Subclasses only build the channels.
    """

    def __init__(self, backend: ExecutionBackend, channels: Sequence,
                 monitors: Optional[Sequence] = None,
                 async_harvest: bool = False) -> None:
        self.backend = backend
        self.channels = list(channels)
        if monitors is None:
            monitors = [None] * len(self.channels)
        if len(monitors) != len(self.channels):
            raise ConfigurationError(
                f"got {len(monitors)} monitors for "
                f"{len(self.channels)} channels")
        self.monitors = list(monitors)
        #: Commit the next request's opening round after each fill, so
        #: it executes while the consumer works (same bits).
        self.async_harvest = async_harvest
        self._pool = BitBuffer()
        #: The engine that fills the serving pool; exposed for
        #: introspection (``pending_rounds``, ``in_flight_bits``) and
        #: teardown (``cancel_pending``).
        self.harvest_engine = AsyncHarvestEngine(self)

    def plan_round(self, deficit_bits: int) -> HarvestRound:
        """Plan one refill round: the next units toward ``deficit_bits``.

        The round claims units ``[u0, u1)`` (see the module docstring).
        ``u0`` is the first unclaimed unit, ``min(cursor_c * C + c)``
        over the channels' segment cursors; ``u1`` is the smallest end
        whose yield covers the deficit, but no channel draws more than
        :data:`MAX_BATCH_ITERATIONS` iterations (a monitored one no
        more than :data:`MAX_MONITORED_RAW_BYTES` raw bits) per round.
        A channel's share is contiguous, so each channel is one
        :meth:`~repro.core.trng.QuacTrng.plan_batch` call, planned
        serially in channel order; monitored channels' tasks collect
        their raw read-outs for :meth:`gather_round`.
        """
        n = len(self.channels)
        cursors = [channel.cursors()[0] for channel in self.channels]
        u0 = min(k * n + c for c, k in enumerate(cursors))
        u1_max = min((k + self._cap(c)) * n + c
                     for c, k in enumerate(cursors))

        def counts(end: int) -> List[int]:
            # Channel c's units below ``end``, less those claimed.
            return [max(0, -(-(end - c) // n) - k)
                    for c, k in enumerate(cursors)]

        def yield_bits(end: int) -> int:
            return sum(count * channel.bits_per_iteration
                       for count, channel in zip(counts(end), self.channels))

        ends = range(u0 + 1, u1_max)
        u1 = ends.start + bisect_left(ends, deficit_bits, key=yield_bits)
        tasks: List[BankTask] = []
        spans: List[ChannelSpan] = []
        for c, count in enumerate(counts(u1)):
            if count:
                bank_tasks = self.channels[c].plan_batch(
                    count, collect_raw=self.monitors[c] is not None)
                spans.append(ChannelSpan(c, count, len(tasks),
                                         len(tasks) + len(bank_tasks)))
                tasks.extend(bank_tasks)
        return HarvestRound(tasks=tasks, spans=spans,
                            yield_bits=yield_bits(u1))

    def _cap(self, c: int) -> int:
        """Most iterations channel ``c`` draws in one round."""
        if self.monitors[c] is None:
            return MAX_BATCH_ITERATIONS
        channel = self.channels[c]
        raw_bits = channel.configuration.n_banks * \
            channel.module.geometry.row_bits
        return max(1, min(MAX_BATCH_ITERATIONS,
                          MAX_MONITORED_RAW_BYTES // raw_bits))

    def gather_round(self, round_: HarvestRound,
                     results: List[BankResult],
                     pool: BitBuffer) -> Optional[ReproError]:
        """Account a landed round: monitor, then pool rows in unit order.

        Each monitored channel's raw read-outs are checked first.  A
        channel whose monitor alarms contributes no rows; the round's
        first :class:`~repro.core.health.HealthTestFailure` is
        *returned*, not raised, so the engine pools the healthy
        channels' rows before re-raising it.

        Between consecutive starts and ends of the channels' iteration
        ranges the same channels are present, so each such stretch of
        system iterations is one ``np.concatenate`` of the banks'
        packed rows, side by side in channel and bank order: the whole
        system iterations in the middle of a round in one piece, a
        partial first or last system iteration in one piece each.
        """
        failure: Optional[ReproError] = None
        live = []    # (first iteration, stop, per-bank packed rows)
        for span in round_.spans:
            chunk = results[span.start:span.stop]
            monitor = self.monitors[span.channel]
            if monitor is not None:
                try:
                    monitor.check_bank_results(chunk, span.iterations)
                except HealthTestFailure as exc:
                    failure = failure or exc
                    continue
            first = round_.tasks[span.start].first_iteration
            live.append((first, first + span.iterations,
                         [np.frombuffer(result.digests, dtype=np.uint8)
                          .reshape(span.iterations, -1)
                          for result in chunk]))
        edges = sorted({edge for first, stop, _ in live
                        for edge in (first, stop)})
        for a, b in zip(edges, edges[1:]):
            rows = [bank[a - first:b - first]
                    for first, stop, banks in live
                    if first <= a and b <= stop for bank in banks]
            if rows:
                pool.append_bytes(np.concatenate(rows, axis=1))
        return failure

    def unclaim_round(self, round_: HarvestRound) -> None:
        """Hand a discarded round's units back to the channels' cursors.

        Rewinds each channel to its share's first iteration, so the
        next round plans exactly the units this one claimed.
        """
        for span in round_.spans:
            self.channels[span.channel].unclaim(
                round_.tasks[span.start:span.stop])

    def random_bits(self, n_bits: int) -> np.ndarray:
        """Generate exactly ``n_bits`` conditioned random bits.

        Surplus conditioned bits stay pooled (packed) and are served
        first on the next call, so consecutive draws never regenerate.
        """
        if n_bits < 0:
            raise InsufficientEntropyError("bit count must be non-negative")
        self._refill(n_bits)
        return self._pool.take(n_bits)

    def random_bytes(self, n_bytes: int) -> bytes:
        """Generate ``n_bytes`` of conditioned output.

        Served through the pool's packed byte path -- the bits are
        never unpacked on the way out.
        """
        if n_bytes < 0:
            raise InsufficientEntropyError("byte count must be non-negative")
        self._refill(8 * n_bytes)
        return self._pool.take_bytes(n_bytes)

    def iter_bytes(self, chunk_size: int) -> Iterator[bytes]:
        """Stream conditioned output as ``chunk_size``-byte chunks.

        An endless generator for bulk consumers (file writers, NIST
        batch runs).
        """
        if chunk_size <= 0:
            raise ConfigurationError(
                f"chunk size must be positive, got {chunk_size}")
        while True:
            yield self.random_bytes(chunk_size)

    def _refill(self, n_bits: int) -> None:
        """Top the serving pool up to ``n_bits``."""
        self.harvest_engine.fill(self._pool, n_bits)


class AsyncHarvestEngine:
    """Fill the serving pool from rounds on a backend, one at a time.

    Parameters
    ----------
    planner:
        The generator's deterministic half (see :class:`HarvestPlanner`).
        Rounds are submitted to its ``backend``: with the serial
        backend they complete at submit time (the reference
        behaviour); thread pools, process pools, and remote worker
        clusters genuinely overlap.  A remote round that loses a
        worker host mid-flight is requeued inside the backend -- the
        engine just sees the round land later, with identical bits.

    The engine holds **at most one round in flight**, and the
    planner's ``async_harvest`` is its one switch.  Off, :meth:`fill`
    is the synchronous loop (plan, execute, gather) and leaves nothing
    in flight.  On, each fill then commits the next request's opening
    round, sized as if the request repeats, so it executes while the
    consumer works; the next fill gathers it first.  A wrong guess
    changes round sizes, never bits.

    Determinism
    -----------
    ``fill`` produces the same pool contents in either mode and for
    any request sequence; the switch only changes *when* work happens.
    """

    def __init__(self, planner: HarvestPlanner) -> None:
        self.planner = planner
        self.backend = planner.backend
        self._round: Optional[HarvestRound] = None
        #: Lifetime statistics (rounds planned / gathered / discarded).
        self.rounds_planned = 0
        self.rounds_gathered = 0
        self.rounds_cancelled = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_rounds(self) -> int:
        """Rounds submitted but not yet gathered: 0 or 1."""
        return int(self._round is not None)

    def in_flight_bits(self) -> int:
        """Exact conditioned-bit yield of the in-flight round, if any."""
        return 0 if self._round is None else self._round.yield_bits

    def __repr__(self) -> str:
        return (f"AsyncHarvestEngine(pending_rounds={self.pending_rounds}"
                f", in_flight_bits={self.in_flight_bits()}, "
                f"async_harvest={self.planner.async_harvest})")

    # ------------------------------------------------------------------
    # The fill loop
    # ------------------------------------------------------------------

    def fill(self, pool: BitBuffer, n_bits: int) -> None:
        """Top ``pool`` (the serving pool) up to ``n_bits``.

        Gathers the in-flight round, if any, and then plans, executes
        and gathers one round at a time until the pool covers
        ``n_bits``; each landed round goes straight into the pool, in
        plan order.  Under ``async_harvest`` it then commits the next
        request's opening round (:meth:`_prime` of ``2 * n_bits`` less
        the pool).

        Raises a landed round's health failure *after* pooling its
        healthy channels' bits; nothing is left in flight, and the
        next fill plans afresh.  A round whose join raises hands its
        units back to the cursors and re-raises.
        """
        if n_bits < 0:
            raise InsufficientEntropyError("bit count must be non-negative")
        while len(pool) < n_bits:
            # The pool is short, so priming leaves a round in flight
            # (the one already out, or a new one) for the gather.
            self._prime(n_bits - len(pool))
            failure = self._gather(pool)
            if failure is not None:
                raise failure
        if self.planner.async_harvest:
            self._prime(2 * n_bits - len(pool))

    def _prime(self, needed_bits: int) -> None:
        """Plan and submit a round toward ``needed_bits``, if none is out.

        ``needed_bits`` counts bits needed beyond the serving pool.
        Planning happens here, serially, in the consumer -- the
        determinism contract's anchor.
        """
        if self._round is None and needed_bits > 0:
            round_ = self.planner.plan_round(needed_bits)
            round_.pending = self.backend.submit_round(run_bank_task,
                                                       round_.tasks)
            self._round = round_
            self.rounds_planned += 1

    def _gather(self, pool: BitBuffer) -> Optional[ReproError]:
        """Join the in-flight round into ``pool``."""
        round_, self._round = self._round, None
        try:
            results = round_.pending.result()
        except Exception:
            # The round never lands: hand its units back, so the next
            # fill claims them again.
            self.planner.unclaim_round(round_)
            raise
        self.rounds_gathered += 1
        return self.planner.gather_round(round_, results, pool)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def cancel_pending(self) -> int:
        """Join and discard the in-flight round; return 0 or 1.

        The one teardown verb, also used to abandon an ``async_harvest``
        guess or a temperature range's backlog: the round's results
        are dropped, *not* pooled, and its units go back to the
        channels' cursors (:meth:`HarvestPlanner.unclaim_round`), so
        the next fill plans them again and the stream stays equal to a
        run that never cancelled.  Safe to call with the backend
        already closed (pooled backends finish submitted work before
        closing).
        """
        round_, self._round = self._round, None
        if round_ is None:
            return 0
        try:
            round_.pending.result()
        except Exception:
            pass  # a discarded round's failure is moot
        self.planner.unclaim_round(round_)
        self.rounds_cancelled += 1
        return 1
