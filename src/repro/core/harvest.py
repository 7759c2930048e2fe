"""The harvest engine: the one refill loop every generator runs.

QUAC-TRNG's headline throughput comes from keeping the DRAM banks busy
back to back; the simulator's batched engine mirrors that with planned
refill rounds of per-bank tasks.  Every generator
(:class:`~repro.core.trng.QuacTrng`,
:class:`~repro.core.multichannel.SystemTrng`,
:class:`~repro.core.health.MonitoredTrng`,
:class:`~repro.core.temperature_manager.TemperatureManagedTrng`) is a
:class:`HarvestPlanner` over a list of channels (one
:class:`~repro.core.trng.QuacTrng` each) and their optional health
monitors; one round planner and one gather step serve them all, and
one :class:`AsyncHarvestEngine` tops up the serving pool:

* **Planning stays serial.**  Every round is planned in the caller --
  each task claims the next iterations of its segment's thermal-stream
  cursor in plan order -- so nothing about *when* a round executes can
  change *what* it produces.
* **Execution may be in flight.**  Planned rounds are submitted through
  :meth:`~repro.core.parallel.ExecutionBackend.submit_round` and
  gathered, oldest first, when their results land.
  ``max_in_flight=1`` (a generator's default) is the synchronous loop:
  plan, execute, gather.  ``async_harvest=True`` allows two rounds, so
  the backend's workers fill the next round while the consumer drains
  the previous one.
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
Request splits, ``max_in_flight`` and :attr:`AsyncHarvestEngine.
readahead` (which commits the next round before the next request
arrives, sized as if the previous request repeats) therefore never
change a bit, on any backend at any worker count.
:meth:`AsyncHarvestEngine.cancel_pending` hands a discarded round's
units back to the channels' cursors, so the next round claims them
again.  A round whose join raises (say, every remote worker lost) is
handed back the same way, with every later round still in flight, and
the exception propagates; the next fill claims those units again.
Only a health alarm (below) drops units, and the stream skips them
rather than replaying them.
``tests/core/test_stream_partition.py`` and the golden streams of
``tests/test_determinism.py`` pin this.

Each round's deficit is the requested bits minus what is already
committed: the pool plus the in-flight rounds' exact yields, known at
plan time because a round's yield is exact arithmetic.

Health monitoring
-----------------

A planner with per-channel monitors applies their verdicts when an
in-flight round *lands*.  A channel whose monitor alarms contributes
no rows for that round; every other channel's rows are appended to
the pool in unit order **before** the round's first
:class:`~repro.core.health.HealthTestFailure` re-raises, so an alarm
never destroys bits that healthy channels already earned.  Rounds
still in flight when the alarm propagates stay queued and are gathered
by the next fill (or handed back by :meth:`
AsyncHarvestEngine.cancel_pending`).

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
>>> bits = trng.random_bits(4096)          # rounds overlap on the backend
>>> int(bits.size)
4096
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional

import numpy as np

from repro.bitops import BitBuffer
from repro.core.parallel import (BankResult, BankTask, ExecutionBackend,
                                 PendingResult, run_bank_task)
from repro.errors import (ConfigurationError, HealthTestFailure,
                          InsufficientEntropyError, ReproError)

#: Cap on iterations one channel draws in one round: bounds the
#: transient read-out matrix to ~64 MB per bank at full-scale geometry
#: while still amortizing per-batch costs (segment probabilities, RNG
#: construction) over a thousand iterations.
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
    (``yield_bits``) is exact arithmetic -- which is what lets the
    engine plan further rounds before this one lands.
    """

    #: Per-bank tasks, channel-major (see ``spans``).
    tasks: List[BankTask]
    #: Channel layout of ``tasks``.
    spans: List[ChannelSpan]
    #: Conditioned bits the round pools if every channel is healthy.
    yield_bits: int
    #: In-flight handle, set once the engine submits the round.
    pending: Optional[PendingResult] = field(default=None, repr=False)
    #: Planner-private context carried through execution untouched --
    #: e.g. the temperature range a round was planned under, so
    #: :meth:`HarvestPlanner.gather_round` can tell whether a landing
    #: round's plans still cover the sensor reading.
    context: Optional[object] = field(default=None, repr=False)


class HarvestPlanner:
    """Base of every generator: plans rounds, serves a pooled stream.

    A planner is the *deterministic* half of a generator.  Subclasses
    name what it plans over -- ``channels``, a list of
    :class:`~repro.core.trng.QuacTrng`, and ``monitors``, one optional
    :class:`~repro.core.health.HealthMonitor` per channel -- and call
    ``super().__init__(backend, async_harvest)``.  This base class owns
    the rest, written once for every generator: the round planner
    (:meth:`plan_round`) and gather step (:meth:`gather_round`), the
    serving pool, the lazily built :class:`AsyncHarvestEngine` that
    fills it, and :meth:`random_bits` / :meth:`random_bytes` /
    :meth:`iter_bytes`.
    """

    def __init__(self, backend: ExecutionBackend,
                 async_harvest: bool = False) -> None:
        self.backend = backend
        #: Keep two rounds in flight instead of one (same bits).
        self.async_harvest = async_harvest
        self._pool = BitBuffer()
        self._harvest_engine: Optional[AsyncHarvestEngine] = None

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

    @property
    def harvest_engine(self) -> AsyncHarvestEngine:
        """The engine that fills the serving pool.

        Built lazily on first use, with one round in flight (two with
        ``async_harvest``); exposed for introspection
        (``pending_rounds``, ``in_flight_bits``), readahead control, and
        teardown (``cancel_pending`` / ``drain``).
        """
        if self._harvest_engine is None:
            self._harvest_engine = AsyncHarvestEngine(
                self, self.backend,
                max_in_flight=2 if self.async_harvest else 1)
        return self._harvest_engine

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
    """Overlap round planning/gathering with execution on a backend.

    Parameters
    ----------
    planner:
        The generator's deterministic half (see :class:`HarvestPlanner`).
    backend:
        Execution backend rounds are submitted to.  With the serial
        backend rounds complete at submit time (the reference
        behaviour); thread pools, process pools, and remote worker
        clusters genuinely overlap.  A remote round that loses a
        worker host mid-flight is requeued inside the backend -- the
        engine just sees the round land later, with identical bits.
    max_in_flight:
        Outstanding-round bound: 1 is the synchronous loop (plan,
        execute, gather), 2 lets one round execute while the consumer
        drains the pool the previous one filled.
    readahead:
        Commit the next draw's first rounds speculatively after each
        fill, sized as if the previous request repeats.  A wrong guess
        changes round sizes, never bits.

    Determinism
    -----------
    ``fill`` produces the same pool contents for any ``max_in_flight``,
    any readahead and any request sequence; they only change *when*
    work happens.
    """

    def __init__(self, planner: HarvestPlanner, backend: ExecutionBackend,
                 max_in_flight: int = 2, readahead: bool = False) -> None:
        if max_in_flight < 1:
            raise ConfigurationError(
                f"need at least one in-flight round, got {max_in_flight}")
        self.planner = planner
        self.backend = backend
        self.max_in_flight = max_in_flight
        self.readahead = readahead
        self._in_flight: Deque[HarvestRound] = deque()
        #: Lifetime statistics (rounds planned / gathered / discarded).
        self.rounds_planned = 0
        self.rounds_gathered = 0
        self.rounds_cancelled = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_rounds(self) -> int:
        """Rounds submitted but not yet gathered."""
        return len(self._in_flight)

    def in_flight_bits(self) -> int:
        """Exact conditioned-bit yield of every in-flight round."""
        return sum(round_.yield_bits for round_ in self._in_flight)

    def __repr__(self) -> str:
        return (f"AsyncHarvestEngine({self.pending_rounds} rounds in "
                f"flight, {self.in_flight_bits()} bits committed, "
                f"readahead={self.readahead})")

    # ------------------------------------------------------------------
    # The fill loop
    # ------------------------------------------------------------------

    def fill(self, pool: BitBuffer, n_bits: int) -> None:
        """Top ``pool`` (the serving pool) up to ``n_bits``.

        Plans and submits rounds until the pool plus the in-flight
        rounds' yields cover ``n_bits`` (at most :attr:`max_in_flight`
        rounds outstanding), and gathers landed rounds straight into
        the pool -- in plan order, so the pool fills with the same bits
        whatever the in-flight bound.

        Raises the first deferred health failure of a landing round
        *after* pooling that round's healthy channels' bits; rounds
        still in flight stay queued for the next fill.  A round whose
        join raises re-raises that exception after its units and the
        later rounds' are handed back (:meth:`cancel_pending`).
        """
        if n_bits < 0:
            raise InsufficientEntropyError("bit count must be non-negative")
        stalls = 0
        while len(pool) < n_bits:
            self._prime(n_bits - len(pool))
            before = len(pool)
            if self._in_flight:
                failure = self._gather(pool)
                if failure is not None:
                    raise failure
            # A pass makes progress when the round changed the pool
            # (a planner may flush stale bits at gather, so it can
            # shrink) or rounds are still in flight.  A fruitless pass
            # gets one replan: a legitimately *discarded* round -- e.g.
            # a temperature-managed round landing after a sensor
            # excursion -- is followed by a fresh round planned under
            # the new conditions.  Two in a row means the planner
            # covers no part of the deficit.
            if len(pool) != before or self._in_flight:
                stalls = 0
                continue
            stalls += 1
            if stalls >= 2:
                raise InsufficientEntropyError(
                    f"planner covered no part of a {n_bits - len(pool)}"
                    f"-bit deficit")
        if self.readahead:
            # Commit the assumed-repeat draw's opening rounds so they
            # execute while the consumer drains what we just served.
            self._prime(2 * n_bits - len(pool))

    def _prime(self, needed_bits: int) -> None:
        """Plan/submit rounds until committed bits cover ``needed_bits``.

        ``needed_bits`` counts bits needed beyond the serving pool;
        in-flight rounds count toward it with their exact yields.
        Planning happens here, serially, in the consumer -- the
        determinism contract's anchor.
        """
        committed = self.in_flight_bits()
        while (committed < needed_bits
               and len(self._in_flight) < self.max_in_flight):
            round_ = self.planner.plan_round(needed_bits - committed)
            round_.pending = self.backend.submit_round(run_bank_task,
                                                       round_.tasks)
            self._in_flight.append(round_)
            self.rounds_planned += 1
            committed += round_.yield_bits

    def _gather(self, pool: BitBuffer) -> Optional[ReproError]:
        """Join the oldest in-flight round into ``pool``."""
        round_ = self._in_flight.popleft()
        try:
            results = round_.pending.result()
        except Exception:
            # The round never lands: hand its units back, and the later
            # rounds' too, so the next fill claims them again in order.
            self.planner.unclaim_round(round_)
            self.cancel_pending()
            raise
        self.rounds_gathered += 1
        return self.planner.gather_round(round_, results, pool)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def cancel_pending(self) -> int:
        """Join and discard every in-flight round; return the count.

        For teardown (or abandoning a readahead guess): the rounds'
        results are dropped, *not* pooled, and their units go back to
        the channels' cursors (:meth:`HarvestPlanner.unclaim_round`),
        so the next fill plans them again and the stream stays equal
        to a run that never cancelled.  Safe to call with the backend
        already closed (pooled backends finish submitted work before
        closing).
        """
        cancelled = 0
        while self._in_flight:
            round_ = self._in_flight.popleft()
            try:
                round_.pending.result()
            except Exception:
                pass  # a discarded round's failure is moot
            self.planner.unclaim_round(round_)
            cancelled += 1
        self.rounds_cancelled += cancelled
        return cancelled

    def drain(self, pool: BitBuffer) -> Optional[ReproError]:
        """Gather every in-flight round into ``pool`` without waiting
        for a request.

        The graceful counterpart of :meth:`cancel_pending`: planned
        entropy is kept (pooled bits serve later draws), so a drained
        engine's stream stays bit-identical to an undrained one.
        Returns the first deferred health failure instead of raising,
        so teardown code can log and continue.
        """
        failure = None
        while self._in_flight:
            exc = self._gather(pool)
            failure = failure or exc
        return failure
