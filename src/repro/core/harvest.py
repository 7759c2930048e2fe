"""Asynchronous double-buffered harvest engine.

QUAC-TRNG's headline throughput comes from keeping the DRAM banks busy
back to back; the simulator's batched engine (PR 1) and multi-bank
fan-out (PR 2) mirror that, but a synchronous ``random_bits`` still
*blocks* on plan -> execute -> gather for every refill round.  This
module overlaps those stages:

* **Planning stays serial.**  Every round is planned in the caller --
  each task claims the next iterations of its segment's thermal-stream
  cursor in plan order -- so nothing about *when* a round executes can
  change *what* it produces.
* **Execution is in flight.**  Planned rounds are submitted through
  :meth:`~repro.core.parallel.ExecutionBackend.submit_round` (which
  decomposes into ``submit_map`` on in-process backends and ships
  whole round shards per host on the remote round protocol) and
  gathered when their results land, so the backend's workers fill the
  next round while the consumer drains the previous one.
* **Buffers are double.**  Gathered bits land in a *back*
  :class:`~repro.bitops.BitBuffer`; the consumer drains the *front*
  buffer (the generator's serving pool); when the front drains, the
  buffers swap in O(1).
* **Results ship packed where pickles cross process or host
  boundaries.**  On backends that pickle results (the process pool and
  the remote socket backend of :mod:`repro.core.remote`), engine
  rounds are planned with ``pack_output=True``: workers accumulate
  conditioned bits (and raw read-outs, on monitored channels) into
  packed byte pools worker-side and ship only bytes plus counts -- an
  8x smaller result pickle (and socket frame) for
  multi-hundred-megabit draws.  In-memory backends skip the packing
  (pure overhead there); either way the bits are identical.

Determinism contract
--------------------

The engine plans rounds with *exactly the arithmetic the synchronous
path uses*: each round's deficit is the requested bits minus everything
already committed (front pool + back buffer + in-flight rounds' exact
yields, all known at plan time because a round's yield is
``iterations x bits_per_iteration``).  The planned round sequence is
therefore a pure function of the request sequence, identical to the
synchronous path's -- and since every task result is a pure function of
the task, **async harvest output is bit-identical to synchronous
output** for any request sequence, on every backend, at every worker
count.  ``tests/test_determinism.py`` replays the golden streams
through the engine to pin this.

:attr:`AsyncHarvestEngine.readahead` commits the next round *before*
the next request arrives, sized as if the previous request repeats.
A wrong guess changes round sizes, never bits, for a single-channel
planner: iteration ``k`` of a segment is a pure function of (module
seed, segment, ``k``) and a channel's rounds claim its iterations in
order, so a :class:`~repro.core.trng.QuacTrng` serves the same stream
with or without readahead, for any request sequence.  What round
sizing still decides is the *interleaving* of a
:class:`~repro.core.multichannel.SystemTrng`: each round gives every
scheduled channel a fair share of the deficit in round-robin order,
so with readahead and varying request sizes the system stream
interleaves the (unchanged) per-channel streams differently from a
synchronous run -- still reproducible for the same request sequence.
For constant-size requests (``iter_bytes``, the streaming hot path)
the system stream equals the synchronous one too.

Health monitoring
-----------------

A planner with per-channel monitors applies their verdicts when an
in-flight round *lands*: every healthy channel's bits are appended to
the back buffer (and swapped to the front) **before** the first
:class:`~repro.core.health.HealthTestFailure` of the round re-raises,
so an alarm never destroys bits that healthy channels already earned.
Rounds still in flight when the alarm propagates stay queued and are
gathered by the next fill (or discarded by :meth:`
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

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.bitops import BitBuffer
from repro.core.parallel import (BankResult, BankTask, ExecutionBackend,
                                 PendingResult, run_bank_task)
from repro.errors import InsufficientEntropyError, ReproError


@dataclass(frozen=True)
class ChannelSpan:
    """One channel's slice of a harvest round's task list.

    The round's tasks are laid out channel-major; a span records which
    contiguous task range belongs to which channel so the gather step
    can monitor and pool each channel independently.
    """

    #: Planner-level channel index (0 for single-channel planners).
    channel: int
    #: Iterations this channel contributes to the round.
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
    """Protocol the engine drives (duck-typed; inheritance optional).

    :class:`~repro.core.trng.QuacTrng` and
    :class:`~repro.core.multichannel.SystemTrng` both implement it --
    a planner is the *deterministic* half of a generator: it decides
    round sizes, claims iterations (serially, advancing the segments'
    cursors), and knows how to account a landed round's results.
    """

    def plan_round(self, deficit_bits: int,
                   pack_output: bool = False) -> HarvestRound:
        """Plan one refill round toward ``deficit_bits`` outstanding bits.

        Must advance the segments' iteration cursors exactly as the
        synchronous path would, and must return a round with ``yield_bits >= 1``
        iteration's worth of output for any positive deficit.
        """
        raise NotImplementedError

    def gather_round(self, round_: HarvestRound,
                     results: List[BankResult],
                     pool: BitBuffer) -> Optional[ReproError]:
        """Account a landed round: monitor, then pool healthy bits.

        Appends every healthy channel's conditioned bits to ``pool`` in
        span order.  A health alarm must not be raised here -- it is
        *returned* (the first one, matching the synchronous path), so
        the engine can pool the healthy channels' bits first and
        re-raise afterwards.
        """
        raise NotImplementedError


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
        Outstanding-round bound; the default 2 is the double buffer --
        one round being gathered/drained (front), one executing (back).
    readahead:
        Commit the next draw's first rounds speculatively after each
        fill, sized as if the previous request repeats.  Bit-identical
        to the synchronous path for single-channel planners and for
        constant-size request streams; see the module docstring for
        what differs on multi-channel systems.
    pack_results:
        Plan rounds with worker-side packed byte pools.  ``None`` (the
        default) packs exactly when the backend pickles results across
        a process boundary
        (:attr:`~repro.core.parallel.ExecutionBackend.ships_pickled_results`)
        -- packing buys an 8x smaller pickle there, but is pure
        overhead for in-memory backends.  Either setting ships the
        same bits.

    Determinism
    -----------
    ``fill`` produces the same pool contents as the synchronous
    plan/execute/gather loop for any request sequence (with
    ``readahead=False``, or with any readahead on a single-channel
    planner); the engine only changes *when* work happens.
    """

    def __init__(self, planner: HarvestPlanner, backend: ExecutionBackend,
                 max_in_flight: int = 2, readahead: bool = False,
                 pack_results: Optional[bool] = None) -> None:
        if max_in_flight < 1:
            raise InsufficientEntropyError(
                f"need at least one in-flight round, got {max_in_flight}")
        self.planner = planner
        self.backend = backend
        self.max_in_flight = max_in_flight
        self.readahead = readahead
        if pack_results is None:
            pack_results = getattr(backend, "ships_pickled_results", False)
        self.pack_results = pack_results
        self._back = BitBuffer()
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

    def back_bits(self) -> int:
        """Bits gathered into the back buffer, not yet swapped forward."""
        return len(self._back)

    def committed_bits(self) -> int:
        """Bits already earned beyond the serving pool (back + in flight)."""
        return self.back_bits() + self.in_flight_bits()

    def __repr__(self) -> str:
        return (f"AsyncHarvestEngine({self.pending_rounds} rounds in "
                f"flight, {self.back_bits()} bits buffered, "
                f"readahead={self.readahead})")

    # ------------------------------------------------------------------
    # The double-buffered fill loop
    # ------------------------------------------------------------------

    def fill(self, pool: BitBuffer, n_bits: int) -> None:
        """Top ``pool`` (the front buffer) up to ``n_bits``.

        Plans and submits rounds until the committed bits cover the
        deficit (at most :attr:`max_in_flight` rounds outstanding),
        gathers landed rounds into the back buffer, and swaps the back
        buffer forward -- all in plan order, so the pool fills with
        exactly the bits the synchronous path would have produced.

        Raises the first deferred health failure of a landing round
        *after* pooling that round's healthy channels' bits; rounds
        still in flight stay queued for the next fill.
        """
        if n_bits < 0:
            raise InsufficientEntropyError("bit count must be non-negative")
        stalls = 0
        while len(pool) < n_bits:
            self._prime(n_bits - len(pool))
            failure = None
            gathered = 0
            if self._in_flight:
                back_before = len(self._back)
                failure = self._gather_next()
                # The round's own contribution -- robust even when a
                # planner flushes buffers at gather (the temperature
                # manager discards a stale range's surplus), which can
                # shrink the pool while still making real progress.
                gathered = len(self._back) - back_before
            self._swap_forward(pool)
            if failure is not None:
                raise failure
            # A fruitless iteration (nothing gathered, nothing
            # committed) gets one replan: a legitimately *discarded*
            # round -- e.g. a temperature-managed round landing after
            # a sensor excursion -- is followed by a fresh round
            # planned under the new conditions.  Two in a row means
            # the planner covers no part of the deficit.
            if gathered > 0 or self._in_flight or len(self._back):
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
        rounds already gathered (back buffer) or in flight count toward
        it with their exact yields.  Planning happens here, serially,
        in the consumer -- the determinism contract's anchor.
        """
        committed = self.committed_bits()
        while (committed < needed_bits
               and len(self._in_flight) < self.max_in_flight):
            round_ = self.planner.plan_round(needed_bits - committed,
                                             pack_output=self.pack_results)
            # Rounds submit as a unit: backends that ship whole round
            # shards per host (ExecutionBackend.ships_whole_rounds)
            # collapse the per-task round trips; everywhere else
            # submit_round decomposes into submit_map unchanged.
            round_.pending = self.backend.submit_round(run_bank_task,
                                                       round_.tasks)
            self._in_flight.append(round_)
            self.rounds_planned += 1
            committed += round_.yield_bits

    def _gather_next(self) -> Optional[ReproError]:
        """Join the oldest in-flight round into the back buffer."""
        round_ = self._in_flight.popleft()
        results = round_.pending.result()
        self.rounds_gathered += 1
        return self.planner.gather_round(round_, results, self._back)

    def _swap_forward(self, pool: BitBuffer) -> None:
        """Move the back buffer's bits into the front (serving) pool.

        A fully-drained front swaps with the back in O(1); otherwise
        the back buffer's bits are appended behind the front's
        remainder, preserving stream order.
        """
        if not len(self._back):
            return
        if not len(pool):
            pool.swap(self._back)
        else:
            self._back.drain_into(pool)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def cancel_pending(self) -> int:
        """Join and discard every in-flight round; return the count.

        For teardown (or abandoning a readahead guess): the rounds'
        results are dropped, *not* pooled.  The discarded rounds'
        iterations were already claimed from the segments' cursors at
        plan time, so the stream continues after them -- still fully
        reproducible for the same call sequence, but no longer equal
        to a run that never cancelled.  Safe to call with the backend already closed
        (pooled backends finish submitted work before closing).
        """
        cancelled = 0
        while self._in_flight:
            round_ = self._in_flight.popleft()
            try:
                round_.pending.result()
            except Exception:
                pass  # a discarded round's failure is moot
            cancelled += 1
        self.rounds_cancelled += cancelled
        return cancelled

    def drain(self, pool: BitBuffer) -> Optional[ReproError]:
        """Gather every in-flight round into ``pool`` without waiting
        for a request.

        The graceful counterpart of :meth:`cancel_pending`: planned
        entropy is kept (pooled bits serve later draws), so a drained
        engine's stream stays bit-identical to the synchronous path.
        Returns the first deferred health failure instead of raising,
        so teardown code can log and continue.
        """
        failure = None
        while self._in_flight:
            exc = self._gather_next()
            if failure is None:
                failure = exc
        self._swap_forward(pool)
        return failure
