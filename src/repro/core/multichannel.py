"""Multi-channel system TRNG (the paper's 4-channel reference system).

Sections 7.3 / 7.4 evaluate a system with four DDR4 channels, each
hosting an independent QUAC-TRNG; system throughput is the per-channel
sum (13.76 Gb/s at the population average).  :class:`SystemTrng` models
that: one :class:`~repro.core.trng.QuacTrng` per channel, round-robin
harvesting, and aggregate accounting.

Channels run *distinct modules* (real systems mix modules), so per-
channel SIB counts differ and the round-robin order matters for fairness
-- requests drain channels with data before forcing new iterations.

Harvesting is *planned, then executed*: each refill round computes every
scheduled channel's fair share of the deficit, plans all of their
per-bank tasks serially (claiming their iterations), and fans the whole
task list out on one execution backend -- so with a thread or process
backend, all channels and all banks generate concurrently, exactly the
parallelism the paper's hardware gets for free.  Optionally each
channel's raw read-outs pass a per-channel
:class:`~repro.core.health.HealthMonitor` before its bits are pooled; a
channel that alarms never contaminates the pool, and bits harvested
from healthy channels in the same round are pooled *before* the alarm
propagates, so they are never lost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bitops import BitBuffer
from repro.core.harvest import ChannelSpan, HarvestPlanner, HarvestRound
from repro.core.health import (HealthMonitor, HealthTestFailure,
                               monitored_batch_cap)
from repro.core.parallel import (BankResult, ExecutionBackend,
                                 resolve_backend)
# Not called here; kept importable so a tracer that rebinds the task
# entry point by module attribute (``hostbench/layers.py``) finds it.
from repro.core.parallel import run_bank_task  # noqa: F401
from repro.core.trng import QuacTrng, batch_count_for
from repro.core.throughput import TrngConfiguration
from repro.dram.device import BEST_DATA_PATTERN, DramModule
from repro.errors import ConfigurationError


class SystemTrng(HarvestPlanner):
    """A bank of independent per-channel QUAC-TRNGs.

    Parameters
    ----------
    modules:
        One module per channel (the paper's system has four).
    configuration / data_pattern / entropy_per_block:
        Forwarded to every channel's generator.
    backend:
        Execution backend the system fans per-bank tasks out on (shared
        with every channel's generator); an
        :class:`~repro.core.parallel.ExecutionBackend`, a spec string
        (including ``"remote:..."`` for sharded multi-host
        generation), or ``None`` for the ``REPRO_EXECUTION_BACKEND``
        default.  Output is bit-identical across backends, worker
        counts, and host counts.
    monitors:
        Optional per-channel health monitors (one entry per channel;
        entries may be ``None`` to leave a channel unmonitored).  When a
        monitor is present, the channel's raw read-outs are checked
        through :meth:`HealthMonitor.check_many` before its conditioned
        bits enter the pool.
    async_harvest:
        Keep two refill rounds in flight on the
        :class:`~repro.core.harvest.AsyncHarvestEngine` instead of one:
        while the consumer drains the pool, the next planned round is
        already executing on the backend.  Output is **bit-identical**
        either way for any request sequence (pinned by the golden
        streams in ``tests/test_determinism.py``).  Monitor verdicts
        are applied when a round lands; healthy channels' bits are
        pooled before any alarm re-raises.

    Example
    -------
    >>> from repro.dram.geometry import DramGeometry
    >>> from repro.dram.module_factory import build_table3_population
    >>> geometry = DramGeometry.small(segments_per_bank=16,
    ...                               cache_blocks_per_row=4)
    >>> modules = build_table3_population(geometry, names=["M13", "M4"])
    >>> system = SystemTrng(modules, entropy_per_block=256.0
    ...                     * geometry.row_bits / 65536)
    >>> system.n_channels
    2
    >>> len(system.random_bytes(32))      # round-robin across channels
    32
    >>> system.pooled_bits > 0            # the surplus stays pooled
    True
    """

    def __init__(self, modules: Sequence[DramModule],
                 configuration: TrngConfiguration = TrngConfiguration.RC_BGP,
                 data_pattern: str = BEST_DATA_PATTERN,
                 entropy_per_block: float = 256.0,
                 backend: Optional[ExecutionBackend] = None,
                 monitors: Optional[Sequence[Optional[HealthMonitor]]]
                 = None,
                 async_harvest: bool = False) -> None:
        if not modules:
            raise ConfigurationError("need at least one channel module")
        super().__init__(resolve_backend(backend), async_harvest)
        self.channels: List[QuacTrng] = [
            QuacTrng(module, configuration, data_pattern, entropy_per_block,
                     backend=self.backend)
            for module in modules
        ]
        if monitors is None:
            self.monitors: List[Optional[HealthMonitor]] = \
                [None] * len(self.channels)
        else:
            if len(monitors) != len(self.channels):
                raise ConfigurationError(
                    f"got {len(monitors)} monitors for "
                    f"{len(self.channels)} channels")
            self.monitors = list(monitors)
        self._next_channel = 0

    @property
    def n_channels(self) -> int:
        """Number of channels (one independent generator each)."""
        return len(self.channels)

    @property
    def pooled_bits(self) -> int:
        """Conditioned bits currently pooled and serveable at once."""
        return len(self._pool)

    def system_throughput_gbps(self) -> float:
        """Aggregate sustained throughput (paper: ~13.76 Gb/s for 4)."""
        return sum(trng.throughput_gbps() for trng in self.channels)

    def bits_per_system_iteration(self) -> int:
        """Output of one iteration on every channel."""
        return sum(trng.bits_per_iteration for trng in self.channels)

    def worst_channel_latency_ns(self) -> float:
        """Slowest channel's iteration latency (system-iteration gate)."""
        return max(trng.iteration_latency_ns for trng in self.channels)

    def _harvest_plan(self, deficit: int) -> List[Tuple[int, int]]:
        """Schedule one refill round as ``(channel, batch size)`` pairs.

        Walks the channels in round-robin order from the rotation
        cursor, giving each its fair share of the deficit (capped by
        :func:`~repro.core.trng.batch_count_for`, and additionally by
        raw volume on monitored channels) until the round covers the
        deficit; small draws therefore touch one channel, bulk draws
        spread over all of them.  The cursor advances past the
        scheduled channels so consecutive draws stay fair.
        """
        plan: List[Tuple[int, int]] = []
        remaining = deficit
        index = self._next_channel
        share = -(-deficit // self.n_channels)
        for _ in range(self.n_channels):
            if remaining <= 0:
                break
            trng = self.channels[index]
            count = batch_count_for(share, trng.bits_per_iteration)
            if self.monitors[index] is not None:
                count = max(1, min(count, monitored_batch_cap(trng)))
            plan.append((index, count))
            remaining -= count * trng.bits_per_iteration
            index = (index + 1) % self.n_channels
        self._next_channel = index
        return plan

    # ------------------------------------------------------------------
    # Harvest-planner protocol (repro.core.harvest)
    # ------------------------------------------------------------------

    def plan_round(self, deficit_bits: int) -> HarvestRound:
        """Plan one multi-channel refill round toward ``deficit_bits``.

        Channels are scheduled in rotation so sustained draws spread
        work evenly: the round-robin schedule (:meth:`_harvest_plan`)
        picks channels and batch sizes, then every scheduled channel's
        per-bank tasks are planned *serially in schedule order* --
        claiming each channel's iterations and advancing the rotation
        cursor, whatever backend later executes the round, so all
        scheduled channels' banks execute together.  Monitored
        channels' tasks carry their raw read-outs
        (``collect_raw=True``) so verdicts can be applied at gather
        time.
        """
        plan = self._harvest_plan(deficit_bits)
        tasks: List = []
        spans: List[ChannelSpan] = []
        yield_bits = 0
        for channel, count in plan:
            monitored = self.monitors[channel] is not None
            bank_tasks = self.channels[channel].plan_batch(
                count, collect_raw=monitored)
            spans.append(ChannelSpan(channel=channel, iterations=count,
                                     start=len(tasks),
                                     stop=len(tasks) + len(bank_tasks)))
            tasks.extend(bank_tasks)
            yield_bits += count * self.channels[channel].bits_per_iteration
        return HarvestRound(tasks=tasks, spans=spans,
                            yield_bits=yield_bits)

    def gather_round(self, round_: HarvestRound,
                     results: Sequence[BankResult],
                     pool: BitBuffer) -> Optional[HealthTestFailure]:
        """Account one landed round: monitor, then pool healthy bits.

        Each channel's results are health-checked (when a monitor is
        configured) and its conditioned bits appended to ``pool`` in
        schedule order.  A channel whose monitor alarms contributes
        nothing, but every healthy channel's bits are pooled first; the
        round's *first* failure is **returned**, not raised, so the
        engine can commit the healthy bits before propagating the
        alarm.
        """
        failure: Optional[HealthTestFailure] = None
        for span in round_.spans:
            chunk = results[span.start:span.stop]
            monitor = self.monitors[span.channel]
            if monitor is not None:
                try:
                    monitor.check_bank_results(chunk, span.iterations)
                except HealthTestFailure as exc:
                    if failure is None:
                        failure = exc
                    continue
            channel = self.channels[span.channel]
            pool.append_bytes(channel.packed_batch(chunk))
        return failure


def reference_system(modules: Optional[Sequence[DramModule]] = None,
                     entropy_per_block: float = 256.0,
                     backend: Optional[ExecutionBackend] = None
                     ) -> SystemTrng:
    """The paper's 4-channel reference system.

    Defaults to four distinct Table 3 modules at full scale; pass
    reduced-geometry modules (and a scaled ``entropy_per_block``) for
    fast experimentation, and a ``backend`` to harvest the four
    channels concurrently.
    """
    if modules is None:
        from repro.dram.module_factory import build_table3_population
        modules = build_table3_population(names=["M13", "M4", "M15", "M1"])
    if len(modules) != 4:
        raise ConfigurationError(
            f"the reference system has 4 channels, got {len(modules)}")
    return SystemTrng(modules, entropy_per_block=entropy_per_block,
                      backend=backend)
