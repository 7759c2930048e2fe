"""Multi-channel system TRNG (the paper's 4-channel reference system).

Sections 7.3 / 7.4 evaluate a system with four DDR4 channels, each
hosting an independent QUAC-TRNG; system throughput is the per-channel
sum (13.76 Gb/s at the population average).  :class:`SystemTrng` models
that: one :class:`~repro.core.trng.QuacTrng` per channel, harvested by
system iteration, and aggregate accounting.

Channels run *distinct modules* (real systems mix modules), so per-
channel SIB counts -- and output widths -- differ.  The stream is laid
out in *units*: unit ``u`` is iteration ``u // C`` of channel
``u % C``, so system iteration ``s`` is channel 0's iteration ``s``,
then channel 1's, and so on.  The stream is a pure function of (seeds,
unit), whatever the request sizes, backend or harvest mode.

Harvesting is *planned, then executed* by the shared round planner
(:meth:`~repro.core.harvest.HarvestPlanner.plan_round`): each refill
round claims the next units, plans every channel's per-bank tasks
serially, and fans the whole task list out on one execution backend --
so with a thread or process backend, all channels and all banks
generate concurrently, exactly the parallelism the paper's hardware
gets for free.  Optionally each channel's raw read-outs pass a
per-channel :class:`~repro.core.health.HealthMonitor` before its bits
are pooled; a channel that alarms contributes no rows for that round,
and the healthy channels' rows of the same round are pooled *before*
the alarm propagates, so they are never lost.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.harvest import HarvestPlanner
from repro.core.health import HealthMonitor
from repro.core.parallel import ExecutionBackend, resolve_backend
# Not called here; kept importable so a tracer that rebinds the task
# entry point by module attribute (``hostbench/layers.py``) finds it.
from repro.core.parallel import run_bank_task  # noqa: F401
from repro.core.trng import QuacTrng
from repro.core.throughput import TrngConfiguration
from repro.dram.device import BEST_DATA_PATTERN, DramModule
from repro.errors import ConfigurationError


class SystemTrng(HarvestPlanner):
    """A bank of independent per-channel QUAC-TRNGs.

    Every channel runs every system iteration: the pooled stream is
    channel 0's iteration 0, channel 1's iteration 0, ..., then every
    channel's iteration 1, and so on (see :mod:`repro.core.multichannel`).

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
        Optional per-channel health monitors (one entry per channel,
        else :class:`~repro.errors.ConfigurationError`; entries may be
        ``None`` to leave a channel unmonitored).  When a monitor is
        present, the channel's raw read-outs are checked through
        :meth:`HealthMonitor.check_bank_results` before its conditioned
        bits enter the pool.  ``SystemTrng([module], monitors=[monitor])``
        is the health-tested single-channel generator.
    async_harvest:
        After each draw, commit the next request's opening refill
        round on the :class:`~repro.core.harvest.AsyncHarvestEngine`
        (at most one round is ever in flight): while the consumer
        works, that round is already executing on the backend.  Output
        is **bit-identical** either way for any request sequence
        (pinned by the golden streams in ``tests/test_determinism.py``).
        Monitor verdicts are applied when a round lands; healthy
        channels' bits are pooled before any alarm re-raises.

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
    >>> len(system.random_bytes(32))      # channel 0's iteration 0
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
        backend = resolve_backend(backend)
        super().__init__(
            backend,
            [QuacTrng(module, configuration, data_pattern,
                      entropy_per_block, backend=backend)
             for module in modules],
            monitors, async_harvest)

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
