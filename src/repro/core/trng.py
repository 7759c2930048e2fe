"""QUAC-TRNG: the end-to-end true random number generator (Section 5.2).

One :class:`QuacTrng` owns one DRAM channel (one module) and follows the
paper's recipe:

1. **Characterize** (once): find each driven bank's highest-entropy
   segment for the configured data pattern and plan the column-address
   sets splitting its read-out into SHA input blocks of 256 entropy bits
   (per temperature; Section 8).
2. Per iteration: **initialize** the segment (RowClone copies or
   write-based, per configuration), **QUAC**, **read** the segment, and
   **condition** each SIB with SHA-256 into a 256-bit random number.

A :class:`QuacTrng` is a :class:`~repro.core.harvest.HarvestPlanner`
whose one channel is itself: :meth:`QuacTrng.random_bits` fills through
the shared round planner, whose rounds sample many iterations per bank
in one vectorized draw of the analytic settling distribution
(:meth:`QuacTrng.plan_batch` plans them) and condition every SHA input
block in bulk -- the same back-to-back iteration structure from which
the paper derives its 3.44 Gb/s per channel.  The cell-level SoftMC
read-out, which replays every DRAM command through the host, stays
available for characterization and serves no bits.  Iteration *latency*
always comes from the scheduled command sequence
(:class:`~repro.core.throughput.QuacThroughputModel`), never from
wall-clock simulation time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.controller.rowclone import (reserved_rows_for,
                                       rowclone_segment_init_program,
                                       check_rowclone_pattern)
from repro.core.harvest import HarvestPlanner
from repro.core.parallel import BankTask, ExecutionBackend, resolve_backend
# Not called here; kept importable so a tracer that rebinds the task
# entry point by module attribute (``hostbench/layers.py``) finds it.
from repro.core.parallel import run_bank_task  # noqa: F401
from repro.core.quac import QuacExecutor
from repro.core.throughput import (IterationBreakdown, QuacThroughputModel,
                                   TrngConfiguration)
from repro.dram.device import BEST_DATA_PATTERN, DramModule
from repro.dram.geometry import SegmentAddress
from repro.entropy.blocks import EntropyBlockPlan, plan_entropy_blocks
from repro.entropy.characterization import ModuleCharacterization
from repro.errors import (CharacterizationError, ConfigurationError,
                          InsufficientEntropyError)


class QuacTrng(HarvestPlanner):
    """High-throughput DRAM-based TRNG over one simulated module.

    Parameters
    ----------
    module:
        The DRAM channel's module.
    configuration:
        One of the Figure 11 configurations; RC + BGP is the paper's
        (and this class's) default.
    data_pattern:
        Segment initialization pattern; defaults to the paper's best
        ("0111").
    entropy_per_block:
        Shannon entropy per SHA input block (the security parameter).
    backend:
        Execution backend for the batched path's per-bank fan-out: an
        :class:`~repro.core.parallel.ExecutionBackend`, a spec string
        (``"serial"``, ``"thread"``, ``"process:4"``, or
        ``"remote:2"`` / ``"remote:host:port,..."`` for sharded
        multi-host generation), or ``None`` to follow the
        ``REPRO_EXECUTION_BACKEND`` environment variable (default
        serial).  Output is bit-identical across backends, worker
        counts, and host counts.
    async_harvest:
        After each draw, commit the next request's opening refill
        round on the :class:`~repro.core.harvest.AsyncHarvestEngine`
        (at most one round is ever in flight), so it executes on the
        backend while the consumer works.  Output is **bit-identical**
        either way for any request sequence (the golden streams in
        ``tests/test_determinism.py`` replay under both modes); only
        wall-clock behaviour changes.

    Example
    -------
    >>> from repro.dram.geometry import DramGeometry
    >>> from repro.dram.module_factory import build_module, spec_by_name
    >>> geometry = DramGeometry.small(segments_per_bank=16,
    ...                               cache_blocks_per_row=4)
    >>> module = build_module(spec_by_name("M13"), geometry)
    >>> trng = QuacTrng(module, entropy_per_block=256.0
    ...                 * geometry.row_bits / 65536)
    >>> bits = trng.random_bits(256)     # batched, pooled, packed
    >>> int(bits.size), sorted(set(bits.tolist()))
    (256, [0, 1])
    >>> trng.random_bytes(4) == trng.random_bytes(4)   # fresh draws
    False
    >>> trng.throughput_gbps() > 0       # scheduled, not wall-clock
    True
    """

    def __init__(self, module: DramModule,
                 configuration: TrngConfiguration = TrngConfiguration.RC_BGP,
                 data_pattern: str = BEST_DATA_PATTERN,
                 entropy_per_block: float = 256.0,
                 backend: Optional[ExecutionBackend] = None,
                 async_harvest: bool = False) -> None:
        if configuration.uses_rowclone:
            check_rowclone_pattern(data_pattern)
        super().__init__(resolve_backend(backend), [self],
                         async_harvest=async_harvest)
        self.module = module
        self.configuration = configuration
        self.data_pattern = data_pattern
        self.entropy_per_block = entropy_per_block
        self.executor = QuacExecutor(module)
        self._banks = [(group, 0) for group in range(configuration.n_banks)]
        self._characterize()
        self._breakdown = QuacThroughputModel(
            module.timing, module.geometry,
            [self._sib[b] for b in self._banks],
            configuration).iteration()
        self._setup_reserved_rows()

    # ------------------------------------------------------------------
    # Characterization (step 0)
    # ------------------------------------------------------------------

    def _characterize(self) -> None:
        self._segments: Dict[Tuple[int, int], SegmentAddress] = {}
        self._plans: Dict[Tuple[int, int], List[EntropyBlockPlan]] = {}
        self._sib: Dict[Tuple[int, int], int] = {}
        geometry = self.module.geometry
        for bank_group, bank in self._banks:
            chars = ModuleCharacterization(self.module, bank_group, bank)
            entropies = chars.segment_entropies(self.data_pattern)
            # The best segment must leave room for the reserved rows.
            order = np.argsort(entropies)[::-1]
            best = next((int(s) for s in order
                         if s < geometry.segments_per_bank - 1), None)
            if best is None:
                raise CharacterizationError("no eligible segment found")
            blocks = chars.cache_block_entropy_matrix(self.data_pattern)[best]
            plans = plan_entropy_blocks(blocks, self.entropy_per_block)
            if not plans:
                raise InsufficientEntropyError(
                    f"bank ({bank_group}, {bank}): best segment carries "
                    f"{blocks.sum():.0f} entropy bits, below one block of "
                    f"{self.entropy_per_block}")
            address = geometry.segment_address(bank_group, bank, best)
            self._segments[(bank_group, bank)] = address
            self._plans[(bank_group, bank)] = plans
            self._sib[(bank_group, bank)] = len(plans)

    def _setup_reserved_rows(self) -> None:
        """Store the init-source values in the reserved rows (once)."""
        if not self.configuration.uses_rowclone:
            return
        geometry = self.module.geometry
        row0_value, bulk_value = check_rowclone_pattern(self.data_pattern)
        for key, segment in self._segments.items():
            fixup_row, bulk_row = reserved_rows_for(segment, geometry)
            self.module.write_row(
                segment.bank_group, segment.bank, fixup_row,
                np.full(geometry.row_bits, int(row0_value), dtype=np.uint8))
            self.module.write_row(
                segment.bank_group, segment.bank, bulk_row,
                np.full(geometry.row_bits, int(bulk_value), dtype=np.uint8))

    # ------------------------------------------------------------------
    # Public properties
    # ------------------------------------------------------------------

    @property
    def segments(self) -> List[SegmentAddress]:
        """The selected highest-entropy segment of each driven bank."""
        return [self._segments[b] for b in self._banks]

    @property
    def sib_per_bank(self) -> List[int]:
        """SHA-input-block count of each driven bank."""
        return [self._sib[b] for b in self._banks]

    def cursors(self) -> List[int]:
        """Per driven bank, the next thermal-noise iteration to plan.

        :meth:`plan_batch` advances these by exactly the iterations it
        plans and :meth:`unclaim` hands cancelled ones back, so they
        count the iterations claimed so far.
        """
        return [self.executor.cursor(self._segments[b]) for b in self._banks]

    @property
    def bits_per_iteration(self) -> int:
        """Conditioned output bits of one iteration (256 x total SIB)."""
        return self._breakdown.output_bits

    @property
    def iteration_latency_ns(self) -> float:
        """Scheduled latency of one iteration (the paper's L)."""
        return self._breakdown.total_ns

    @property
    def breakdown(self) -> IterationBreakdown:
        """Phase-level timing of one iteration."""
        return self._breakdown

    def throughput_gbps(self) -> float:
        """Per-channel sustained throughput (Figure 11 metric)."""
        return self._breakdown.throughput_gbps

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def plan_batch(self, n: int,
                   collect_raw: bool = False) -> List[BankTask]:
        """Plan ``n`` iterations as one picklable task per driven bank.

        Planning runs serially in the caller (each bank's task claims
        the next ``n`` iterations of its segment's cursor, as
        :meth:`~repro.core.quac.QuacExecutor.run_direct` would), so executing the returned tasks on
        *any* backend, in *any* order, with *any* worker count yields
        bit-identical results.  ``collect_raw`` asks workers to also
        return the raw read-outs, for health monitoring.
        """
        if n <= 0:
            raise ConfigurationError(
                f"batch size must be positive, got {n}")
        tasks: List[BankTask] = []
        for key in self._banks:
            segment = self._segments[key]
            rng_key, _, thresholds, first = self.executor.plan_direct(
                segment, self.data_pattern, iterations=n)
            slices = tuple((plan.bit_slice.start, plan.bit_slice.stop)
                           for plan in self._plans[key])
            tasks.append(BankTask(
                thermal_key=rng_key, thresholds=thresholds, iterations=n,
                block_slices=slices, collect_raw=collect_raw,
                first_iteration=first))
        return tasks

    def unclaim(self, tasks: List[BankTask]) -> None:
        """Rewind each driven bank's cursor to its task's first iteration.

        The inverse of :meth:`plan_batch` for tasks that were planned
        but never pooled; a cursor already behind ``first_iteration``
        stays where it is.
        """
        for key, task in zip(self._banks, tasks):
            self.executor.rewind(self._segments[key], task.first_iteration)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _faithful_readout(self, segment: SegmentAddress) -> np.ndarray:
        """One read-out of ``segment`` through the full SoftMC command path.

        Init (RowClone or writes, per configuration) + QUAC + read,
        every DRAM command replayed cell by cell: a characterization
        tool, on no serving path, that claims no iteration of the
        served stream.
        """
        geometry = self.module.geometry
        timing = self.module.timing
        if self.configuration.uses_rowclone:
            init = rowclone_segment_init_program(geometry, timing, segment,
                                                 self.data_pattern)
            self.executor.host.execute(init)
            from repro.softmc.program import (quac_core_program,
                                              segment_readout_program)
            core = quac_core_program(segment, timing)
            self.executor.host.execute(core)
            result = self.executor.host.execute(
                segment_readout_program(geometry, timing, segment))
            from repro.softmc.instructions import SoftMcProgram
            close = SoftMcProgram().pre(segment.bank_group, segment.bank,
                                        delay_ns=timing.tRP)
            self.executor.host.execute(close)
            return result.read_data
        return self.executor.run_via_softmc(segment, self.data_pattern)
