"""Runtime temperature management (the paper's Section 8 mechanism).

The memory controller "stores a list of column address sets for
non-overlapping temperature ranges", initialized by a one-time offline
characterization at several temperatures, and "accesses an element in
the list depending on DRAM temperature (e.g., measured via temperature
sensors)".  :class:`TemperatureManagedTrng` implements exactly that:

* at setup it characterizes the module at the centre of each configured
  range and stores per-range SIB plans (and the per-range best segment);
* when it is built, and then per draw, it reads the module's
  temperature sensor, selects the matching plan table, and only
  re-characterizes when the temperature leaves every characterized
  range (with a counter, so the paper's "one-time" property is
  checkable).

Draws run through the shared round planner unchanged, with the range
that serves them as the one channel.  When a draw finds the sensor in
another range, the round still in flight goes back to the cursors
(:meth:`~repro.core.harvest.AsyncHarvestEngine.cancel_pending`), the
old range's pooled surplus is dropped, and the new range's generator
replaces the channel.  Every range shares one cursor table, so
whichever range plans next claims those units again, and no iteration
is served twice.

This closes the gap left by :class:`~repro.core.trng.QuacTrng`, which
characterizes once at construction temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.harvest import HarvestPlanner
from repro.core.parallel import ExecutionBackend, resolve_backend
from repro.core.quac import QuacExecutor
from repro.core.trng import QuacTrng
from repro.core.throughput import TrngConfiguration
from repro.dram.device import BEST_DATA_PATTERN, DramModule
from repro.errors import CharacterizationError, ConfigurationError

#: Default non-overlapping ranges covering the paper's 50-85 C study,
#: as (low, high) Celsius pairs.
DEFAULT_RANGES: Tuple[Tuple[float, float], ...] = (
    (40.0, 57.5), (57.5, 75.0), (75.0, 95.0),
)


@dataclass(frozen=True)
class RangeEntry:
    """One temperature range's stored configuration."""

    low_c: float
    high_c: float
    trng: QuacTrng

    def covers(self, temperature_c: float) -> bool:
        return self.low_c <= temperature_c < self.high_c


class TemperatureManagedTrng(HarvestPlanner):
    """A QUAC-TRNG with per-temperature-range column-address tables.

    Parameters
    ----------
    module:
        The DRAM channel's module; its ``temperature_c`` plays the role
        of the DIMM temperature sensor.
    ranges:
        Non-overlapping (low, high) Celsius ranges to characterize.
    configuration / data_pattern / entropy_per_block:
        Forwarded to each range's generator.
    backend:
        Execution backend forwarded to every range's generator (an
        :class:`~repro.core.parallel.ExecutionBackend`, spec string, or
        ``None`` for the ``REPRO_EXECUTION_BACKEND`` default), so a
        shared pool drives the batched harvest whichever range is
        active.
    async_harvest:
        After each draw, commit the next request's opening refill
        round on the :class:`~repro.core.harvest.AsyncHarvestEngine`
        (at most one round is ever in flight).  The sensor is read
        once per draw; a draw under a new range hands the round still
        in flight back to the cursors and drops
        the old range's surplus, so output always comes from plans
        covering the reading at the draw.  At a steady sensor reading
        the output is the same either way.

    The sensor also picks the serving range when the generator is
    built, so a non-finite reading then fails construction with
    :class:`~repro.errors.CharacterizationError`.
    """

    def __init__(self, module: DramModule,
                 ranges: Sequence[Tuple[float, float]] = DEFAULT_RANGES,
                 configuration: TrngConfiguration =
                 TrngConfiguration.RC_BGP,
                 data_pattern: str = BEST_DATA_PATTERN,
                 entropy_per_block: float = 256.0,
                 backend: Optional[ExecutionBackend] = None,
                 async_harvest: bool = False) -> None:
        self.module = module
        self.configuration = configuration
        self.data_pattern = data_pattern
        self.entropy_per_block = entropy_per_block
        self.backend = resolve_backend(backend)
        self._validate_ranges(ranges)
        #: One cursor table for every range's generator: ranges often
        #: pick the same segments, and a range switch must carry on
        #: from the iterations other ranges already claimed there.
        self.executor = QuacExecutor(module)
        #: Count of offline characterization passes (the paper's cost
        #: model assumes this stays at 1 unless conditions leave the
        #: characterized envelope).
        self.characterization_passes = 0
        self._entries: List[RangeEntry] = []
        self._characterize_ranges(ranges)
        # The one channel is the generator of the range that serves
        # draws, picked from the sensor as a draw picks it.
        super().__init__(self.backend, [self.active_entry().trng],
                         async_harvest=async_harvest)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    @staticmethod
    def _validate_ranges(ranges: Sequence[Tuple[float, float]]) -> None:
        if not ranges:
            raise ConfigurationError("need at least one temperature range")
        ordered = sorted(ranges)
        for (low, high) in ordered:
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ConfigurationError(
                    f"range [{low}, {high}) has a non-finite bound")
            if high <= low:
                raise ConfigurationError(
                    f"range [{low}, {high}) is empty")
        for (_, high), (low, _) in zip(ordered, ordered[1:]):
            if low < high:
                raise ConfigurationError(
                    "temperature ranges must not overlap")

    def _characterize_ranges(self,
                             ranges: Sequence[Tuple[float, float]]) -> None:
        """One offline pass: characterize at each range's centre."""
        original = self.module.temperature_c
        try:
            for low, high in sorted(ranges):
                self.module.temperature_c = 0.5 * (low + high)
                trng = QuacTrng(self.module, self.configuration,
                                self.data_pattern, self.entropy_per_block,
                                backend=self.backend)
                trng.executor = self.executor
                self._entries.append(RangeEntry(low, high, trng))
        finally:
            self.module.temperature_c = original
        self.characterization_passes += 1

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------

    @property
    def ranges(self) -> List[Tuple[float, float]]:
        """The characterized (low, high) ranges, ascending."""
        return [(e.low_c, e.high_c) for e in self._entries]

    def active_entry(self) -> RangeEntry:
        """The stored entry covering the sensor's current reading.

        Leaves of the characterized envelope trigger an automatic
        re-characterization extending the table (counted, so tests and
        cost models can see it happen).  A non-finite reading (a failed
        sensor) raises :class:`~repro.errors.CharacterizationError`
        before anything is characterized.
        """
        temperature = self.module.temperature_c
        if not math.isfinite(temperature):
            raise CharacterizationError(
                f"temperature sensor reads {temperature} C; refusing to "
                f"select or characterize a range for it")
        for entry in self._entries:
            if entry.covers(temperature):
                return entry
        self._extend_for(temperature)
        for entry in self._entries:
            if entry.covers(temperature):
                return entry
        raise CharacterizationError(
            f"no range covers {temperature} C even after extension")

    def _extend_for(self, temperature_c: float) -> None:
        """Characterize a new range around an out-of-envelope reading."""
        width = 17.5
        low = temperature_c - width / 2
        high = temperature_c + width / 2
        # Clip against existing ranges so the table stays non-overlapping.
        for existing_low, existing_high in self.ranges:
            if low < existing_high <= temperature_c:
                low = existing_high
            if temperature_c <= existing_low < high:
                high = existing_low
        self._characterize_ranges([(low, high)])
        self._entries.sort(key=lambda e: e.low_c)

    def _refill(self, n_bits: int) -> None:
        """Top the pool up from the range covering the sensor reading.

        On a range change the round still in flight goes back to the
        cursors, and the old range's surplus is dropped, before the
        new range plans anything.
        """
        trng = self.active_entry().trng
        if trng is not self.channels[0]:
            self.harvest_engine.cancel_pending()
            self._pool.clear()
            self.channels[0] = trng
        super()._refill(n_bits)

    @property
    def sib_per_bank(self) -> List[int]:
        """The active range's SHA-input-block counts."""
        return self.active_entry().trng.sib_per_bank

    def stored_column_entries(self) -> int:
        """Total stored column-address entries across all ranges.

        The Section 9 storage model budgets 11 entries x 10 ranges;
        this is the deployed table's actual footprint.
        """
        return sum(sum(trng_entry for trng_entry in e.trng.sib_per_bank)
                   for e in self._entries)
