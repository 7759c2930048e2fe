"""The simulated DDR4 module: banks + physics + command entry point.

:class:`DramModule` assembles the geometry, timing, variation and thermal
models into a device that executes timestamped command streams.  It is
the single integration point between the *protocol* layer (banks,
decoder, row buffers) and the *physics* layer (charge sharing, SA
offsets, thermal noise): banks call back into the module to resolve
metastable sensing.

``DramBankState`` is re-exported for callers that want to type-annotate
bank handles without importing the bank module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.bank import DramBank
from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import DramGeometry, SegmentAddress
from repro.dram.sense_amplifier import (bernoulli_entropy, sample_settles,
                                        settle_probability)
from repro.dram.temperature import ThermalModel
from repro.dram.timing import TimingParameters
from repro.dram.variation import VariationModel, VariationParameters
from repro.errors import ConfigurationError
from repro.rng import generator_for

#: Alias kept for readers of DESIGN.md; a bank handle is a DramBank.
DramBankState = DramBank


class DramModule:
    """A simulated DDR4 module (eight x8 chips behind a 64-bit bus).

    Parameters
    ----------
    geometry:
        Array dimensions; :meth:`DramGeometry.small` for tests,
        :meth:`DramGeometry.full_scale` for paper-scale runs.
    timing:
        JEDEC parameters of the module's speed grade.
    seed:
        Module identity: all variation fields, chip trends and noise
        streams derive from it.
    variation:
        Optional override of the calibrated variation parameters.
    name:
        Human-readable label (e.g. ``"M4"``), used in reports.
    """

    def __init__(self, geometry: DramGeometry, timing: TimingParameters,
                 seed: int,
                 variation: VariationParameters = VariationParameters(),
                 name: str = "module") -> None:
        self.geometry = geometry
        self.timing = timing
        self.seed = seed
        self.name = name
        self.variation = VariationModel(geometry, seed, variation)
        self.thermal = ThermalModel(seed)
        #: Operating temperature in Celsius (paper default: 50 C).
        self.temperature_c = 50.0
        #: Days elapsed since characterization (Section 8 ageing study).
        self.age_days = 0
        self._banks: Dict[Tuple[int, int], DramBank] = {}

    # ------------------------------------------------------------------
    # Bank access
    # ------------------------------------------------------------------

    def bank(self, bank_group: int, bank: int) -> DramBank:
        """The (lazily created) bank at (bank_group, bank)."""
        self.geometry.check_bank(bank_group, bank)
        key = (bank_group, bank)
        if key not in self._banks:
            resolver = self._make_resolver(bank_group, bank)
            self._banks[key] = DramBank(self.geometry, self.timing,
                                        bank_group, bank, resolver)
        return self._banks[key]

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def issue(self, command: Command) -> Optional[np.ndarray]:
        """Execute one timestamped command.

        Returns the cache block for ``RD`` commands, ``None`` otherwise.
        Timing violations are *not* rejected -- they are the phenomenon
        under study; the decoder interprets them.
        """
        bank = self.bank(command.bank_group, command.bank)
        if command.kind is CommandKind.ACT:
            bank.on_activate(command.row, command.time_ns)
            return None
        if command.kind is CommandKind.PRE:
            bank.on_precharge(command.time_ns)
            return None
        if command.kind is CommandKind.PREA:
            for b in self._banks.values():
                b.on_precharge(command.time_ns)
            return None
        if command.kind is CommandKind.RD:
            return bank.read_column(command.column)
        if command.kind is CommandKind.WR:
            raise ConfigurationError(
                "WR commands need data; use DramModule.write_column")
        if command.kind is CommandKind.REF:
            return None
        raise ConfigurationError(f"unhandled command kind {command.kind}")

    def write_column(self, bank_group: int, bank: int, column: int,
                     bits: np.ndarray) -> None:
        """Protocol write of one cache block into the open row(s)."""
        self.bank(bank_group, bank).write_column(column, bits)

    def write_row(self, bank_group: int, bank: int, row: int,
                  bits: np.ndarray) -> None:
        """Direct full-row store (initialization shortcut for tests)."""
        self.bank(bank_group, bank).store_row(row, bits)

    def read_stored_row(self, bank_group: int, bank: int,
                        row: int) -> np.ndarray:
        """Direct full-row load of the stored cell values."""
        return self.bank(bank_group, bank).stored_row(row).copy()

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------

    def quac_probabilities(self, segment_addr: SegmentAddress,
                           cell_values: np.ndarray, positions: np.ndarray,
                           first_position: int) -> np.ndarray:
        """Per-bitline probability of sampling 1 after a QUAC episode.

        Combines charge imbalance (with per-row weights), per-bitline SA
        offsets, and the temperature/ageing scale into the z-score fed to
        the SA settling model.  This is the analytic heart of the
        characterization pipeline: entropy maps are
        ``bernoulli_entropy(quac_probabilities(...))`` without any
        Monte-Carlo sampling.
        """
        params = self.variation.params
        weights = self.variation.row_charge_weights(
            segment_addr.bank_group, segment_addr.bank, segment_addr.segment,
            first_position)
        cells = np.asarray(cell_values, dtype=np.float64)
        pos = np.asarray(positions, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[0] != pos.size:
            raise ConfigurationError(
                "cell_values must be (n_open, bits) aligned with positions")
        imbalance = (weights[pos][:, None] * (cells - 0.5)).sum(axis=0)
        offsets = self.variation.bitline_offsets_z(
            segment_addr.bank_group, segment_addr.bank, segment_addr.segment)
        scale = self._entropy_scale(offsets.size)
        z = (imbalance * params.drive_z + offsets) / scale
        return settle_probability(z)

    def segment_probabilities(self, segment_addr: SegmentAddress,
                              data_pattern: str,
                              first_position: int = 0) -> np.ndarray:
        """Probabilities for a full four-row QUAC with a named pattern.

        ``data_pattern`` is the paper's 4-character notation, one bit per
        row (Row0..Row3), e.g. ``"0111"`` -- each row uniformly filled
        with its bit.
        """
        cells = cells_for_pattern(data_pattern, self.geometry.row_bits)
        positions = np.arange(4)
        return self.quac_probabilities(segment_addr, cells, positions,
                                       first_position)

    def segment_entropy_map(self, segment_addr: SegmentAddress,
                            data_pattern: str,
                            first_position: int = 0) -> np.ndarray:
        """Analytic per-bitline Shannon entropy for a pattern + segment."""
        p = self.segment_probabilities(segment_addr, data_pattern,
                                       first_position)
        return bernoulli_entropy(p)

    def _entropy_scale(self, n_bitlines: int) -> np.ndarray:
        """Combined temperature/ageing scale applied to z-scores.

        Entropy rises when offsets shrink relative to thermal noise, so a
        larger entropy factor *divides* the z-score.
        """
        factor = self.thermal.entropy_factor(n_bitlines, self.temperature_c)
        factor = factor * self.thermal.ageing_factor(self.age_days)
        return factor

    def _make_resolver(self, bank_group: int, bank: int):
        """Bank callback resolving metastable sensing into sampled bits."""

        def resolve(cells: np.ndarray, positions: np.ndarray,
                    first_position: int, segment: int,
                    episode: int) -> np.ndarray:
            addr = SegmentAddress(bank_group=bank_group, bank=bank,
                                  segment=segment)
            p = self.quac_probabilities(addr, cells, positions, first_position)
            rng = generator_for(self.seed, "settle", bank_group, bank,
                                segment, episode)
            return sample_settles(p, rng)

        return resolve


def parse_data_pattern(data_pattern: str) -> np.ndarray:
    """The four row bits of a pattern string, Row0 first (uint8).

    The paper's pattern notation assigns one uniform bit per row of the
    segment: pattern "0111" means Row0 all-zeros and Rows1-3 all-ones
    (Section 6.1.3).  Every pattern the library takes is checked here.
    """
    if len(data_pattern) != 4 or any(c not in "01" for c in data_pattern):
        raise ConfigurationError(
            f"data pattern must be 4 chars of 0/1, got {data_pattern!r}")
    return np.array([int(c) for c in data_pattern], dtype=np.uint8)


def cells_for_pattern(data_pattern: str, row_bits: int) -> np.ndarray:
    """Expand a 4-character pattern string into (4, row_bits) cell values."""
    bits = parse_data_pattern(data_pattern)
    return np.repeat(bits[:, None], row_bits, axis=1)


#: The 16 possible segment data patterns, in Figure 8's axis order.
ALL_DATA_PATTERNS = tuple(format(i, "04b") for i in range(16))

#: The highest-average-entropy pattern found by the characterization
#: (Section 6.1.3); used by every downstream experiment.
BEST_DATA_PATTERN = "0111"
