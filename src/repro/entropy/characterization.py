"""One-time offline entropy characterization (Section 6.1).

The paper characterizes each module once: repeat QUAC 1000 times per
(segment, data pattern), estimate per-bitline entropy, and aggregate
into cache-block and segment entropy maps.  That identifies the
highest-entropy segment, the best data pattern, and the column-address
sets that split the segment read-out into 256-entropy-bit SHA input
blocks -- per temperature range (Section 8).

:class:`ModuleCharacterization` is the simulator's equivalent.  It has
two paths:

* the **expected** path evaluates the variation model's per-cache-block
  offset spreads and per-segment charge-imbalance shifts analytically
  (closed-form expected bitline entropy), giving full 8K-segment x
  128-block maps in milliseconds;
* the **measured** path replays Algorithm 1 through the SoftMC host and
  estimates entropy from actual sampled bitstreams, exactly as the
  paper does (used by validation tests to confirm both paths agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.calibration import expected_bitline_entropy_fast
from repro.dram.device import (ALL_DATA_PATTERNS, DramModule,
                               parse_data_pattern)
from repro.dram.geometry import CACHE_BLOCK_BITS
from repro.entropy.shannon import bitline_entropy_from_bitstreams
from repro.errors import CharacterizationError
from repro.softmc.host import SoftMcHost
from repro.softmc.program import quac_randomness_program


@dataclass
class PatternSweepResult:
    """Aggregates of a data-pattern sweep (the quantities of Figure 8)."""

    pattern: str
    #: Mean cache-block entropy over every cache block in the bank.
    average_cache_block_entropy: float
    #: Highest single cache-block entropy in the bank.
    max_cache_block_entropy: float
    #: Mean segment entropy over the bank.
    average_segment_entropy: float
    #: Highest segment entropy in the bank.
    max_segment_entropy: float
    #: Index of the highest-entropy segment.
    best_segment: int


class ModuleCharacterization:
    """Entropy maps of one (module, bank) at one operating point.

    Results are cached per data pattern; temperature and age are read
    from the module at construction, so re-characterizing after a
    temperature change means building a new instance (mirroring the
    paper's per-temperature-range characterization).
    """

    def __init__(self, module: DramModule, bank_group: int = 0,
                 bank: int = 0, first_position: int = 0) -> None:
        self.module = module
        self.bank_group = bank_group
        self.bank = bank
        self.first_position = first_position
        geometry = module.geometry
        self._variation = variation = module.variation
        segments = range(geometry.segments_per_bank)
        scales = variation.block_scales(bank_group, bank, segments)
        self._weights = np.array([
            variation.row_charge_weights(bank_group, bank, seg,
                                         first_position)
            for seg in segments])
        # Temperature/ageing scale entropy by scaling the effective
        # offset spread; use the module-mean chip factor (each cache
        # block interleaves all eight chips equally).
        factor = module.thermal.entropy_factor(
            geometry.row_bits, module.temperature_c).mean()
        factor *= module.thermal.ageing_factor(module.age_days)
        self._factor = factor
        self._zeta = variation.params.offset_zeta / scales / factor
        self._cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Expected (analytic) path
    # ------------------------------------------------------------------

    def pattern_shifts(self, pattern: str) -> np.ndarray:
        """Per-segment charge-imbalance shift (z-units) for a pattern."""
        shifts = self._variation.pattern_shift(self._weights,
                                               parse_data_pattern(pattern))
        return shifts / self._factor

    def cache_block_entropy_matrix(self, pattern: str) -> np.ndarray:
        """Expected entropy of every (segment, cache block), in bits."""
        if pattern not in self._cache:
            shifts = self.pattern_shifts(pattern)[:, None]
            h = expected_bitline_entropy_fast(self._zeta, shifts)
            self._cache[pattern] = h * CACHE_BLOCK_BITS
        return self._cache[pattern]

    def segment_entropies(self, pattern: str) -> np.ndarray:
        """Expected entropy of every segment, in bits."""
        return self.cache_block_entropy_matrix(pattern).sum(axis=1)

    def best_segment(self, pattern: str) -> int:
        """Index of the highest-entropy segment for a pattern."""
        return int(self.segment_entropies(pattern).argmax())

    def best_pattern(self, patterns: Sequence[str] = ALL_DATA_PATTERNS) -> str:
        """Pattern with the highest *average* segment entropy."""
        sweeps = self.sweep_patterns(patterns)
        best = max(sweeps, key=lambda s: s.average_segment_entropy)
        return best.pattern

    def sweep_patterns(self, patterns: Sequence[str] = ALL_DATA_PATTERNS
                       ) -> List[PatternSweepResult]:
        """The Figure 8 sweep: per-pattern cache-block entropy aggregates."""
        results = []
        for pattern in patterns:
            matrix = self.cache_block_entropy_matrix(pattern)
            segments = matrix.sum(axis=1)
            results.append(PatternSweepResult(
                pattern=pattern,
                average_cache_block_entropy=float(matrix.mean()),
                max_cache_block_entropy=float(matrix.max()),
                average_segment_entropy=float(segments.mean()),
                max_segment_entropy=float(segments.max()),
                best_segment=int(segments.argmax()),
            ))
        return results

    def best_segment_block_entropies(self, pattern: str) -> np.ndarray:
        """Cache-block entropies of the highest-entropy segment (Fig. 10)."""
        matrix = self.cache_block_entropy_matrix(pattern)
        return matrix[int(matrix.sum(axis=1).argmax())].copy()

    # ------------------------------------------------------------------
    # Measured (Monte-Carlo, Algorithm 1) path
    # ------------------------------------------------------------------

    def measure_segment(self, segment: int, pattern: str,
                        iterations: int = 1000,
                        host: Optional[SoftMcHost] = None) -> np.ndarray:
        """Per-bitline entropy measured by replaying Algorithm 1.

        This is the slow, faithful path: ``iterations`` full
        init-QUAC-readout programs through the SoftMC host, followed by
        the empirical entropy of each sense amplifier's bitstream.
        """
        if iterations < 2:
            raise CharacterizationError(
                "entropy estimation needs at least 2 iterations")
        geometry = self.module.geometry
        address = geometry.segment_address(self.bank_group, self.bank,
                                           segment)
        host = host or SoftMcHost(self.module)
        program = quac_randomness_program(
            geometry, self.module.timing, address, pattern)
        bitstreams = host.execute_repeated(program, iterations)
        return bitline_entropy_from_bitstreams(bitstreams)
