"""Process-variation and design-induced variation fields.

The paper attributes the structure it measures in QUAC entropy to three
sources (Sections 6.1.3, 6.1.4): manufacturing process variation across
bitlines, design-induced/systematic variation across segments (the
wave-like spatial pattern of Figure 9 and the within-segment cache-block
profile of Figure 10), and post-manufacturing row repair.  This module
generates all of those as deterministic random fields keyed by
(module seed, coordinates), so a module's "silicon" is stable across runs.

The central quantity is the per-bitline SA offset expressed in
thermal-noise z-units.  Its standard deviation -- ``zeta`` -- controls
entropy: a bitline whose |offset| is within a few z-units of zero is
metastable and contributes entropy, so the expected per-bitline entropy
falls roughly as ``1/zeta``.  The fields below modulate ``zeta`` per
segment (wave + end-of-bank structure + repair outliers) and per cache
block (Figure 10 profile), and add per-(segment, row) charge-weight
jitter that creates the data-pattern "favouritism" behind Figure 8's
maximum-entropy outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dram.geometry import CACHE_BLOCK_BITS, DramGeometry
from repro.errors import ConfigurationError
from repro.rng import generator_for


@dataclass(frozen=True)
class VariationParameters:
    """Tunable knobs of the variation model, with calibrated defaults.

    Defaults are calibrated so that a full-scale module reproduces the
    magnitudes of the paper's Table 3 / Figures 8-10 (see DESIGN.md
    Section 4 for the calibration argument).
    """

    #: Module-level base of the SA-offset spread in z-units.  Expected
    #: per-bitline entropy is ~1/zeta, so zeta ~ 45 yields the paper's
    #: ~0.02 bits/bitline average for the best data pattern.
    offset_zeta: float = 45.0
    #: z-units of bitline deviation per half-VDD unit of charge imbalance.
    #: Must be comparable to ``offset_zeta`` so that one unit of pattern
    #: imbalance suppresses entropy by the Fig. 8 ratios.
    drive_z: float = 60.0
    #: Mean charge-sharing weight of the first-activated row (Section 5.1
    #: explanation: the first row's cells share charge for longer).  A
    #: value of 3 exactly balances the three later-activated rows, making
    #: "0111"/"1000" the highest-entropy patterns.
    first_row_weight: float = 3.0
    #: Std-dev of the per-(segment, row) multiplicative charge-weight
    #: jitter.  Kept small: large values suppress typical segments for the
    #: balanced patterns and inflate the per-module max/avg spread beyond
    #: what Table 3 shows.
    row_weight_jitter: float = 0.08
    #: Probability that a segment carries a large cell-capacitance anomaly
    #: on one of its rows.  Such segments *favour* nominally-imbalanced
    #: data patterns -- the mechanism behind Fig. 8's 53-bit "0100" cache
    #: block -- at the cost of their entropy under the balanced patterns.
    favoritism_probability: float = 0.01
    #: Range of the anomalous row's weight multiplier.  The upper end is
    #: sized so an anomaly on a minority-pull row can nearly balance the
    #: first-activated row, creating the paper's 53-bit "0100" blocks.
    favoritism_low: float = 2.5
    favoritism_high: float = 5.5
    #: Constant polarity bias (z-units) added to every SA offset: real
    #: arrays alternate true/complement bitlines and their amplifiers
    #: favour one polarity slightly, which is why complementary data
    #: patterns ("0100" vs "1011") yield *different* entropies in
    #: Figure 8 rather than mirror images.
    polarity_bias_z: float = 4.0
    #: Exponent applied to the segment entropy profile; >1 stretches the
    #: spatial tail, <1 compresses it.  Calibrated per module so the
    #: max/avg segment-entropy ratio matches Table 3.
    profile_exponent: float = 1.0
    #: Spatial wave across segments (Fig. 9): number of periods per bank
    #: and relative amplitude of the entropy modulation.
    wave_periods: float = 9.0
    wave_amplitude: float = 0.12
    #: Relative strength of the entropy *rise* towards the ~97% point of
    #: the bank and the *drop* over the final segments (Fig. 9, third
    #: observation).
    end_rise: float = 0.22
    end_drop: float = 0.55
    #: Per-segment lognormal roughness of the entropy profile.
    segment_roughness: float = 0.08
    #: Within-segment cache-block profile (Fig. 10): base level at the
    #: row's start, mid-row peak gain, and end-of-row penalty exponent.
    column_base: float = 0.85
    column_peak_gain: float = 0.35
    column_end_penalty: float = 0.45
    #: Per-(segment, cache-block) lognormal sweet-spot spread.
    column_roughness: float = 0.18
    #: Probability that a segment intersects a post-manufacturing row
    #: repair, collapsing its entropy (remapped rows are no longer
    #: physically adjacent, so QUAC cannot balance their charge).
    repair_probability: float = 0.004
    #: Multiplicative entropy range for repaired segments.
    repair_floor: float = 0.05
    repair_ceiling: float = 0.30

    def __post_init__(self) -> None:
        if self.offset_zeta <= 0 or self.drive_z <= 0:
            raise ConfigurationError("offset_zeta and drive_z must be positive")
        if not 0 <= self.repair_probability < 1:
            raise ConfigurationError("repair_probability must be in [0, 1)")


class VariationModel:
    """Deterministic variation fields for one module.

    All accessors are pure functions of (seed, coordinates): calling them
    twice -- in any order, from any process -- returns identical values.
    """

    def __init__(self, geometry: DramGeometry, seed: int,
                 params: VariationParameters = VariationParameters()) -> None:
        self._geometry = geometry
        self._seed = seed
        self._params = params

    @property
    def params(self) -> VariationParameters:
        """The parameter set this model was built with."""
        return self._params

    # ------------------------------------------------------------------
    # Segment-level spatial profile (Figure 9)
    # ------------------------------------------------------------------

    def segment_entropy_profile(self, bank_group: int, bank: int) -> np.ndarray:
        """Relative entropy factor for every segment of a bank.

        Returns a positive array of length ``segments_per_bank`` with mean
        ~1.  The shape encodes the paper's three Fig. 9 observations: a
        wave-like modulation, a rise towards the high-address end of the
        bank, and a final drop over the last segments, plus per-segment
        roughness and row-repair collapses that differ across modules.
        """
        p = self._params
        n = self._geometry.segments_per_bank
        x = np.linspace(0.0, 1.0, n, endpoint=False)

        gen = generator_for(self._seed, "segment-wave", bank_group, bank)
        phase = gen.uniform(0, 2 * np.pi)
        period_jitter = gen.uniform(0.85, 1.15)
        profile = 1.0 + p.wave_amplitude * np.sin(
            2 * np.pi * p.wave_periods * period_jitter * x + phase)

        # Rise towards ~97% of the bank, then drop to the end.  The rise
        # and drop centres get mild per-module jitter so that different
        # modules peak at slightly different segments (Fig. 9 shows module
        # M1 and M2 disagreeing locally while sharing the global trend).
        rise_centre = gen.uniform(0.94, 0.97)
        rise_width = 0.035
        profile *= 1.0 + p.end_rise * np.exp(
            -0.5 * ((x - rise_centre) / rise_width) ** 2)
        drop_start = 0.985
        drop = np.clip((x - drop_start) / (1.0 - drop_start), 0.0, 1.0)
        profile *= 1.0 - p.end_drop * drop ** 2

        rough = generator_for(self._seed, "segment-rough", bank_group, bank)
        profile *= np.exp(rough.normal(0.0, p.segment_roughness, size=n))

        if p.profile_exponent != 1.0:
            profile = profile ** p.profile_exponent

        repair = generator_for(self._seed, "segment-repair", bank_group, bank)
        repaired = repair.random(n) < p.repair_probability
        if repaired.any():
            collapse = repair.uniform(p.repair_floor, p.repair_ceiling,
                                      size=int(repaired.sum()))
            profile[repaired] *= collapse
        return profile

    # ------------------------------------------------------------------
    # Within-segment column profile (Figure 10)
    # ------------------------------------------------------------------

    def column_entropy_profile(self) -> np.ndarray:
        """Deterministic relative entropy factor per cache block.

        Peaks around the middle of the row and deteriorates towards the
        high-numbered cache blocks (Fig. 10).  Shared by every segment;
        per-segment roughness is added separately.
        """
        p = self._params
        n = self._geometry.cache_blocks_per_row
        x = np.linspace(0.0, 1.0, n)
        profile = (p.column_base + p.column_peak_gain * np.sin(np.pi * x))
        profile *= 1.0 - p.column_end_penalty * x ** 4
        return profile

    def column_roughness_field(self, bank_group: int, bank: int,
                               segment: int) -> np.ndarray:
        """Per-(segment, cache block) lognormal sweet-spot factors."""
        gen = generator_for(self._seed, "column-rough",
                            bank_group, bank, segment)
        n = self._geometry.cache_blocks_per_row
        return np.exp(gen.normal(0.0, self._params.column_roughness, size=n))

    def block_scales(self, bank_group: int, bank: int,
                     segments: Sequence[int]) -> np.ndarray:
        """Entropy factor of every cache block of ``segments``.

        Row ``i`` is segment ``segments[i]``'s spatial factor times the
        cache-block profile and the segment's sweet-spot roughness.
        Entropy factors *divide* zeta: a cache block's SA-offset spread
        is ``offset_zeta / scale``, so a high-entropy region is one whose
        offsets crowd the metastable zone.  Draws the bank's profile
        once, then each segment's roughness, in the order given.

        >>> from repro.dram.geometry import DramGeometry
        >>> geometry = DramGeometry.small(segments_per_bank=16,
        ...                               cache_blocks_per_row=4)
        >>> model = VariationModel(geometry, seed=1)
        >>> scales = model.block_scales(0, 0, [3, 7])
        >>> scales.shape
        (2, 4)
        >>> zeta = model.effective_zeta(0, 0, 7)
        >>> bool((zeta[::512] == model.params.offset_zeta / scales[1]).all())
        True
        """
        self._geometry.check_bank(bank_group, bank)
        segments = [int(segment) for segment in segments]
        for segment in segments:
            self._geometry.check_segment(segment)
        profile = self.segment_entropy_profile(bank_group, bank)
        rough = np.array([self.column_roughness_field(bank_group, bank, s)
                          for s in segments])
        return profile[segments, None] * (self.column_entropy_profile() *
                                          rough)

    # ------------------------------------------------------------------
    # Bitline-level offsets
    # ------------------------------------------------------------------

    def effective_zeta(self, bank_group: int, bank: int,
                       segment: int) -> np.ndarray:
        """Per-bitline SA-offset spread (z-units) for one segment.

        Each bitline gets ``offset_zeta`` over its cache block's
        :meth:`block_scales` entry.
        """
        scales = self.block_scales(bank_group, bank, [segment])[0]
        return np.repeat(self._params.offset_zeta / scales, CACHE_BLOCK_BITS)

    def bitline_offsets_z(self, bank_group: int, bank: int,
                          segment: int) -> np.ndarray:
        """Fixed per-bitline SA offsets (z-units) for one segment.

        Gaussian with the position-dependent spread of
        :meth:`effective_zeta`; deterministic per (seed, coordinates).
        """
        zeta = self.effective_zeta(bank_group, bank, segment)
        gen = generator_for(self._seed, "sa-offset", bank_group, bank, segment)
        return (gen.standard_normal(zeta.size) * zeta +
                self._params.polarity_bias_z)

    # ------------------------------------------------------------------
    # Charge-sharing weights (Figure 8 favouritism)
    # ------------------------------------------------------------------

    def row_charge_weights(self, bank_group: int, bank: int, segment: int,
                           first_position: int) -> np.ndarray:
        """Charge-sharing weights of the four rows of a segment.

        The row at ``first_position`` (the first ACT's target) carries the
        mean weight ``first_row_weight``; the other three carry weight 1.
        Every weight receives per-(segment, row) multiplicative jitter,
        which is what lets rare segments favour nominally-imbalanced
        patterns (the paper's 53-bit "0100" cache block).
        """
        if not 0 <= first_position <= 3:
            raise ConfigurationError(
                f"first_position must be in 0..3, got {first_position}")
        p = self._params
        gen = generator_for(self._seed, "row-weight", bank_group, bank, segment)
        jitter = np.exp(gen.normal(0.0, p.row_weight_jitter, size=4))
        if gen.random() < p.favoritism_probability:
            anomalous_row = int(gen.integers(0, 4))
            jitter[anomalous_row] *= gen.uniform(p.favoritism_low,
                                                 p.favoritism_high)
        weights = np.ones(4) * jitter
        weights[first_position] *= p.first_row_weight
        return weights

    def pattern_shift(self, weights: np.ndarray,
                      bits: np.ndarray) -> np.ndarray:
        """Deterministic SA deviation (z-units) of a uniform pattern.

        ``weights`` holds :meth:`row_charge_weights`, four per segment
        along the last axis, and ``bits`` a pattern's four row bits
        (:func:`repro.dram.device.parse_data_pattern`).  The net charge
        imbalance, in half-VDD units, drives ``drive_z`` per unit, and
        every amplifier adds the polarity bias.
        """
        imbalance = (weights * (bits - 0.5)).sum(axis=-1)
        return imbalance * self._params.drive_z + self._params.polarity_bias_z
