"""Calibration of the variation model against measured entropy targets.

The paper reports, per module, the average and maximum *segment entropy*
(sum of all per-bitline Shannon entropies in a segment) for the best data
pattern (Table 3).  Our substitute silicon must land on those magnitudes
for the downstream throughput model to reproduce Figure 11 / Table 2.

The only free scale is the module-level SA-offset spread
``offset_zeta``: expected per-bitline entropy is a smooth, monotonically
decreasing function of it.  This module computes that expectation
semi-analytically and solves for the ``offset_zeta`` that hits a target
average segment entropy, given the module's sampled variation fields.

The expectation: a bitline with offset spread ``zeta`` and deterministic
pattern shift ``s`` (z-units) has settling probability ``Phi(s + o)``
with ``o ~ N(0, zeta^2)``, so its expected entropy is

    h(zeta, s) = Integral H(Phi(z)) * N(z; s, zeta^2) dz

evaluated on a fixed grid (H(Phi(z)) is negligible for |z| > 8).

Only ``zeta`` depends on the candidate spread.  A segment's fixed terms
-- its spatial factor times the cache-block profile and roughness
(``scale``, so ``zeta = offset_zeta / scale`` per cache block) and its
pattern ``shift`` from the row charge weights -- are drawn once per
calibration, and each bisection step re-evaluates only the integral.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np

from repro.dram.geometry import CACHE_BLOCK_BITS, DramGeometry
from repro.dram.sense_amplifier import bernoulli_entropy, settle_probability
from repro.dram.variation import VariationModel, VariationParameters
from repro.errors import CharacterizationError

#: Integration grid for h(zeta, shift): H(Phi(z)) support is |z| < ~8.
_GRID = np.linspace(-10.0, 10.0, 2001)
_GRID_H = bernoulli_entropy(settle_probability(_GRID))
_GRID_DZ = float(_GRID[1] - _GRID[0])

#: Integral of H(Phi(z)) over the real line -- the constant behind the
#: large-zeta approximation h(zeta, s) ~ C_H * N(0; s, zeta^2).
C_H = float(_GRID_H.sum() * _GRID_DZ)


def expected_bitline_entropy(zeta: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Expected Shannon entropy (bits) of one bitline.

    Parameters
    ----------
    zeta:
        SA-offset standard deviation(s) in z-units; a scalar or 1-D.
    shift:
        Deterministic pattern-induced deviation in z-units.

    Notes
    -----
    Computed by integrating the entropy of ``Phi(z)`` against the offset
    density ``N(z; shift, zeta^2)`` on a fixed grid.  Accurate to ~1e-4
    bits for ``zeta >= 0.5``.  The density is built in place in one
    ``(zeta.size, grid)`` buffer.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.float64))
    if np.any(zeta <= 0):
        raise CharacterizationError("zeta must be positive")
    pdf = (_GRID - shift) / zeta[:, None]
    np.square(pdf, out=pdf)
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf /= zeta[:, None] * np.sqrt(2 * np.pi)
    pdf *= _GRID_H
    return pdf.sum(axis=1) * _GRID_DZ


def expected_bitline_entropy_fast(zeta: np.ndarray,
                                  shift: np.ndarray) -> np.ndarray:
    """Large-zeta closed form of :func:`expected_bitline_entropy`.

    For offset spreads well beyond the ~3-z-unit width of the metastable
    window, the entropy kernel acts as a point mass of weight ``C_H`` at
    the origin, giving

        h(zeta, s) ~ C_H * exp(-s^2 / (2 zeta^2)) / (sqrt(2 pi) zeta)

    Accurate to ~1% for zeta >= 8 -- every regime the characterization
    sweeps touch -- and fully vectorized over broadcastable arrays,
    which the module-scale entropy maps need (8K segments x 128 cache
    blocks x 16 patterns in milliseconds rather than minutes).
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    if np.any(zeta <= 0):
        raise CharacterizationError("zeta must be positive")
    return (C_H * np.exp(-0.5 * (shift / zeta) ** 2) /
            (np.sqrt(2 * np.pi) * zeta))


def _pattern_imbalance(weights: np.ndarray, pattern: str) -> float:
    """Net charge imbalance of a uniform 4-row pattern, in half-VDD units."""
    values = np.array([int(c) for c in pattern], dtype=np.float64)
    return float((weights * (values - 0.5)).sum())


def _segment_terms(model: VariationModel, bank_group: int, bank: int,
                   segment: int, pattern: str, first_position: int,
                   profile_value: float) -> Tuple[np.ndarray, float]:
    """A segment's fixed terms: per-cache-block ``scale`` and ``shift``.

    Neither depends on ``offset_zeta``: a candidate spread ``zeta``
    gives the cache blocks the spreads ``zeta / scale``.
    """
    col = model.column_entropy_profile() * model.column_roughness_field(
        bank_group, bank, segment)
    weights = model.row_charge_weights(bank_group, bank, segment,
                                       first_position)
    shift = (_pattern_imbalance(weights, pattern) * model.params.drive_z +
             model.params.polarity_bias_z)
    return profile_value * col, shift


def _segment_bits(zeta_blocks: np.ndarray, shift: float) -> float:
    """Expected segment entropy (bits) from its per-cache-block spreads."""
    h = expected_bitline_entropy(zeta_blocks, shift)
    return float((h * CACHE_BLOCK_BITS).sum())


def expected_segment_entropy(model: VariationModel, geometry: DramGeometry,
                             bank_group: int, bank: int, segment: int,
                             offset_zeta: float, pattern: str,
                             first_position: int = 0,
                             profile_value: float = None) -> float:
    """Expected segment entropy for a candidate ``offset_zeta``.

    Uses the segment's actual sampled variation fields (segment factor,
    column profile/roughness, row weights) but integrates out the
    per-bitline offset draw analytically.
    """
    if profile_value is None:
        profile_value = model.segment_entropy_factor(bank_group, bank, segment)
    scale, shift = _segment_terms(model, bank_group, bank, segment, pattern,
                                  first_position, profile_value)
    return _segment_bits(offset_zeta / scale, shift)


def calibrate_offset_zeta(geometry: DramGeometry, seed: int,
                          params: VariationParameters,
                          target_avg_segment_entropy: float,
                          pattern: str = "0111",
                          bank_group: int = 0, bank: int = 0,
                          n_sample_segments: int = 48,
                          tolerance: float = 0.01,
                          ) -> Tuple[VariationParameters, float]:
    """Solve for the ``offset_zeta`` hitting a target average entropy.

    Returns the updated parameter set and the achieved expected average.
    Bisection over ``offset_zeta``; the expectation is monotone in it.
    Each sampled segment's variation fields (spatial factor, column
    roughness, row weights) are drawn once, before the bisection, so a
    step re-evaluates only the entropy integral.

    Raises
    ------
    CharacterizationError
        If the target is unreachable within the bisection bracket.
    """
    if target_avg_segment_entropy <= 0:
        raise CharacterizationError("target entropy must be positive")
    model = VariationModel(geometry, seed, params)
    n_seg = geometry.segments_per_bank
    sample = np.unique(np.linspace(0, n_seg - 1, min(n_sample_segments, n_seg),
                                   dtype=np.int64))
    profile = model.segment_entropy_profile(bank_group, bank)

    terms = [_segment_terms(model, bank_group, bank, int(seg), pattern, 0,
                            float(profile[seg])) for seg in sample]

    def average_for(candidate_zeta: float) -> float:
        total = 0.0
        for scale, shift in terms:
            total += _segment_bits(candidate_zeta / scale, shift)
        return total / sample.size

    lo, hi = 2.0, 2000.0
    avg_lo, avg_hi = average_for(lo), average_for(hi)
    # Entropy decreases with zeta: avg_lo is the reachable maximum.
    if not avg_hi <= target_avg_segment_entropy <= avg_lo:
        raise CharacterizationError(
            f"target {target_avg_segment_entropy:.1f} bits outside reachable "
            f"range [{avg_hi:.1f}, {avg_lo:.1f}]")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        avg_mid = average_for(mid)
        if abs(avg_mid - target_avg_segment_entropy) / \
                target_avg_segment_entropy < tolerance:
            return replace(params, offset_zeta=mid), avg_mid
        if avg_mid > target_avg_segment_entropy:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return replace(params, offset_zeta=mid), average_for(mid)
