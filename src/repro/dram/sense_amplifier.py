"""Sense-amplifier metastability model.

The paper's entropy mechanism (Section 5.1): after a QUAC, the four cells
on each bitline have shared charge, leaving the bitline close to the
quiescent VDD/2.  A differential sense amplifier asked to amplify a
deviation below its reliable sensing margin settles non-deterministically,
steered by (a) its fixed, process-variation-induced input offset and
(b) thermal noise.

We model the settling decision as a signed comparison corrupted by
Gaussian thermal noise:

    sampled_value = 1  iff  dV + offset + noise > 0,
    noise ~ N(0, sigma_thermal)

so the probability of sampling a one is ``Phi((dV + offset) / sigma)``.
All quantities are expressed in *z-units* -- multiples of the thermal
noise standard deviation -- which is the only scale that matters for the
settling statistics.  The per-bitline Shannon entropy then follows
analytically from p, and bitstreams are Bernoulli samples of p.

The same functions back both the fast analytic characterization paths
(Figures 8-10, Table 3) and the Monte-Carlo bitstream paths (NIST tests).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

import repro.rng
from repro.errors import BitstreamError, ConfigurationError

#: Probabilities are clipped into [EPS, 1-EPS] before taking logarithms.
_EPS = 1e-300


def settle_probability(deviation_z: np.ndarray) -> np.ndarray:
    """Probability that each SA settles to logical 1.

    Parameters
    ----------
    deviation_z:
        Net bitline deviation (pattern drive + SA offset) in thermal-noise
        z-units.  Any shape; broadcast-compatible.

    Returns
    -------
    ``Phi(deviation_z)`` elementwise (standard normal CDF).
    """
    return ndtr(np.asarray(deviation_z, dtype=np.float64))


def bernoulli_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of Bernoulli(p), elementwise.

    This is Equation 1 of the paper.  Exactly 0.0 at p in {0, 1}; exactly
    1.0 at p = 0.5.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise BitstreamError("probabilities must lie in [0, 1]")
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(np.clip(p, _EPS, None)) +
              q * np.log2(np.clip(q, _EPS, None)))
    return np.where((p == 0) | (p == 1), 0.0, h)


def empirical_entropy(bits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy estimated from observed bits along ``axis``.

    This is what the paper's characterization computes from 1000 repeated
    QUAC operations per sense amplifier (Section 6.1.2).
    """
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise BitstreamError("bit arrays must contain only 0 and 1")
    p_one = bits.mean(axis=axis)
    return bernoulli_entropy(p_one)


def settle_thresholds(p: np.ndarray) -> np.ndarray:
    """32-bit lane thresholds ``ceil(p * 2**32)`` as ``uint64``.

    A uniform 32-bit lane ``u`` settles to one iff ``u < t``, so
    ``P(1) = t / 2**32``: exactly 0 at p = 0, exactly 1 at p = 1, and
    within ``2**-32`` of p in between (scaling by a power of two is
    exact in float64, so the ceiling is the only rounding).
    """
    p = np.asarray(p, dtype=np.float64)
    return np.ceil(p * 2.0 ** 32).astype(np.uint64)


def sample_settles(p: np.ndarray, rng: np.random.Generator,
                   iterations: int = 1) -> np.ndarray:
    """Draw SA settling outcomes.

    Each outcome consumes one 32-bit lane of the generator's raw
    64-bit output: raw draw ``j`` supplies lanes ``2j`` (its low half)
    and ``2j + 1`` (its high half), row-major over
    ``(iterations, bits)``, whatever the host's byte order.  Lane ``u``
    settles to one iff ``u < ceil(p * 2**32)``
    (:func:`settle_thresholds`).  An even ``bits`` keeps every row on
    whole raw draws, so row ``k`` starts at raw draw ``k * bits / 2``
    -- which is what lets :func:`sample_iterations` jump to any
    iteration.

    Parameters
    ----------
    p:
        Per-bitline probability of settling to 1, shape ``(bits,)``.
    rng:
        Source of randomness (deterministic per draw site; see
        :mod:`repro.rng`).
    iterations:
        Number of repeated QUAC operations to simulate.

    Returns
    -------
    ``uint8`` array of shape ``(iterations, bits)`` (squeezed to
    ``(bits,)`` when ``iterations == 1``).
    """
    t = settle_thresholds(p)
    lanes_needed = iterations * t.size
    lanes = (rng.bit_generator.random_raw(-(-lanes_needed // 2))
             .astype("<u8", copy=False).view("<u4")[:lanes_needed]
             .reshape(iterations, t.size))
    # ``lanes < t`` computed in 32 bits (a mixed 32/64-bit compare
    # costs 2.5x): t = 2**32 (p = 1) only differs from its 32-bit clip
    # on the all-ones lane, so those bitlines are forced to one after.
    always = t > np.iinfo(np.uint32).max
    bits = np.less(lanes, np.minimum(t, np.iinfo(np.uint32).max)
                   .astype(np.uint32))
    if always.any():
        np.logical_or(bits, always, out=bits)
    bits = bits.view(np.uint8)
    if iterations == 1:
        return bits[0]
    return bits


def sample_iterations(p: np.ndarray, key, first_iteration: int,
                      iterations: int = 1) -> np.ndarray:
    """Draw iterations ``[first_iteration, first_iteration + iterations)``
    of a segment's thermal stream.

    The one place that knows the thermal stream layout: iteration ``k``
    of a ``bits``-wide segment occupies raw draws ``[k * bits / 2,
    (k + 1) * bits / 2)`` (two lanes per raw draw, see
    :func:`sample_settles`), so the stream built by
    :func:`repro.rng.generator_from_key` is advanced straight past the
    first ``first_iteration`` rows.  Iteration ``k`` is therefore the
    same however the iterations are split into calls.

    Returns the same shapes as :func:`sample_settles`.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size % 2:
        raise ConfigurationError(
            f"thermal streams need an even row width, got {p.size} bits")
    rng = repro.rng.generator_from_key(key, first_iteration * p.size // 2)
    return sample_settles(p, rng, iterations)


def deviation_from_cells(cell_values: np.ndarray, first_row: int,
                         first_row_weight: float, drive_z: float) -> np.ndarray:
    """Net bitline deviation caused by four-way charge sharing, in z-units.

    Parameters
    ----------
    cell_values:
        ``(4, bits)`` array of stored cell values in {0, 1}; row axis is
        position-in-segment order (Row0..Row3).
    first_row:
        Position (0..3) of the row the first ACT opened.  Its cells share
        charge for longer (T1..T3 in the paper's Figure 5) and therefore
        weigh more in the final bitline voltage -- the paper's explanation
        for why "0111"/"1000" maximize entropy.
    first_row_weight:
        Relative charge-sharing weight of the first row (w ~ 3 balances
        one early row against three late ones).
    drive_z:
        Conversion from one unit of charge imbalance (a half-VDD cell
        deviation) to thermal-noise z-units.  Large values make any net
        imbalance decisively overpower the noise, which is what keeps
        non-conflicting patterns deterministic.

    Returns
    -------
    ``(bits,)`` float array of deviations in z-units.
    """
    cells = np.asarray(cell_values, dtype=np.float64)
    if cells.ndim != 2 or cells.shape[0] != 4:
        raise BitstreamError(
            f"cell_values must have shape (4, bits), got {cells.shape}")
    if not 0 <= first_row <= 3:
        raise ValueError(f"first_row must be in 0..3, got {first_row}")
    weights = np.ones(4)
    weights[first_row] = first_row_weight
    centered = cells - 0.5
    imbalance = (weights[:, None] * centered).sum(axis=0)
    return imbalance * drive_z
