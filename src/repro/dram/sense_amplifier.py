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

from copy import deepcopy
from typing import NamedTuple, Tuple

import numpy as np

import repro.rng
from repro.errors import BitstreamError

#: Probabilities are clipped into [EPS, 1-EPS] before taking logarithms.
_EPS = 1e-300

#: Rows :func:`sample_settles` draws and compares per pass: enough to
#: amortize the per-pass numpy calls, few enough that a pass's draws
#: and flags stay small and reused (whole-task temporaries cost page
#: faults on every task).
_CHUNK_ROWS = 64

#: Fewest refinement draws per row (16 lanes against 1/256 ties).
_MIN_REFINEMENT_DRAWS = 8

#: How far past a row's first draw its overflow refinement lanes start.
_OVERFLOW_DRAWS = 2 ** 126


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
    # Imported here, its one user, so the thermal kernel a remote
    # worker runs loads no scipy.
    from scipy.special import ndtr
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


class SettleThresholds(NamedTuple):
    """A row's lane thresholds, one entry per bitline.

    ``t = ceil(p * 2**32)`` split as ``hi = min(t >> 24, 255)`` and
    ``lo = t - hi * 2**24`` (so ``lo`` lies in ``[0, 2**24]``): the
    decision byte compares with ``hi``, and only a tie reads a 24-bit
    refinement lane to compare with ``lo`` (:func:`sample_settles`).
    """

    #: ``uint8`` decision thresholds.
    hi: np.ndarray
    #: ``uint32`` refinement thresholds, each at most ``2**24``.
    lo: np.ndarray


def settle_thresholds(p: np.ndarray) -> SettleThresholds:
    """The lane thresholds of settle probabilities ``p``.

    ``t = ceil(p * 2**32)`` is exact in float64 (scaling by a power of
    two is exact, so the ceiling is the only rounding), and a bitline
    settles to one with probability exactly ``t / 2**32``: 0 at p = 0,
    1 at p = 1 and within ``2**-32`` above p in between.  This is the
    one place probabilities become thresholds, so it refuses a ``p``
    below 0, above 1 or NaN with :class:`~repro.errors.BitstreamError`.

    >>> hi, lo = settle_thresholds([0.0, 0.5, 2.0 ** -32, 1.0])
    >>> hi.tolist(), lo.tolist()
    ([0, 128, 0, 255], [0, 0, 1, 16777216])
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise BitstreamError(
            "settle probabilities must lie in [0, 1] (no NaN)")
    t = np.ceil(p * 2.0 ** 32).astype(np.uint64)
    hi = np.minimum(t >> 24, 255)
    return SettleThresholds(hi.astype(np.uint8),
                            (t - (hi << 24)).astype(np.uint32))


def row_draws(width: int) -> Tuple[int, int]:
    """Raw 64-bit draws of one ``width``-bit row: ``(decision,
    refinement)``.

    ``ceil(width / 8)`` draws hold one decision byte per bitline, and
    ``max(8, ceil(width / 128))`` more hold the row's refinement lanes,
    two 32-bit lanes per draw.  At 4,096 bits that is 512 + 32 draws,
    against 2,048 for one 32-bit lane per bitline.
    """
    return -(-width // 8), max(_MIN_REFINEMENT_DRAWS, -(-width // 128))


def sample_settles(p, rng: np.random.Generator,
                   iterations: int = 1) -> np.ndarray:
    """Draw SA settling outcomes with exact lazy lanes.

    Row ``k`` of the call is the ``D = B + R`` raw draws from draw
    ``k * D`` of ``rng``'s bit generator (:func:`row_draws`), read
    little-endian whatever the host's byte order:

    * byte ``j`` of the first ``B`` draws is bitline ``j``'s decision
      byte ``b``.  ``b < hi`` settles it to one, ``b > hi`` to zero;
    * a tie (``b == hi``, probability 1/256) takes the row's next
      refinement lane ``r``, in column order, and settles to
      ``r < lo``.  The last ``R`` draws are the row's ``2R`` refinement
      lanes (low half of each draw first), each a 32-bit lane shifted
      right by 8;
    * ties past the ``2R``-th (a 4,096-bit row has more than 64 with
      probability 2.5e-20) read their lanes the same way from a copy
      of the bit generator advanced ``2**126`` draws past the row's
      first draw.

    So ``P(1)`` is exactly ``t / 2**32``
    (``(b << 24 | r) < t`` is the same comparison), and every row is a
    pure function of its own draws, which is what lets
    :func:`sample_iterations` jump to any iteration.  The ties of
    bitlines with ``p`` = 0 or 1 take lanes too, and resolve to 0 and 1.
    Rows run in chunks into one preallocated result, so a long task
    allocates no whole-task temporaries.

    Parameters
    ----------
    p:
        Per-bitline probability of settling to 1, shape ``(bits,)``, or
        their :class:`SettleThresholds` (computed once and reused).
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
    hi, lo = p if isinstance(p, SettleThresholds) else settle_thresholds(p)
    width = hi.size
    decision, refinement = row_draws(width)
    draws = decision + refinement
    bit_generator = rng.bit_generator
    # Rows padded to whole decision draws, and tie flags whose padding
    # stays False, so ties are found a 64-bit word at a time and a tie
    # has the same flat index in both.
    padded = 8 * decision
    bits = np.empty((iterations, padded), dtype=bool)
    ties = np.zeros((min(iterations, _CHUNK_ROWS), padded), dtype=bool)
    for first in range(0, iterations, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, iterations - first)
        raw = (bit_generator.random_raw(rows * draws)
               .astype("<u8", copy=False).reshape(rows, draws))
        decisions = raw[:, :decision].view(np.uint8)[:, :width]
        out = bits[first:first + rows]
        np.less(decisions, hi, out=out[:, :width])
        tie = ties[:rows]
        np.equal(decisions, hi, out=tie[:, :width])
        if rows == 1:
            # A one-row pass (a key-sized refill) is all call overhead:
            # one ``flatnonzero`` finds its ties, already ranked.
            flat = np.flatnonzero(tie)
            row, column = np.zeros_like(flat), flat
            rank = np.arange(flat.size)
        else:
            # A tie is found a word at a time: ``take`` and a 1-D
            # ``flatnonzero`` cost a fraction of fancy indexing and a
            # 2-D ``nonzero``.
            words = np.flatnonzero(tie.view(np.uint64) != 0)
            at = np.flatnonzero(np.take(tie.reshape(-1, 8), words, axis=0))
            flat = words[at >> 3] * 8 + (at & 7)
            row, column = np.divmod(flat, padded)
            rank = np.arange(flat.size) - \
                np.searchsorted(row, np.arange(rows))[row]
        lanes = raw[:, decision:].view("<u4")
        settled = out.reshape(-1)
        # Only a pass with more ties than a row has lanes can overflow.
        fits = rank < lanes.shape[1] if flat.size > lanes.shape[1] else None
        if fits is not None and not fits.all():
            for i in np.unique(row[~fits]).tolist():
                excess = (row == i) & ~fits
                settled[flat[excess]] = _overflow_lanes(
                    bit_generator, (rows - i) * draws,
                    int(excess.sum())) < lo[column[excess]]
            flat, row, column, rank = (flat[fits], row[fits], column[fits],
                                       rank[fits])
        settled[flat] = (lanes[row, rank] >> 8) < lo[column]
    bits = bits[:, :width].view(np.uint8)
    if iterations == 1:
        return bits[0]
    return bits


def _overflow_lanes(bit_generator, behind: int, count: int) -> np.ndarray:
    """``count`` 24-bit lanes from ``2**126`` draws past a row whose
    first draw is ``behind`` draws before the generator's position (a
    copy is advanced; the generator itself does not move)."""
    copy = deepcopy(bit_generator)
    copy.advance(_OVERFLOW_DRAWS - behind)
    lanes = copy.random_raw(-(-count // 2)).astype("<u8", copy=False)
    return lanes.view("<u4")[:count] >> 8


def sample_iterations(p, key, first_iteration: int,
                      iterations: int = 1) -> np.ndarray:
    """Draw iterations ``[first_iteration, first_iteration + iterations)``
    of a segment's thermal stream.

    The one place that positions the thermal stream: iteration ``k``
    of a ``bits``-wide segment is the row of :func:`sample_settles`
    at raw draws ``[k * D, (k + 1) * D)`` (``D`` from
    :func:`row_draws`), so the stream built by
    :func:`repro.rng.generator_from_key` is advanced straight past the
    first ``first_iteration`` rows.  Iteration ``k`` is therefore the
    same however the iterations are split into calls.  ``p`` is the
    probability vector or its :class:`SettleThresholds`.

    Returns the same shapes as :func:`sample_settles`.
    """
    if not isinstance(p, SettleThresholds):
        p = settle_thresholds(p)
    rng = repro.rng.generator_from_key(
        key, first_iteration * sum(row_draws(p.hi.size)))
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
