"""SHA input block (SIB) planning (Sections 5.2, 7.2 and 8).

After a QUAC, the memory controller reads the segment and must split the
read-out into blocks that each carry 256 bits of Shannon entropy before
hashing.  The split is *planned offline* from the characterization: the
controller stores a list of column-address sets, "where each address
points to a contiguous range of cache blocks in the DRAM segment with
256-bits of entropy" (Section 8), one list per temperature range.

``SIB`` -- the number of such blocks in the highest-entropy segment --
is the throughput parameter of Section 7.2:
``SIB = floor(segment_entropy / 256)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.dram.geometry import CACHE_BLOCK_BITS
from repro.errors import CharacterizationError, InsufficientEntropyError

#: Entropy each SHA input block must carry (bits) -- the paper's choice,
#: matching the SHA-256 digest width so outputs are fully entropic.
DEFAULT_BLOCK_ENTROPY = 256.0


def _check_budget(entropy_per_block: float) -> None:
    """Reject a per-block entropy budget that is not finite and positive."""
    if not (np.isfinite(entropy_per_block) and entropy_per_block > 0):
        raise CharacterizationError(
            f"entropy_per_block must be finite and positive, got "
            f"{entropy_per_block}")


@dataclass(frozen=True)
class EntropyBlockPlan:
    """A contiguous cache-block range carrying one SIB's entropy.

    ``start``/``stop`` are cache-block indices (stop exclusive);
    ``entropy_bits`` is the range's total Shannon entropy.
    """

    start: int
    stop: int
    entropy_bits: float

    @property
    def n_cache_blocks(self) -> int:
        return self.stop - self.start

    @property
    def bit_slice(self) -> slice:
        """Bit-index slice of this range within the segment read-out."""
        return slice(self.start * CACHE_BLOCK_BITS,
                     self.stop * CACHE_BLOCK_BITS)


def plan_entropy_blocks(cache_block_entropies: np.ndarray,
                        entropy_per_block: float = DEFAULT_BLOCK_ENTROPY
                        ) -> List[EntropyBlockPlan]:
    """Greedy left-to-right split into contiguous 256-entropy-bit ranges.

    Walks the cache blocks accumulating entropy; each time the running
    total reaches ``entropy_per_block``, a range is closed and a new one
    starts.  The trailing partial range is discarded (its entropy is
    insufficient to back a digest).

    Raises
    ------
    CharacterizationError
        If the entropy array is empty or negative anywhere, or the
        budget is not finite and positive.
    """
    entropies = np.asarray(cache_block_entropies, dtype=np.float64)
    if entropies.ndim != 1 or entropies.size == 0:
        raise CharacterizationError(
            "cache-block entropies must be a non-empty 1-D array")
    if np.any(entropies < 0):
        raise CharacterizationError("entropies cannot be negative")
    _check_budget(entropy_per_block)

    plans: List[EntropyBlockPlan] = []
    start = 0
    running = 0.0
    for index, value in enumerate(entropies):
        running += float(value)
        if running >= entropy_per_block:
            plans.append(EntropyBlockPlan(start=start, stop=index + 1,
                                          entropy_bits=running))
            start = index + 1
            running = 0.0
    return plans


def sha_input_blocks(readout: np.ndarray,
                     plans: List[EntropyBlockPlan]) -> List[np.ndarray]:
    """Slice a segment read-out into the planned SHA input blocks."""
    bits = np.asarray(readout, dtype=np.uint8)
    if not plans:
        raise InsufficientEntropyError(
            "no entropy-block plan: the segment cannot back even one "
            "256-entropy-bit SHA input block")
    expected = plans[-1].stop * CACHE_BLOCK_BITS
    if bits.size < expected:
        raise InsufficientEntropyError(
            f"read-out of {bits.size} bits shorter than the plan's "
            f"{expected}-bit span")
    return [bits[plan.bit_slice] for plan in plans]


def sib_count(segment_entropy_bits: float,
              entropy_per_block: float = DEFAULT_BLOCK_ENTROPY) -> int:
    """The paper's SIB formula: floor(segment entropy / 256)."""
    if segment_entropy_bits < 0:
        raise CharacterizationError("segment entropy cannot be negative")
    _check_budget(entropy_per_block)
    return int(segment_entropy_bits // entropy_per_block)
