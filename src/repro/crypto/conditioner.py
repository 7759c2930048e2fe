"""Conditioning (post-processing) interfaces and cost constants.

A :class:`Conditioner` turns raw entropy-source bits into output random
bits.  Three implementations cover everything the paper evaluates:

* :class:`RawConditioner` -- identity (the "as read" stream);
* :class:`VonNeumannConditioner` -- the classic debiaser (Section 6.2);
* :class:`Sha256Conditioner` -- the paper's production path: the input is
  split into blocks each carrying a target amount of Shannon entropy
  (256 bits by default -- one "SHA Input Block") and each block is hashed
  into a 256-bit output (Section 5.2).

The SHA-256 hardware-core constants the paper adopts for its latency and
area accounting (Section 9, citing Baldanzi et al.) are exported here so
the throughput model and the overhead model agree on them.
"""

from __future__ import annotations

import abc
import hashlib
from typing import List

import numpy as np

from repro.bitops import ensure_bits, is_binary, pack_bits, unpack_bits
from repro.crypto.sha256 import Sha256, sha256_bits
from repro.crypto.von_neumann import von_neumann_correct
from repro.errors import BitstreamError, InsufficientEntropyError

#: Hardware SHA-256 core figures used by the paper (Section 9):
#: 65 cycles at 5.15 GHz, 19.7 Gb/s, 0.001 mm^2 at 7 nm.
SHA256_HW_LATENCY_NS = 65 / 5.15
SHA256_HW_THROUGHPUT_GBPS = 19.7
SHA256_HW_AREA_MM2 = 0.001


def ensure_block_matrix(blocks: np.ndarray) -> np.ndarray:
    """Validate a ``(n_blocks, block_bits)`` bit matrix of {0, 1}."""
    matrix = np.asarray(blocks)
    if matrix.ndim != 2:
        raise BitstreamError(
            f"block matrix must be 2-D, got shape {matrix.shape}")
    if not is_binary(matrix):
        raise BitstreamError("bitstream values must be 0 or 1")
    return matrix.astype(np.uint8, copy=False)


class Conditioner(abc.ABC):
    """Maps raw entropy-source bits to conditioned output bits."""

    #: Short name used in reports ("raw", "vnc", "sha256").
    name: str = "abstract"

    @abc.abstractmethod
    def condition(self, bits: np.ndarray) -> np.ndarray:
        """Transform a raw bitstream into output random bits."""

    def condition_many(self, blocks: np.ndarray) -> np.ndarray:
        """Condition every row of a ``(n_blocks, block_bits)`` matrix.

        Returns the per-block outputs concatenated in row order.  The
        base implementation loops :meth:`condition`; implementations
        with a cheaper bulk form (notably SHA-256) override it.  The
        batched generation pipeline funnels every conditioning flavour
        through this one entry point.
        """
        matrix = ensure_block_matrix(blocks)
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([self.condition(row) for row in matrix])

    @abc.abstractmethod
    def output_bits_for(self, raw_bits: int, raw_entropy_bits: float) -> float:
        """Expected output length for a raw block (throughput modelling)."""

    def latency_ns(self) -> float:
        """Hardware latency added per conditioning step (default: none)."""
        return 0.0


class RawConditioner(Conditioner):
    """Identity conditioning: emit the raw stream unchanged."""

    name = "raw"

    def condition(self, bits: np.ndarray) -> np.ndarray:
        return ensure_bits(bits).copy()

    def condition_many(self, blocks: np.ndarray) -> np.ndarray:
        return ensure_block_matrix(blocks).reshape(-1).copy()

    def output_bits_for(self, raw_bits: int, raw_entropy_bits: float) -> float:
        return float(raw_bits)


class VonNeumannConditioner(Conditioner):
    """Von Neumann debiasing; output length is input-dependent."""

    name = "vnc"

    def condition(self, bits: np.ndarray) -> np.ndarray:
        return von_neumann_correct(bits)

    def output_bits_for(self, raw_bits: int, raw_entropy_bits: float) -> float:
        # For modelling purposes assume the ideal i.i.d. yield at the bias
        # implied by the entropy content; conservative for correlated input.
        return 0.25 * raw_bits * min(1.0, raw_entropy_bits / max(raw_bits, 1))


class Sha256Conditioner(Conditioner):
    """The paper's SHA-256 entropy-block conditioning.

    ``entropy_per_block`` is the Shannon entropy each input block must
    carry (the security parameter; the paper uses 256 bits so that each
    256-bit output is fully entropic).  ``use_builtin`` selects this
    library's from-scratch SHA-256 over :mod:`hashlib`; the two are
    bit-identical (the test suite proves it), the default is just
    faster for bulk conditioning.
    """

    name = "sha256"

    def __init__(self, entropy_per_block: float = 256.0,
                 use_builtin: bool = False) -> None:
        if entropy_per_block <= 0:
            raise InsufficientEntropyError(
                "entropy_per_block must be positive")
        self.entropy_per_block = entropy_per_block
        self.use_builtin = use_builtin

    def condition(self, bits: np.ndarray) -> np.ndarray:
        """Hash the whole input as one entropy block -> 256 output bits."""
        if self.use_builtin:
            return sha256_bits(bits)
        return unpack_bits(hashlib.sha256(pack_bits(bits)).digest())

    def condition_many(self, blocks: np.ndarray) -> np.ndarray:
        """Hash each row of a ``(n_blocks, block_bits)`` matrix in bulk.

        One ``packbits`` packs every block; the digests are written into
        a single contiguous byte buffer and unpacked once -- the hot
        path of :func:`repro.core.parallel.run_bank_task`, which every
        harvest round runs per bank.
        """
        matrix = ensure_block_matrix(blocks)
        n_blocks = matrix.shape[0]
        if n_blocks == 0:
            return np.zeros(0, dtype=np.uint8)
        if self.use_builtin:
            return np.concatenate([sha256_bits(row) for row in matrix])
        packed = np.packbits(np.ascontiguousarray(matrix), axis=1)
        rows = packed.tobytes()
        width = packed.shape[1]
        digest_bytes = Sha256.DIGEST_BITS // 8
        digests = bytearray(n_blocks * digest_bytes)
        for i in range(n_blocks):
            digests[i * digest_bytes:(i + 1) * digest_bytes] = \
                hashlib.sha256(rows[i * width:(i + 1) * width]).digest()
        return unpack_bits(bytes(digests))

    def condition_blocks(self, blocks: List[np.ndarray]) -> np.ndarray:
        """Hash a list of entropy blocks and concatenate the digests."""
        if not blocks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([self.condition(b) for b in blocks])

    def output_bits_for(self, raw_bits: int, raw_entropy_bits: float) -> float:
        """Digest bits producible from a raw block of known entropy.

        Each full ``entropy_per_block`` of input entropy yields one
        ``DIGEST_BITS`` output -- the paper's ``256 x SIB`` formula.
        """
        blocks = int(raw_entropy_bits // self.entropy_per_block)
        return float(blocks * Sha256.DIGEST_BITS)

    def latency_ns(self) -> float:
        return SHA256_HW_LATENCY_NS
