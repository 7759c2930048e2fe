"""SHA-256 conditioning and its hardware-cost constants.

:class:`Sha256Conditioner` is the paper's production post-processing
path: the input is split into SHA input blocks (SIBs), each planned from
the characterization to carry 256 bits of Shannon entropy, and each
block is hashed into a 256-bit output (Section 5.2).  The entropy budget
belongs to the planner (:func:`repro.entropy.blocks.plan_entropy_blocks`);
the hash only sees the blocks.

The SHA-256 hardware-core constants the paper adopts for its latency and
area accounting (Section 9, citing Baldanzi et al.) are exported here so
the throughput model and the overhead model agree on them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bitops import is_binary, pack_bits, unpack_bits
from repro.crypto.sha256 import Sha256
from repro.errors import BitstreamError

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


class Sha256Conditioner:
    """The paper's SHA-256 entropy-block conditioning (via :mod:`hashlib`).

    :mod:`repro.crypto.sha256` is the from-scratch reference the test
    suite holds both methods against.
    """

    def condition(self, bits: np.ndarray) -> np.ndarray:
        """Hash the whole input as one entropy block -> 256 output bits."""
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
        packed = np.packbits(np.ascontiguousarray(matrix), axis=1)
        rows = packed.tobytes()
        width = packed.shape[1]
        digest_bytes = Sha256.DIGEST_BITS // 8
        digests = bytearray(n_blocks * digest_bytes)
        for i in range(n_blocks):
            digests[i * digest_bytes:(i + 1) * digest_bytes] = \
                hashlib.sha256(rows[i * width:(i + 1) * width]).digest()
        return unpack_bits(bytes(digests))
