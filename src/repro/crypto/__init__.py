"""Post-processing (conditioning) primitives.

QUAC-TRNG and the enhanced baselines whiten their raw, biased entropy
with the SHA-256 cryptographic hash (FIPS 180-2); the paper's raw-stream
quality study additionally uses the Von Neumann corrector.  Both are
implemented here from scratch.
"""

from repro.crypto.sha256 import Sha256, sha256_digest, sha256_bits
from repro.crypto.von_neumann import von_neumann_correct
from repro.crypto.conditioner import (Sha256Conditioner,
                                      SHA256_HW_LATENCY_NS,
                                      SHA256_HW_THROUGHPUT_GBPS,
                                      SHA256_HW_AREA_MM2)

__all__ = [
    "Sha256",
    "sha256_digest",
    "sha256_bits",
    "von_neumann_correct",
    "Sha256Conditioner",
    "SHA256_HW_LATENCY_NS",
    "SHA256_HW_THROUGHPUT_GBPS",
    "SHA256_HW_AREA_MM2",
]
