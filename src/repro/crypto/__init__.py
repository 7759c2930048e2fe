"""Post-processing (conditioning) primitives.

QUAC-TRNG and the enhanced baselines whiten their raw, biased entropy
with the SHA-256 cryptographic hash (FIPS 180-2); the paper's raw-stream
quality study additionally uses the Von Neumann corrector.  Both are
implemented here from scratch.
"""

from repro import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562).
_EXPORTS = {
    "Sha256": "repro.crypto.sha256",
    "sha256_digest": "repro.crypto.sha256",
    "sha256_bits": "repro.crypto.sha256",
    "von_neumann_correct": "repro.crypto.von_neumann",
    "Sha256Conditioner": "repro.crypto.conditioner",
    "SHA256_HW_LATENCY_NS": "repro.crypto.conditioner",
    "SHA256_HW_THROUGHPUT_GBPS": "repro.crypto.conditioner",
    "SHA256_HW_AREA_MM2": "repro.crypto.conditioner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
