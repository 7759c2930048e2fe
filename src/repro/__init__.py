"""QUAC-TRNG reproduction: high-throughput true random number generation
using quadruple row activation in (simulated) commodity DRAM chips.

Reproduces Olgun et al., ISCA 2021 (arXiv:2105.08955).  The paper's
entropy source is a physical phenomenon on real DDR4 silicon; this
library replaces the silicon with a calibrated electrical model (see
DESIGN.md) and builds everything above it from scratch: the SoftMC-style
command host, the DDR4 scheduler, RowClone initialization, SHA-256
conditioning, the full NIST SP 800-22 suite, the baseline TRNGs, and the
drivers that regenerate every table and figure of the evaluation.

Quick use::

    from repro import QuacTrng, build_module, spec_by_name
    module = build_module(spec_by_name("M13"))
    trng = QuacTrng(module)
    key = trng.random_bytes(32)

Package map
-----------
``repro.dram``        simulated DDR4 device (geometry, timing, decoder,
                      sense amplifiers, variation, thermal response)
``repro.softmc``      programmable command host (Algorithm 1)
``repro.controller``  DDR4 scheduler, RowClone copies, output buffer
``repro.crypto``      SHA-256 SIB conditioner (hashlib; from-scratch
                      FIPS 180-2 reference) and the Von Neumann corrector
``repro.nist``        NIST SP 800-22, all fifteen tests
``repro.entropy``     Shannon maps, characterization, SIB planning
``repro.core``        QUAC execution, the TRNG, throughput, overheads
``repro.baselines``   D-RaNGe, Talukder+, D-PUF, Keller+, DRNG, Pyo+
``repro.system``      SPEC2006-like traces + idle-window integration
``repro.experiments`` one driver per paper table/figure
"""

import importlib
import sys

__version__ = "1.0.0"

#: Each public name and the module that defines it.  Names import on
#: first access (PEP 562), so importing one module -- a remote worker's
#: :mod:`repro.core.remote.worker`, say -- loads only what that module
#: needs, not NIST, SoftMC or scipy.
_EXPORTS = {
    "QuacTrng": "repro.core.trng",
    "QuacThroughputModel": "repro.core.throughput",
    "TrngConfiguration": "repro.core.throughput",
    "DramModule": "repro.dram.device",
    "DramGeometry": "repro.dram.geometry",
    "SegmentAddress": "repro.dram.geometry",
    "ALL_DATA_PATTERNS": "repro.dram.device",
    "BEST_DATA_PATTERN": "repro.dram.device",
    "TABLE3_SPECS": "repro.dram.module_factory",
    "build_module": "repro.dram.module_factory",
    "build_table3_population": "repro.dram.module_factory",
    "spec_by_name": "repro.dram.module_factory",
    "speed_grade": "repro.dram.timing",
    "ModuleCharacterization": "repro.entropy.characterization",
    "run_all_tests": "repro.nist.suite",
    "ReproError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def lazy_exports(package: str, exports: dict):
    """A package's PEP 562 ``__getattr__`` and ``__dir__``.

    ``exports`` maps each public name to the module defining it; a
    name's module is imported on first access and the value cached in
    the package, so later lookups are plain attribute reads.
    """
    def __getattr__(name):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
