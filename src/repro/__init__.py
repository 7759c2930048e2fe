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

from repro.core.throughput import QuacThroughputModel, TrngConfiguration
from repro.core.trng import QuacTrng
from repro.dram.device import (ALL_DATA_PATTERNS, BEST_DATA_PATTERN,
                               DramModule)
from repro.dram.geometry import DramGeometry, SegmentAddress
from repro.dram.module_factory import (TABLE3_SPECS, build_module,
                                       build_table3_population,
                                       spec_by_name)
from repro.dram.timing import speed_grade
from repro.entropy.characterization import ModuleCharacterization
from repro.errors import ReproError
from repro.nist.suite import run_all_tests

__version__ = "1.0.0"

__all__ = [
    "QuacTrng",
    "QuacThroughputModel",
    "TrngConfiguration",
    "DramModule",
    "DramGeometry",
    "SegmentAddress",
    "ALL_DATA_PATTERNS",
    "BEST_DATA_PATTERN",
    "TABLE3_SPECS",
    "build_module",
    "build_table3_population",
    "spec_by_name",
    "speed_grade",
    "ModuleCharacterization",
    "run_all_tests",
    "ReproError",
    "__version__",
]
