"""Simulated commodity DDR4 DRAM substrate.

This subpackage replaces the 136 real SK Hynix DDR4 chips used by the
paper with an executable model of the physics the paper relies on:

* :mod:`repro.dram.geometry` -- address arithmetic for channels, bank
  groups, banks, subarrays, segments, rows, cache blocks and bitlines.
* :mod:`repro.dram.timing` -- JEDEC DDR4 timing parameters for real and
  projected speed grades.
* :mod:`repro.dram.commands` -- command records and traces.
* :mod:`repro.dram.wordline` -- the hypothetical latch-based row decoder
  of the paper's Section 4.2, which determines *which* rows a violated
  ACT-PRE-ACT sequence drives.
* :mod:`repro.dram.sense_amplifier` -- bitline-deviation -> settling
  probability model (process-variation offset + thermal noise).
* :mod:`repro.dram.variation` -- spatial variation fields calibrated to
  the paper's Figures 8, 9 and 10.
* :mod:`repro.dram.bank` / :mod:`repro.dram.device` -- stateful banks,
  chips and modules tying the above together.
* :mod:`repro.dram.module_factory` -- the 17-module population of Table 3.
* :mod:`repro.dram.failures` -- competing failure mechanisms used by the
  baseline TRNGs (tRCD, tRP, retention, startup).
* :mod:`repro.dram.temperature` -- trend-1 / trend-2 temperature response.
"""

from repro import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562): the thermal kernel in
#: :mod:`repro.dram.sense_amplifier` loads without the device model.
_EXPORTS = {
    "DramGeometry": "repro.dram.geometry",
    "SegmentAddress": "repro.dram.geometry",
    "CACHE_BLOCK_BITS": "repro.dram.geometry",
    "TimingParameters": "repro.dram.timing",
    "speed_grade": "repro.dram.timing",
    "SPEED_GRADES": "repro.dram.timing",
    "Command": "repro.dram.commands",
    "CommandKind": "repro.dram.commands",
    "CommandTrace": "repro.dram.commands",
    "DramModule": "repro.dram.device",
    "DramBankState": "repro.dram.device",
    "build_table3_population": "repro.dram.module_factory",
    "build_module": "repro.dram.module_factory",
    "ModuleSpec": "repro.dram.module_factory",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
