"""Builders for the paper's SoftMC programs.

The central one is Algorithm 1 -- "Testing for QUAC's randomness":

    1  write data_pattern into all rows in DRAM_segment
    2  activate(DRAM_segment : Row_0)
    3  wait(2.5 ns)            # violate tRAS
    4  precharge(DRAM_bank)
    5  wait(2.5 ns)            # violate tRP
    6  activate(DRAM_segment : Row_3)
    7  wait(tRCD)
    8  read every sense amplifier in the segment

expressed as a :class:`~repro.softmc.instructions.SoftMcProgram` against
a given geometry/timing, with the initialization (step 1) and read-out
(step 8) factored into reusable sub-programs.
"""

from __future__ import annotations

import numpy as np

from repro.dram.device import parse_data_pattern
from repro.dram.geometry import CACHE_BLOCK_BITS, DramGeometry, SegmentAddress
from repro.dram.timing import QUAC_VIOLATION_DELAY_NS, TimingParameters
from repro.dram.wordline import quac_pair_for_segment
from repro.softmc.instructions import SoftMcProgram


def row_initialization_program(geometry: DramGeometry,
                               timing: TimingParameters,
                               segment: SegmentAddress,
                               data_pattern: str) -> SoftMcProgram:
    """Step 1 of Algorithm 1: write the pattern into all four rows.

    Uses the JEDEC-legal protocol path: per row, ACT, a burst of WRs
    covering every cache block, then PRE -- all with standard timings.
    """
    bits = parse_data_pattern(data_pattern)
    program = SoftMcProgram(label=f"init-{data_pattern}")
    for position, bit in enumerate(bits):
        row = segment.first_row() + position
        block = np.full(CACHE_BLOCK_BITS, bit, dtype=np.uint8)
        program.act(segment.bank_group, segment.bank, row,
                    delay_ns=timing.tRCD)
        for column in range(geometry.cache_blocks_per_row):
            program.wr(segment.bank_group, segment.bank, column, block,
                       delay_ns=timing.tCCD_L)
        # Write recovery before closing the row.
        program.wait(timing.tWR)
        program.pre(segment.bank_group, segment.bank, delay_ns=timing.tRP)
    return program


def quac_core_program(segment: SegmentAddress,
                      timing: TimingParameters,
                      violation_delay_ns: float = QUAC_VIOLATION_DELAY_NS,
                      variant: int = 0) -> SoftMcProgram:
    """Steps 2-7 of Algorithm 1: the violated ACT-PRE-ACT plus tRCD wait.

    ``variant`` selects which inverted-LSB row pair carries the two ACTs
    (0: rows 0 and 3; 1: rows 1 and 2).
    """
    first_row, second_row = quac_pair_for_segment(segment.segment, variant)
    program = SoftMcProgram(label="quac-core")
    program.act(segment.bank_group, segment.bank, first_row,
                delay_ns=violation_delay_ns)      # violate tRAS
    program.pre(segment.bank_group, segment.bank,
                delay_ns=violation_delay_ns)      # violate tRP
    program.act(segment.bank_group, segment.bank, second_row,
                delay_ns=timing.tRCD)             # legal wait before reads
    return program


def segment_readout_program(geometry: DramGeometry,
                            timing: TimingParameters,
                            segment: SegmentAddress) -> SoftMcProgram:
    """Step 8 of Algorithm 1: read every sense amplifier in the segment."""
    program = SoftMcProgram(label="readout")
    for column in range(geometry.cache_blocks_per_row):
        program.rd(segment.bank_group, segment.bank, column,
                   delay_ns=timing.tCCD_L)
    return program


def quac_randomness_program(geometry: DramGeometry,
                            timing: TimingParameters,
                            segment: SegmentAddress,
                            data_pattern: str,
                            violation_delay_ns: float =
                            QUAC_VIOLATION_DELAY_NS,
                            variant: int = 0) -> SoftMcProgram:
    """Algorithm 1, complete: init + violated ACT-PRE-ACT + read-out.

    One execution returns one bit per sense amplifier of the segment; the
    paper repeats it 1000 times per segment to estimate bitline entropy.
    """
    program = SoftMcProgram(label=f"algorithm1-{data_pattern}")
    program.extend(row_initialization_program(geometry, timing, segment,
                                              data_pattern))
    program.extend(quac_core_program(segment, timing, violation_delay_ns,
                                     variant))
    program.extend(segment_readout_program(geometry, timing, segment))
    # Close the bank legally so the next iteration starts clean: the QUAC
    # episode has been open far longer than tRAS by the end of read-out.
    program.pre(segment.bank_group, segment.bank, delay_ns=timing.tRP)
    return program
