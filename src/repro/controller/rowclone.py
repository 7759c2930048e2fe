"""In-DRAM copy (RowClone via the ComputeDRAM command trick).

RowClone (Seshadri et al., MICRO 2013) copies a row through the sense
amplifiers; ComputeDRAM (Gao et al., MICRO 2019) showed the same effect
is reachable on off-the-shelf DDR4 by issuing ``ACT(src) -> PRE ->
ACT(dst)`` with the PRE and second ACT early enough that the bank never
closes.  The crucial timing difference from QUAC: the *first* activation
is given time to finish sensing (>= tRCD), so the SAs hold settled
full-rail data and the destination wordline is overwritten
deterministically instead of metastably.

Which destination rows open on the second ACT follows the same latch
logic as QUAC (:mod:`repro.dram.wordline`):

* source and destination rows with *equal* two LSBs -> exactly the one
  destination row opens (a 1-to-1 copy);
* *inverted* LSBs -> the whole destination segment opens and receives
  the copy -- a four-for-one bulk fill this module exploits.

QUAC-TRNG reserves two rows in the segment adjacent to each TRNG
segment (Section 5.2 / Figure 6: six reserved rows total) and
initializes the segment with **four** copy operations per iteration,
matching the paper's latency accounting:

1. bulk copy: majority-value reserved row (in-segment position 1) into
   the inverted-LSB destination (position 2), filling all four rows;
2. fix-up copy: minority-value reserved row (position 0) into segment
   row 0 (LSB-matched, single-row);
3-4. idempotent LSB-matched re-copies of the majority row into segment
   row 1, keeping the command footprint at four copies.

This supports exactly the segment patterns the TRNG uses -- those whose
last three rows share one value ("0111", "1000", and the uniform
patterns) -- which are also the paper's highest-entropy patterns.
"""

from __future__ import annotations

from typing import Tuple

from repro.dram.device import parse_data_pattern
from repro.dram.geometry import DramGeometry, ROWS_PER_SEGMENT, SegmentAddress
from repro.dram.timing import QUAC_VIOLATION_DELAY_NS, TimingParameters
from repro.errors import ConfigurationError
from repro.softmc.instructions import SoftMcProgram

#: Copy operations per segment initialization, as the paper counts them
#: ("four in-DRAM copy operations", Section 5.2).
ROWCLONE_COPIES_PER_SEGMENT = 4


def rowclone_copy_program(timing: TimingParameters, bank_group: int,
                          bank: int, src_row: int,
                          dst_row: int) -> SoftMcProgram:
    """One in-DRAM copy: ACT(src) .. PRE .. ACT(dst) .. restore .. PRE.

    Delays: the source activation gets a full ``tRCD`` to settle the
    SAs; the PRE and destination ACT are issued with the violated 2.5 ns
    gaps; the final legal PRE (issued ``tRAS`` after the destination
    ACT) restores the buffer into every open wordline, completing the
    copy.
    """
    program = SoftMcProgram(label=f"rowclone-{src_row}->{dst_row}")
    program.act(bank_group, bank, src_row, delay_ns=timing.tRCD)
    program.pre(bank_group, bank, delay_ns=QUAC_VIOLATION_DELAY_NS)
    program.act(bank_group, bank, dst_row, delay_ns=timing.tRAS)
    program.pre(bank_group, bank, delay_ns=timing.tRP)
    return program


def rowclone_copy_latency_ns(timing: TimingParameters) -> float:
    """Duration of one in-DRAM copy sequence."""
    return (timing.tRCD + QUAC_VIOLATION_DELAY_NS + timing.tRAS +
            timing.tRP)


def reserved_rows_for(segment: SegmentAddress,
                      geometry: DramGeometry) -> Tuple[int, int]:
    """Row addresses of the two reserved initialization-source rows.

    The pair lives in the segment immediately after the TRNG segment:
    the *fix-up* row (holding the pattern's Row-0 value) at in-segment
    position 0 and the *bulk* row (holding the shared value of Rows 1-3)
    at position 1.
    """
    next_segment_base = (segment.segment + 1) * ROWS_PER_SEGMENT
    if next_segment_base + 1 >= geometry.rows_per_bank:
        raise ConfigurationError(
            f"segment {segment.segment} has no room for reserved rows; "
            f"choose a segment below {geometry.segments_per_bank - 1}")
    return next_segment_base, next_segment_base + 1


def check_rowclone_pattern(data_pattern: str) -> Tuple[str, str]:
    """Validate a pattern for RowClone init; returns (row0, bulk) values.

    RowClone initialization supports patterns whose Rows 1-3 share one
    value (the TRNG's "0111"/"1000" and the uniform patterns); other
    patterns need the write-based initialization path.
    """
    parse_data_pattern(data_pattern)
    if len(set(data_pattern[1:])) != 1:
        raise ConfigurationError(
            f"RowClone initialization supports patterns with uniform "
            f"Rows 1-3 (e.g. '0111'); got {data_pattern!r}")
    return data_pattern[0], data_pattern[1]


def rowclone_segment_init_program(geometry: DramGeometry,
                                  timing: TimingParameters,
                                  segment: SegmentAddress,
                                  data_pattern: str) -> SoftMcProgram:
    """Initialize a segment with a supported pattern via four copies.

    See the module docstring for the copy plan.  The caller must have
    stored the pattern's Row-0 value in the reserved fix-up row and the
    bulk value in the reserved bulk row (done once at TRNG setup;
    :meth:`repro.core.trng.QuacTrng` owns this).
    """
    check_rowclone_pattern(data_pattern)
    fixup_row, bulk_row = reserved_rows_for(segment, geometry)
    bg, bank = segment.bank_group, segment.bank

    program = SoftMcProgram(label=f"rc-init-{data_pattern}")
    # 1. Bulk fill: bulk source is at in-segment position 1 (LSB 01);
    #    targeting position 2 (LSB 10) inverts the LSBs, so the latch
    #    union opens all four segment rows.
    program.extend(rowclone_copy_program(timing, bg, bank, bulk_row,
                                         segment.first_row() + 2))
    # 2. Fix-up: position-0 source into Row 0, LSB-matched (00 -> 00).
    program.extend(rowclone_copy_program(timing, bg, bank, fixup_row,
                                         segment.first_row()))
    # 3-4. Idempotent re-copies keep the footprint at four copies, as
    #      the paper's latency model assumes (bulk source into Row 1,
    #      LSB-matched 01 -> 01).
    for _ in range(ROWCLONE_COPIES_PER_SEGMENT - 2):
        program.extend(rowclone_copy_program(timing, bg, bank, bulk_row,
                                             segment.first_row() + 1))
    return program


def segment_init_latency_ns(timing: TimingParameters) -> float:
    """Duration of the four-copy RowClone segment initialization."""
    return ROWCLONE_COPIES_PER_SEGMENT * rowclone_copy_latency_ns(timing)
