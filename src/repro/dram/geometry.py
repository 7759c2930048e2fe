"""DRAM geometry and address arithmetic.

The paper works at *module* granularity: a DDR4 module with eight x8 chips
presents a 64-bit data bus, and one module-level DRAM row spans 8 KiB =
65,536 bitlines (the "64K bitlines in each DRAM segment" of Section 6.1.4).
A cache block is 512 bits (64 bytes), so a row holds 128 cache blocks.

A *segment* is the paper's unit of quadruple activation: four consecutive
rows whose addresses differ only in their two least-significant bits
(Section 4).  A bank with 32K rows therefore holds 8K segments.

The full-scale geometry is expensive to simulate exhaustively, so the
class is parametric; :meth:`DramGeometry.small` provides a reduced
configuration used across the test suite that preserves every structural
relationship (4 rows/segment, 512-bit cache blocks, 4 bank groups).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError, ConfigurationError

#: Bits in one cache block (64 bytes) -- fixed by the DDR4 burst definition.
CACHE_BLOCK_BITS = 512

#: Rows per segment -- fixed by the hierarchical-wordline design (Section 4.1).
ROWS_PER_SEGMENT = 4


@dataclass(frozen=True)
class SegmentAddress:
    """Fully-qualified address of a DRAM segment within a module."""

    bank_group: int
    bank: int
    segment: int

    def first_row(self) -> int:
        """Row address of the segment's first row (``Addr[1:0] == 00``)."""
        return self.segment * ROWS_PER_SEGMENT

    def last_row(self) -> int:
        """Row address of the segment's fourth row (``Addr[1:0] == 11``)."""
        return self.first_row() + ROWS_PER_SEGMENT - 1

    def rows(self) -> range:
        """All four row addresses covered by this segment, ascending."""
        return range(self.first_row(), self.first_row() + ROWS_PER_SEGMENT)


@dataclass(frozen=True)
class DramGeometry:
    """Dimensions of a simulated DDR4 module.

    Attributes
    ----------
    bank_groups:
        Number of bank groups (4 for DDR4 x8 devices).
    banks_per_group:
        Banks inside each group (4 for DDR4 x8, giving 16 banks total).
    rows_per_bank:
        Module-level rows per bank; must be a multiple of 4.
    row_bits:
        Bitlines spanned by one module-level row (65,536 full scale).
    subarray_rows:
        Rows per subarray, used by spatial-variation modelling (a typical
        512-row subarray is the default).
    """

    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 32768
    row_bits: int = 65536
    subarray_rows: int = 512

    def __post_init__(self) -> None:
        if self.bank_groups < 1 or self.banks_per_group < 1:
            raise ConfigurationError("bank counts must be positive")
        if self.rows_per_bank % ROWS_PER_SEGMENT != 0:
            raise ConfigurationError(
                f"rows_per_bank ({self.rows_per_bank}) must be a multiple of "
                f"{ROWS_PER_SEGMENT} so that segments tile the bank exactly")
        if self.row_bits % CACHE_BLOCK_BITS != 0:
            raise ConfigurationError(
                f"row_bits ({self.row_bits}) must be a multiple of the "
                f"cache-block size ({CACHE_BLOCK_BITS} bits)")
        if self.subarray_rows % ROWS_PER_SEGMENT != 0:
            raise ConfigurationError("subarray_rows must be a multiple of 4")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------

    @property
    def banks(self) -> int:
        """Total banks in the module."""
        return self.bank_groups * self.banks_per_group

    @property
    def segments_per_bank(self) -> int:
        """Segments (groups of four rows) per bank -- 8K at full scale."""
        return self.rows_per_bank // ROWS_PER_SEGMENT

    @property
    def cache_blocks_per_row(self) -> int:
        """Cache blocks per module-level row -- 128 at full scale."""
        return self.row_bits // CACHE_BLOCK_BITS

    @property
    def row_bytes(self) -> int:
        """Bytes per module-level row -- 8 KiB at full scale."""
        return self.row_bits // 8

    # ------------------------------------------------------------------
    # Address checks and conversions
    # ------------------------------------------------------------------

    def check_bank(self, bank_group: int, bank: int) -> None:
        """Raise :class:`AddressError` unless (bank_group, bank) is valid."""
        if not 0 <= bank_group < self.bank_groups:
            raise AddressError(
                f"bank group {bank_group} out of range [0, {self.bank_groups})")
        if not 0 <= bank < self.banks_per_group:
            raise AddressError(
                f"bank {bank} out of range [0, {self.banks_per_group})")

    def check_row(self, row: int) -> None:
        """Raise :class:`AddressError` unless ``row`` is a valid row address."""
        if not 0 <= row < self.rows_per_bank:
            raise AddressError(
                f"row {row} out of range [0, {self.rows_per_bank})")

    def check_segment(self, segment: int) -> None:
        """Raise :class:`AddressError` unless ``segment`` is valid."""
        if not 0 <= segment < self.segments_per_bank:
            raise AddressError(
                f"segment {segment} out of range [0, {self.segments_per_bank})")

    def check_cache_block(self, cache_block: int) -> None:
        """Raise :class:`AddressError` unless ``cache_block`` indexes a row."""
        if not 0 <= cache_block < self.cache_blocks_per_row:
            raise AddressError(
                f"cache block {cache_block} out of range "
                f"[0, {self.cache_blocks_per_row})")

    def segment_of_row(self, row: int) -> int:
        """Segment index containing ``row``."""
        self.check_row(row)
        return row // ROWS_PER_SEGMENT

    def row_in_segment(self, row: int) -> int:
        """Position (0..3) of ``row`` inside its segment -- ``Addr[1:0]``."""
        self.check_row(row)
        return row % ROWS_PER_SEGMENT

    def segment_address(self, bank_group: int, bank: int,
                        segment: int) -> SegmentAddress:
        """Build a validated :class:`SegmentAddress`."""
        self.check_bank(bank_group, bank)
        self.check_segment(segment)
        return SegmentAddress(bank_group=bank_group, bank=bank, segment=segment)

    def cache_block_slice(self, cache_block: int) -> slice:
        """Bitline slice of ``cache_block`` within a row buffer array."""
        self.check_cache_block(cache_block)
        start = cache_block * CACHE_BLOCK_BITS
        return slice(start, start + CACHE_BLOCK_BITS)

    def distance_to_sense_amps(self, row: int) -> float:
        """Normalized distance (0..1) of a row from its subarray's SAs.

        Used by the spatial-variation model: the paper hypothesizes a
        segment's entropy relates to its distance from the sense amplifiers
        (Section 6.1.4).
        """
        self.check_row(row)
        offset = row % self.subarray_rows
        return offset / max(self.subarray_rows - 1, 1)

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def full_scale(cls) -> "DramGeometry":
        """The geometry of the paper's 4 GB-class x8 DDR4 modules."""
        return cls()

    @classmethod
    def small(cls, segments_per_bank: int = 64,
              cache_blocks_per_row: int = 8) -> "DramGeometry":
        """A reduced geometry for fast tests.

        Keeps every structural invariant (4 rows/segment, 512-bit cache
        blocks, 4x4 banks) while shrinking the row and bank dimensions.
        """
        return cls(
            rows_per_bank=segments_per_bank * ROWS_PER_SEGMENT,
            row_bits=cache_blocks_per_row * CACHE_BLOCK_BITS,
            subarray_rows=min(512, segments_per_bank * ROWS_PER_SEGMENT),
        )
