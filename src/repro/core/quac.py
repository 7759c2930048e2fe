"""Executing QUAC operations against the simulated module.

Two execution paths, trading fidelity for speed:

* :meth:`QuacExecutor.run_via_softmc` replays the paper's Algorithm 1
  end to end -- write-based initialization, violated ACT-PRE-ACT,
  full read-out -- through the SoftMC host.  Every protocol rule of the
  device model is exercised.
* :meth:`QuacExecutor.run_direct` computes the same distribution
  analytically (per-bitline settling probabilities from the physics
  model) and samples it.  Used for bulk bitstream generation where the
  command-by-command replay would dominate runtime; the test suite
  verifies the two paths agree statistically.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.device import DramModule, cells_for_pattern
from repro.dram.geometry import SegmentAddress
from repro.dram.sense_amplifier import sample_iterations
from repro.rng import STREAM_EPOCH, derive_key
# Not called here; kept importable so a tracer that rebinds the draw
# entry points by module attribute (``hostbench/layers.py``) finds them.
from repro.dram.sense_amplifier import sample_settles  # noqa: F401
from repro.rng import generator_from_key  # noqa: F401
from repro.softmc.host import SoftMcHost
from repro.softmc.program import quac_randomness_program


class QuacExecutor:
    """Runs QUAC operations on one module."""

    def __init__(self, module: DramModule,
                 host: Optional[SoftMcHost] = None) -> None:
        self.module = module
        self.host = host or SoftMcHost(module)
        # Per-segment iteration cursors, keyed by
        # ``(bank_group, bank, segment)``.
        self._cursors: Dict[Tuple[int, int, int], int] = {}

    def run_via_softmc(self, segment: SegmentAddress, pattern: str,
                       variant: int = 0) -> np.ndarray:
        """One Algorithm-1 execution; returns the segment read-out bits."""
        program = quac_randomness_program(
            self.module.geometry, self.module.timing, segment, pattern,
            variant=variant)
        return self.host.execute(program).read_data

    def cursor(self, segment: SegmentAddress) -> int:
        """Index of the segment's next thermal-noise iteration to plan."""
        return self._cursors.get(
            (segment.bank_group, segment.bank, segment.segment), 0)

    def rewind(self, segment: SegmentAddress, iteration: int) -> None:
        """Move the segment's cursor back to ``iteration`` (never forward)."""
        coords = (segment.bank_group, segment.bank, segment.segment)
        self._cursors[coords] = min(self.cursor(segment), iteration)

    def plan_direct(self, segment: SegmentAddress, pattern: str,
                    first_position: int = 0, iterations: int = 1
                    ) -> Tuple[Tuple[int, ...], np.ndarray, int]:
        """Plan ``iterations`` direct draws: ``(key, probabilities,
        first iteration)``.

        Claims the next ``iterations`` indices of the segment's cursor
        exactly as :meth:`run_direct` would, but *performs no
        sampling*: the segment's thermal key, the probability vector
        and the first claimed index are everything a worker (possibly
        in another process) needs to draw iterations ``[first,
        first + iterations)`` bit-identically via
        :func:`~repro.dram.sense_amplifier.sample_iterations`.
        Iteration ``k`` of a segment depends only on (module seed,
        segment, ``k``), so how the iterations are split into draws
        never changes them.
        """
        p = self.module.segment_probabilities(segment, pattern,
                                              first_position)
        coords = (segment.bank_group, segment.bank, segment.segment)
        first = self._cursors.get(coords, 0)
        self._cursors[coords] = first + iterations
        key = derive_key(self.module.seed, "quac-thermal", STREAM_EPOCH,
                         *coords)
        return key, p, first

    def run_direct(self, segment: SegmentAddress, pattern: str,
                   first_position: int = 0,
                   iterations: int = 1) -> np.ndarray:
        """Sample QUAC outcomes from the analytic settling distribution.

        Returns ``(iterations, row_bits)`` (squeezed when
        ``iterations == 1``).  Each call consumes the segment's next
        ``iterations`` thermal-noise iterations: outcomes differ across
        calls but remain reproducible for a fixed module seed, and
        ``n`` calls of one iteration equal one call of ``n``.
        """
        key, p, first = self.plan_direct(segment, pattern, first_position,
                                         iterations)
        return sample_iterations(p, key, first, iterations)

    def probabilities(self, segment: SegmentAddress, pattern: str,
                      first_position: int = 0) -> np.ndarray:
        """Per-bitline settling probabilities (the analytic ground truth)."""
        return self.module.segment_probabilities(segment, pattern,
                                                 first_position)

    def verify_four_row_activation(self, segment: SegmentAddress,
                                   pattern: str = "0101") -> bool:
        """The paper's Section 4 verification experiment.

        Initialize a segment, perform QUAC, *write* a new value through
        the open sense amplifiers, precharge, then read each row legally:
        all four rows must hold the written value.
        """
        geometry = self.module.geometry
        cells = cells_for_pattern(pattern, geometry.row_bits)
        for offset in range(4):
            self.module.write_row(segment.bank_group, segment.bank,
                                  segment.first_row() + offset,
                                  cells[offset])
        from repro.softmc.instructions import SoftMcProgram
        from repro.dram.timing import QUAC_VIOLATION_DELAY_NS

        timing = self.module.timing
        marker = np.ones(512, dtype=np.uint8)
        program = SoftMcProgram(label="verify-quac")
        program.act(segment.bank_group, segment.bank, segment.first_row(),
                    delay_ns=QUAC_VIOLATION_DELAY_NS)
        program.pre(segment.bank_group, segment.bank,
                    delay_ns=QUAC_VIOLATION_DELAY_NS)
        program.act(segment.bank_group, segment.bank, segment.last_row(),
                    delay_ns=timing.tRCD)
        for column in range(geometry.cache_blocks_per_row):
            program.wr(segment.bank_group, segment.bank, column, marker,
                       delay_ns=timing.tCCD_L)
        program.wait(timing.tRAS)
        program.pre(segment.bank_group, segment.bank, delay_ns=timing.tRP)
        self.host.execute(program)

        for offset in range(4):
            stored = self.module.read_stored_row(
                segment.bank_group, segment.bank,
                segment.first_row() + offset)
            if not bool((stored == 1).all()):
                return False
        return True
