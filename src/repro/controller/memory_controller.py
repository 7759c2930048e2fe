"""Memory-controller facade: module + scheduling + TRNG buffering.

Ties one DRAM channel's pieces together the way Section 9 describes the
system integration: the controller owns the module, schedules command
sequences (legal ones through the constraint solver, QUAC/RowClone
sequences at their forced timings), and opportunistically refills a
random-number FIFO from a TRNG source when asked.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.controller.buffer import RandomNumberBuffer
from repro.dram.device import DramModule
from repro.softmc.host import ExecutionResult, SoftMcHost
from repro.softmc.instructions import SoftMcProgram

#: A TRNG source: called with no arguments, returns (bits, latency_ns).
TrngSource = Callable[[], tuple]


class MemoryController:
    """One DDR4 channel's controller with an attached TRNG buffer."""

    def __init__(self, module: DramModule,
                 buffer_capacity_bits: int = 8 * 4096) -> None:
        self.module = module
        self.host = SoftMcHost(module)
        self.buffer = RandomNumberBuffer(buffer_capacity_bits)
        #: Total nanoseconds of channel time spent on TRNG work.
        self.trng_time_ns = 0.0

    def execute(self, program: SoftMcProgram) -> ExecutionResult:
        """Execute a program functionally against the module."""
        return self.host.execute(program)

    def refill(self, source: TrngSource,
               budget_ns: Optional[float] = None) -> int:
        """Run TRNG iterations until the buffer fills or a budget expires.

        Parameters
        ----------
        source:
            Callable producing ``(bits, latency_ns)`` per iteration --
            typically ``trng.random_bits(trng.bits_per_iteration)`` and
            ``trng.iteration_latency_ns`` of a
            :class:`~repro.core.trng.QuacTrng`.
        budget_ns:
            Channel-time budget (e.g. a measured idle window); None
            means "until full".

        Returns the number of bits deposited.
        """
        deposited = 0
        spent = 0.0
        while self.buffer.free_space > 0:
            bits, latency_ns = source()
            if budget_ns is not None and spent + latency_ns > budget_ns:
                break
            spent += latency_ns
            deposited += self.buffer.fill(np.asarray(bits, dtype=np.uint8))
            if len(bits) == 0:
                break
        self.trng_time_ns += spent
        return deposited

    def random_bits(self, n_bits: int, source: TrngSource) -> np.ndarray:
        """Serve an application request, generating on demand if needed."""
        while self.buffer.occupancy < n_bits:
            bits, latency_ns = source()
            self.trng_time_ns += latency_ns
            if len(bits) == 0:
                break
            self.buffer.fill(np.asarray(bits, dtype=np.uint8))
        return self.buffer.request(n_bits)
