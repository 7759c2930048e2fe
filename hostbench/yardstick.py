"""Fixed pieces of CPU work that measure how fast the host runs now.

The measurement machine shares its cores with other tenants, and its
speed changes by up to 2x, from one tenth of a second to the next and
between runs: the same request takes a different time depending on
what the neighbours do.  The client runs the yardstick between requests
and, through :class:`Sampler`, every 25 ms during them, and
divides every request's time by the mean host slowdown measured around
and inside it, so the timing metrics read as if the host ran at its
reference speed.

The yardstick uses no code of the simulator, so a change to the
simulator cannot move it.  A neighbour slows kinds of work unequally:
when compute-bound work runs 2x slower, streaming over arrays larger
than the caches runs only about 1.4x slower.  So there are two kernels.
The compute kernel mirrors the simulator's hot path: seeded Philox
generators and a threshold draw (settle sampling), packed rows hashed
with SHA-256 (conditioning), and a plain Python loop (planning and
bookkeeping).  The stream kernel mirrors the health monitor's
run-length test over a read-out.  Each workload weighs the two by a
share fitted to how a neighbour slows it (``Workload.stream_share``).
Both are timed in CPU time of the calling thread, so threads of the
same process that hold the GIL (the remote backend's socket threads) do
not count as a slow host.
"""

from __future__ import annotations

import hashlib
import signal
import time
from typing import Callable, List, Tuple

import numpy as np

#: CPU time (ns) of each kernel on an undisturbed 2-vCPU Intel Xeon
#: virtual machine: the speed every timing metric is scaled to.
REFERENCE_NS = 950_000
REFERENCE_STREAM_NS = 2_250_000

#: Wall-clock period of the samples :class:`Sampler` takes.
SAMPLE_PERIOD_S = 0.025

_BITS = 1 << 15
_ROWS = 64
_THRESHOLDS = np.random.default_rng(20210625).random(_BITS)
_READOUT = (np.random.default_rng(20210626).random((16, 1 << 14))
            < 0.5).astype(np.uint8)
_POSITIONS = np.arange(_READOUT.shape[1], dtype=np.int32)


def compute_ns(rounds: int = 3) -> int:
    """Run the compute kernel; return the thread's CPU time (ns)."""
    began = time.thread_time_ns()
    for index in range(rounds):
        generator = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((2021, index))))
        bits = (generator.random(_BITS) < _THRESHOLDS).astype(np.uint8)
        packed = np.packbits(bits.reshape(_ROWS, -1), axis=1)
        rows = packed.tobytes()
        width = packed.shape[1]
        digests = bytearray(_ROWS * 32)
        for row in range(_ROWS):
            digests[row * 32:(row + 1) * 32] = hashlib.sha256(
                rows[row * width:(row + 1) * width]).digest()
        total = 0
        for step in range(300):
            total += (step * 2654435761) & 0xFFFF
    return time.thread_time_ns() - began


def stream_ns() -> int:
    """Run the stream kernel; return the thread's CPU time (ns)."""
    began = time.thread_time_ns()
    changed = np.zeros(_READOUT.shape, dtype=bool)
    changed[:, 1:] = _READOUT[:, 1:] != _READOUT[:, :-1]
    starts = np.maximum.accumulate(
        np.where(changed, _POSITIONS, np.int32(0)), axis=1)
    (_POSITIONS - starts).max(axis=1)
    _READOUT.sum(axis=1)
    return time.thread_time_ns() - began


def yardstick(stream_share: float = 0.0) -> float:
    """Host slowdown now, against the reference, for work that a
    neighbour slows like a ``stream_share`` to ``1 - stream_share`` mix
    of the stream and compute kernels (a kernel of weight 0 is not
    run)."""
    slowdown = 0.0
    if stream_share < 1.0:
        slowdown += (1.0 - stream_share) * compute_ns() / REFERENCE_NS
    if stream_share > 0.0:
        slowdown += stream_share * stream_ns() / REFERENCE_STREAM_NS
    return slowdown


class Sampler:
    """Runs the yardstick every :data:`SAMPLE_PERIOD_S` of wall time
    while :attr:`active`, from a ``SIGALRM`` handler in the main thread.

    The host's speed changes within a single bulk request, so samples
    taken between requests alone mis-scale some of them.  Each sample
    is recorded with the request in progress (:attr:`request`), and
    the interval it took, in ``timer`` units, so the client can take it
    out of that request's latency.
    """

    def __init__(self, stream_share: float,
                 timer: Callable[[], int]) -> None:
        self.stream_share = stream_share
        self.timer = timer
        self.active = False
        self.request = 0
        #: ``(request index, host slowdown)`` of every sample.
        self.samples: List[Tuple[int, float]] = []
        #: ``(start, end)`` of every sample, in ``timer`` units.
        self.pauses: List[Tuple[int, int]] = []

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        began = self.timer()
        self.samples.append((self.request, yardstick(self.stream_share)))
        self.pauses.append((began, self.timer()))

    def paused_ns(self, began: int, ended: int) -> int:
        """Time samples took between ``began`` and ``ended``; forgets
        every pause up to ``ended``."""
        inside = sum(end - start for start, end in self.pauses
                     if began <= start and end <= ended)
        self.pauses = [pause for pause in self.pauses if pause[0] > ended]
        return inside

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
