"""Online health tests for the deployed TRNG (SP 800-90B Section 4).

A production entropy source must detect, *at runtime*, the failure
modes a DRAM-based source is exposed to: a segment drifting
deterministic (temperature excursion beyond the characterized ranges,
ageing, row repair remapping the TRNG segment), or the conditioning
path being bypassed.  SP 800-90B mandates two continuous tests on the
raw source output, both implemented here:

* **Repetition count test (RCT)**: fires when one value repeats long
  enough that a healthy source would essentially never produce it.
* **Adaptive proportion test (APT)**: fires when one value dominates a
  window beyond what the claimed entropy allows.

:class:`HealthMonitor` wires both in front of a bit source and keeps
failure statistics; :class:`MonitoredTrng` wraps a
:class:`~repro.core.trng.QuacTrng` so every iteration's *raw* segment
read-out is health-checked before conditioning, mirroring where the
tests sit in a real pipeline.  Monitoring is batch-friendly:
:meth:`HealthMonitor.check_many` vectorizes both tests over a whole
read-out matrix while accounting rows exactly as a loop of
:meth:`HealthMonitor.check` calls would, which is what lets
:class:`MonitoredTrng` harvest through the parallel batched engine
instead of one iteration at a time.

Both tests run on *packed* rows (8 raw bits per byte), the form worker
results already travel in: the APT is a popcount over each window's
bytes, and the RCT screens each row's constant (``0x00``/``0xFF``)
bytes, unpacking only the rare rows that could hold a cutoff-long run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.bitops import is_binary
from repro.core.harvest import HarvestPlanner
from repro.core.parallel import packed_rows
from repro.core.trng import QuacTrng
from repro.errors import (BitstreamError, ConfigurationError,
                          HealthTestFailure)


def repetition_count_cutoff(min_entropy_per_bit: float,
                            false_positive_exponent: int = 20) -> int:
    """SP 800-90B RCT cutoff: C = 1 + ceil(alpha_exp / H).

    With ``false_positive_exponent`` = 20 (alpha = 2^-20), a healthy
    source trips the test about once per million samples of bad luck.
    """
    if min_entropy_per_bit <= 0:
        raise ConfigurationError("claimed min-entropy must be positive")
    return 1 + int(np.ceil(false_positive_exponent / min_entropy_per_bit))


def adaptive_proportion_cutoff(min_entropy_per_bit: float,
                               window: int = 512,
                               false_positive_exponent: int = 20) -> int:
    """SP 800-90B APT cutoff via the binomial tail.

    The max count of the most likely value in a window of ``window``
    samples such that P(count >= cutoff) <= 2^-alpha_exp for a source
    with the claimed entropy.  Computed by scanning the binomial
    survival function (scipy-free: the window is small).
    """
    if not 0 < min_entropy_per_bit <= 1:
        raise ConfigurationError(
            "per-bit min-entropy must be in (0, 1] for the binary APT")
    p = 2.0 ** -min_entropy_per_bit
    # log-space binomial pmf accumulation from the upper tail.
    log_p, log_q = np.log(p), np.log(1 - p) if p < 1 else -np.inf
    from math import lgamma

    def log_pmf(k: int) -> float:
        return (lgamma(window + 1) - lgamma(k + 1) - lgamma(window - k + 1)
                + k * log_p + (window - k) * log_q)

    target = -false_positive_exponent * np.log(2.0)
    tail = -np.inf
    for k in range(window, -1, -1):
        tail = np.logaddexp(tail, log_pmf(k))
        if tail > target:
            return min(k + 1, window)
    return window


@dataclass
class HealthMonitor:
    """Continuous RCT + APT over a raw bit source.

    Parameters
    ----------
    claimed_min_entropy:
        Per-bit min-entropy the source is credited with.  QUAC segments
        are credited conservatively: most bitlines are deterministic, so
        per-raw-bit entropy is low -- the default 0.02 matches the
        paper's ~1800 entropy bits per 64K-bit segment.  Must be in
        (0, 1]: a binary source cannot exceed 1 bit per bit.
    window:
        APT window size in bits, a positive multiple of 8 so every
        window is whole bytes (SP 800-90B uses 512 or 1024 for binary
        sources).
    consecutive_failures_to_alarm:
        Unhealthy blocks in a row before :class:`HealthTestFailure`
        raises (one failure may be bad luck; a streak is a broken
        source); at least 1.

    Invalid values raise :class:`~repro.errors.ConfigurationError`.

    Example
    -------
    >>> import numpy as np
    >>> monitor = HealthMonitor(claimed_min_entropy=0.5)
    >>> monitor.rct_cutoff                 # 1 + ceil(20 / 0.5)
    41
    >>> bool(monitor.check(np.resize([0, 1], 1024)))   # healthy block
    True
    >>> monitor.samples_checked
    1024
    >>> bool(monitor.check(np.zeros(1024, dtype=np.uint8)))  # dead block
    False
    """

    claimed_min_entropy: float = 0.02
    window: int = 512
    consecutive_failures_to_alarm: int = 2

    #: Lifetime statistics.
    samples_checked: int = 0
    rct_failures: int = 0
    apt_failures: int = 0
    _consecutive: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.claimed_min_entropy <= 1:
            raise ConfigurationError(
                "claimed_min_entropy must be in (0, 1] bits per raw bit, "
                f"got {self.claimed_min_entropy}")
        if (not isinstance(self.window, (int, np.integer))
                or self.window <= 0 or self.window % 8):
            raise ConfigurationError(
                f"APT window must be a positive multiple of 8 bits, "
                f"got {self.window}")
        if self.consecutive_failures_to_alarm < 1:
            raise ConfigurationError(
                "consecutive_failures_to_alarm must be at least 1, got "
                f"{self.consecutive_failures_to_alarm}")
        self.rct_cutoff = repetition_count_cutoff(self.claimed_min_entropy)
        self.apt_cutoff = adaptive_proportion_cutoff(
            self.claimed_min_entropy, self.window)

    # ------------------------------------------------------------------

    def check(self, raw_bits: np.ndarray) -> bool:
        """Run both tests over a raw block; returns True when healthy.

        Raises :class:`HealthTestFailure` after
        ``consecutive_failures_to_alarm`` consecutive unhealthy blocks
        (one failure may be bad luck; a streak is a broken source).
        """
        arr = np.asarray(raw_bits)
        if arr.ndim != 1:
            raise BitstreamError(
                f"raw block must be 1-D, got shape {arr.shape}")
        return bool(self.check_many(arr)[0])

    def check_many(self, rows: np.ndarray) -> np.ndarray:
        """Run both tests over every row of a raw block matrix.

        The batched-harvest counterpart of :meth:`check`: the matrix is
        validated, packed once (``np.packbits`` along the rows), and
        both tests run vectorized over the packed rows (see
        :meth:`_check_rows`).  The rows are then *accounted* in order
        exactly as a loop of :meth:`check` calls would -- same failure
        counters, same consecutive-failure streak, and the same
        :class:`HealthTestFailure` raised at the same row (rows past
        the alarm stay uncounted, as they would be unreached).

        Returns the per-row health verdicts as a boolean array when no
        alarm fires.
        """
        matrix = np.atleast_2d(np.asarray(rows))
        if matrix.ndim != 2:
            raise BitstreamError(
                f"raw block matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size and not is_binary(matrix):
            raise BitstreamError("bitstream values must be 0 or 1")
        return self._check_rows(
            np.packbits(matrix.astype(np.uint8, copy=False), axis=1),
            matrix.shape[1])

    def _check_rows(self, packed: np.ndarray, block_bits: int) -> np.ndarray:
        """:meth:`check_many` on packed rows.

        ``packed`` is an ``(n, ceil(block_bits / 8))`` ``uint8`` matrix
        whose rows hold ``block_bits`` raw bits each, MSB first, padded
        with zeros to a whole byte.  A round where every row passes
        both tests is accounted in one step; otherwise the rows are
        accounted one at a time.
        """
        n_blocks = packed.shape[0]
        rct_ok = self._repetition_count_ok_packed(packed, block_bits)
        apt_ok = self._adaptive_proportion_ok_rows(packed, block_bits)
        healthy = rct_ok & apt_ok
        if n_blocks and healthy.all():
            self.samples_checked += n_blocks * block_bits
            self._consecutive = 0
            return healthy
        for row in range(n_blocks):
            self.samples_checked += block_bits
            if not rct_ok[row]:
                self.rct_failures += 1
            if not apt_ok[row]:
                self.apt_failures += 1
            if healthy[row]:
                self._consecutive = 0
                continue
            self._consecutive += 1
            if self._consecutive >= self.consecutive_failures_to_alarm:
                raise HealthTestFailure(
                    f"health tests failed {self._consecutive} consecutive "
                    f"blocks (RCT cutoff {self.rct_cutoff}, APT cutoff "
                    f"{self.apt_cutoff}/{self.window})")
        return healthy

    def check_bank_results(self, results, iterations: int) -> np.ndarray:
        """Monitor per-bank batch results in per-iteration order.

        ``results`` are the :class:`~repro.core.parallel.BankResult`\\ s
        of one batch planned with ``collect_raw=True``.  Their packed
        raw rows are interleaved iteration-major / bank-minor -- the
        exact order a loop of per-iteration harvests would present raw
        blocks to :meth:`check` -- and run, still packed, through the
        :meth:`check_many` kernel and accounting (bits packed by a
        worker are binary by construction, so they skip validation).
        Only rows that fail the repetition-count screen are ever
        unpacked.  The one place the ordering contract lives, shared
        by every monitored path.
        """
        if any(result.raw is None for result in results):
            raise BitstreamError(
                "monitored batch results must carry raw read-outs "
                "(plan with collect_raw=True)")
        raw = packed_rows([result.raw for result in results], iterations)
        return self._check_rows(raw.reshape(iterations * len(results), -1),
                                results[0].raw_bits)

    # ------------------------------------------------------------------

    #: Bits unpacked at once for the bit-level RCT: the unpacked rows
    #: and their int32 run-length temporaries stay a few tens of MB
    #: however wide or tall the batch is, and however many rows fail
    #: the byte screen.
    _RCT_CHUNK_ELEMENTS = 4 * 1024 * 1024

    def _repetition_count_ok_packed(self, packed: np.ndarray,
                                    block_bits: int) -> np.ndarray:
        """RCT verdict per packed row: an exact byte screen, then bits.

        A run of ``L`` identical bits covers at most 7 bits of a
        partial byte at each end, so it contains at least
        ``ceil((L - 14) / 8)`` whole ``0x00``/``0xFF`` bytes.  A row
        with fewer such bytes than a cutoff-long run needs cannot hold
        one and passes; only the rows left over are unpacked (to
        ``block_bits``, so padding never extends a run) and resolved by
        :meth:`_repetition_count_ok_rows`.  The cutoff is at least 21
        (``claimed_min_entropy`` <= 1), so a failing row always needs
        one constant byte or more.
        """
        ok = np.ones(packed.shape[0], dtype=bool)
        needed = -(-(self.rct_cutoff - 14) // 8)
        constant = np.count_nonzero((packed == 0) | (packed == 0xFF), axis=1)
        suspects = np.flatnonzero(constant >= needed)
        rows_per_chunk = max(1, self._RCT_CHUNK_ELEMENTS // max(1, block_bits))
        for start in range(0, suspects.size, rows_per_chunk):
            chunk = suspects[start:start + rows_per_chunk]
            ok[chunk] = self._repetition_count_ok_rows(
                np.unpackbits(packed[chunk], axis=1, count=block_bits))
        return ok

    def _repetition_count_ok_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Longest run of identical bits per row, against the cutoff.

        With low credited entropy the cutoff is long (e.g. H=0.02 ->
        C=1001): runs of deterministic bitlines inside one read-out are
        expected; a kilobit-long constant run is not.  The exact
        bit-level resolver behind :meth:`_repetition_count_ok_packed`'s
        screen: the run length at each position is the distance to the
        most recent value change in that row.
        """
        positions = np.arange(matrix.shape[1], dtype=np.int32)
        changed = np.zeros(matrix.shape, dtype=bool)
        changed[:, 1:] = matrix[:, 1:] != matrix[:, :-1]
        run_start = np.maximum.accumulate(
            np.where(changed, positions, np.int32(0)), axis=1)
        longest = (positions - run_start + 1).max(axis=1)
        return longest < self.rct_cutoff

    def _adaptive_proportion_ok_rows(self, packed: np.ndarray,
                                     block_bits: int) -> np.ndarray:
        """Per-window dominant-value counts per packed row.

        The window is a whole number of bytes, so each window's count
        of ones is the popcount of its ``window // 8`` bytes; a
        trailing partial window (and any padding) is not tested.
        """
        n_blocks = packed.shape[0]
        n_windows = block_bits // self.window
        if n_windows == 0:
            return np.ones(n_blocks, dtype=bool)
        window_bytes = self.window // 8
        windows = packed[:, :n_windows * window_bytes].reshape(
            n_blocks, n_windows, window_bytes)
        ones = np.bitwise_count(windows).sum(axis=2, dtype=np.int32)
        dominant = np.maximum(ones, self.window - ones)
        return (dominant < self.apt_cutoff).all(axis=1)


class MonitoredTrng(HarvestPlanner):
    """A QuacTrng whose raw read-outs pass continuous health testing.

    Mirrors the real pipeline layout: health tests observe the *raw*
    sense-amplifier output, never the conditioned stream (SHA-256 output
    looks perfect even from a dead source -- exactly the failure the
    tests exist to catch).

    Pooled draws run on the wrapped generator's backend through the
    shared round planner, as one channel (``trng``) with one monitor:
    raw read-outs travel with each round, and the monitor's verdict is
    applied when a round *lands* -- so bits pooled from rounds that
    passed stay pooled when a later round alarms.
    ``async_harvest=True`` keeps two rounds in flight instead of one;
    the output and the monitor's counters are identical either way.
    """

    def __init__(self, trng: QuacTrng,
                 monitor: HealthMonitor = None,
                 async_harvest: bool = False) -> None:
        super().__init__(trng.backend, async_harvest)
        self.trng = trng
        self.monitor = monitor or HealthMonitor()

    @property
    def channels(self) -> List[QuacTrng]:
        """The one channel: the wrapped generator."""
        return [self.trng]

    @property
    def monitors(self) -> List[HealthMonitor]:
        """The one channel's monitor."""
        return [self.monitor]

    @property
    def bits_per_iteration(self) -> int:
        """Conditioned output bits of one (health-checked) iteration."""
        return self.trng.bits_per_iteration

    def iteration(self) -> Tuple[np.ndarray, float]:
        """One health-checked iteration: (conditioned bits, latency)."""
        from repro.entropy.blocks import sha_input_blocks

        digests = []
        for key in self.trng._banks:
            segment = self.trng._segments[key]
            raw = self.trng.executor.run_direct(segment,
                                                self.trng.data_pattern)
            self.monitor.check(raw)
            for block in sha_input_blocks(raw, self.trng._plans[key]):
                digests.append(self.trng._condition(block))
        return (np.concatenate(digests),
                self.trng.iteration_latency_ns)
