"""Benchmark: the packed SP 800-90B health kernel against bit-level.

Builds one seeded monitored round the shape ``monitored_serial``
gathers -- 1,400 raw rows of 4,096 bits, packed, from four banks --
with healthy rows and planted RCT and APT failures, and runs it through
:meth:`HealthMonitor.check_bank_results` (packed rows, byte screen,
popcount APT).  The reference is the bit-level kernel it replaced: the
round unpacked to one byte per bit, the run-length RCT and per-window
sums over every row, then per-row accounting.

Both must give the same verdicts and counters, and the packed kernel
must be at least :data:`MIN_SPEEDUP` times faster in the same run.
The timings land in ``benchmark.extra_info``.
"""

import time

import numpy as np

from _bench_utils import run_once

from repro.core.health import HealthMonitor
from repro.core.parallel import BankResult

#: Round shape: banks x iterations rows of ROW_BITS raw bits.
BANKS, ITERATIONS, ROW_BITS = 4, 350, 4096

#: Required advantage of the packed kernel over the bit-level one.
MIN_SPEEDUP = 5.0

#: Timed repetitions per kernel (the best one counts).
REPEATS = 5


def _planted_round(monitor: HealthMonitor):
    """Iteration-major ``(rows, ROW_BITS)`` bits plus their bank results.

    Every 50th row holds a constant run one bit past the RCT cutoff
    (which may also cover a whole APT window), and 25 rows later one
    holds a constant APT window; failing rows are never adjacent, so a
    streak never reaches the default alarm.
    """
    rng = np.random.default_rng(2021)
    bits = rng.integers(0, 2, (ITERATIONS * BANKS, ROW_BITS),
                        dtype=np.uint8)
    for row in range(0, len(bits), 50):
        start = int(rng.integers(0, ROW_BITS - monitor.rct_cutoff))
        bits[row, start:start + monitor.rct_cutoff + 1] = row // 50 % 2
    for row in range(25, len(bits), 50):
        window = int(rng.integers(0, ROW_BITS // monitor.window))
        bits[row, window * monitor.window:
             (window + 1) * monitor.window] = 1
    by_bank = bits.reshape(ITERATIONS, BANKS, ROW_BITS)
    results = [BankResult(digests=b"",
                          raw=np.packbits(by_bank[:, bank], axis=1)
                          .tobytes(),
                          iterations=ITERATIONS, digest_bits=0,
                          raw_bits=ROW_BITS)
               for bank in range(BANKS)]
    return bits, results


def _bit_level_reference(monitor: HealthMonitor, results) -> np.ndarray:
    """The unpacked kernel: every row's bits, then row-by-row counts."""
    bits = np.concatenate([result.raw_matrix() for result in results],
                          axis=1).reshape(-1, ROW_BITS)
    chunk = monitor._RCT_CHUNK_ELEMENTS // ROW_BITS
    rct_ok = np.concatenate([
        monitor._repetition_count_ok_rows(bits[start:start + chunk])
        for start in range(0, len(bits), chunk)])
    ones = bits.reshape(len(bits), -1, monitor.window).sum(axis=2)
    dominant = np.maximum(ones, monitor.window - ones)
    apt_ok = (dominant < monitor.apt_cutoff).all(axis=1)
    healthy = rct_ok & apt_ok
    for row in range(len(bits)):
        monitor.samples_checked += ROW_BITS
        monitor.rct_failures += not rct_ok[row]
        monitor.apt_failures += not apt_ok[row]
        monitor._consecutive = 0 if healthy[row] \
            else monitor._consecutive + 1
    return healthy


def _best_ms(kernel, results) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        monitor = HealthMonitor()
        start = time.perf_counter()
        kernel(monitor, results)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _packed(monitor, results):
    return monitor.check_bank_results(results, ITERATIONS)


def test_health_kernel(benchmark):
    packed_monitor, reference_monitor = HealthMonitor(), HealthMonitor()
    bits, results = _planted_round(packed_monitor)
    verdicts = run_once(benchmark, _packed, packed_monitor, results)
    expected = _bit_level_reference(reference_monitor, results)
    np.testing.assert_array_equal(verdicts, expected)
    for stat in ("samples_checked", "rct_failures", "apt_failures",
                 "_consecutive"):
        assert getattr(packed_monitor, stat) == \
            getattr(reference_monitor, stat), stat
    assert packed_monitor.rct_failures == len(bits) // 50
    assert packed_monitor.apt_failures >= len(bits) // 50

    packed_ms = _best_ms(_packed, results)
    reference_ms = _best_ms(_bit_level_reference, results)
    speedup = reference_ms / packed_ms
    benchmark.extra_info["packed_ms"] = packed_ms
    benchmark.extra_info["bit_level_ms"] = reference_ms
    benchmark.extra_info["speedup"] = speedup

    assert speedup >= MIN_SPEEDUP, (
        f"packed health kernel only {speedup:.1f}x the bit-level one "
        f"({packed_ms:.2f} vs {reference_ms:.2f} ms)")
