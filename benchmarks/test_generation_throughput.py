"""Benchmark: bulk bitstream generation throughput (the hot path).

Measures simulator bits/second for conditioned-stream generation and
pins the batched engine's advantage: ``random_bits`` (refill rounds
of many iterations per bank) must be at least 5x faster than the
seed's per-iteration loop on the same module and seed: sample one
read-out per bank, slice its SHA input blocks, check and pack each
block and hash it with ``hashlib``.  That loop lives here, as the
baseline, and on no serving path.  Both streams are additionally
checked for balance so the speedup is never bought with broken output.

``REPRO_BENCH_SCALE=small`` (the default) draws 2 Mb; ``full`` draws
10 Mb -- the acceptance scale.
"""

import hashlib
import time

import numpy as np

from _bench_utils import run_once

from repro.bitops import pack_bits, unpack_bits
from repro.core.trng import QuacTrng
from repro.entropy.blocks import sha_input_blocks

_N_BITS = {"small": 2_000_000, "full": 10_000_000}

#: Required advantage of the batched engine over per-iteration looping.
MIN_SPEEDUP = 5.0


def _sequential_bits(trng: QuacTrng, n_bits: int) -> np.ndarray:
    """The seed's generation loop: one iteration at a time, tail kept."""
    parts, have = [], 0
    while have < n_bits:
        digests = []
        for segment, bank in zip(trng.segments, trng._banks):
            readout = trng.executor.run_direct(segment, trng.data_pattern)
            for block in sha_input_blocks(readout, trng._plans[bank]):
                digests.append(unpack_bits(
                    hashlib.sha256(pack_bits(block)).digest()))
        parts.append(np.concatenate(digests))
        have += parts[-1].size
    return np.concatenate(parts)[:n_bits]


def test_generation_throughput(benchmark, bench_scale, module_m13,
                               entropy_scale):
    n_bits = _N_BITS[bench_scale.value]
    batched = QuacTrng(module_m13, entropy_per_block=256.0 * entropy_scale)
    sequential = QuacTrng(module_m13,
                          entropy_per_block=256.0 * entropy_scale)
    # One throwaway draw outside the clock, on a throwaway generator
    # sharing the backend: under a pooled or remote
    # REPRO_EXECUTION_BACKEND this spins up the workers (process fork
    # or cluster spawn + numpy imports), which is start-up cost, not
    # generation throughput.
    QuacTrng(module_m13, entropy_per_block=256.0 * entropy_scale,
             backend=batched.backend).random_bits(1)

    start = time.perf_counter()
    seq_stream = _sequential_bits(sequential, n_bits)
    seq_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batch_stream = run_once(benchmark, batched.random_bits, n_bits)
    batch_elapsed = time.perf_counter() - start

    assert batch_stream.size == n_bits
    for stream in (batch_stream, seq_stream):
        assert abs(stream.mean() - 0.5) < 0.01

    speedup = seq_elapsed / batch_elapsed
    benchmark.extra_info["bits_per_sec_batched"] = n_bits / batch_elapsed
    benchmark.extra_info["bits_per_sec_sequential"] = n_bits / seq_elapsed
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_SPEEDUP, (
        f"batched path only {speedup:.1f}x faster than per-iteration "
        f"({n_bits / batch_elapsed:.0f} vs {n_bits / seq_elapsed:.0f} "
        f"bits/s)")
