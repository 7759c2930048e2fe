"""Benchmark: multi-bank generation scaling across execution backends.

Draws one bulk stream from the paper's 4-channel system shape (16
independent bank tasks per harvest round) on the serial reference and
on :class:`ProcessPoolBackend` at increasing worker counts, recording
bits/second for each.  Every parallel stream is additionally compared
bit-for-bit against the serial one -- scaling is only allowed to buy
time, never to move a bit.

Results land in ``benchmark.extra_info`` *and* in a JSON artifact
(``REPRO_SCALING_JSON``, default ``benchmarks/parallel_scaling.json``)
so CI can upload the scaling curve.  The speedup assertion (process
pool beats serial at >= 4 workers) arms via ``REPRO_ASSERT_SCALING=1``
or automatically on machines with plenty of cores; everywhere else the
run still records the curve and checks equivalence.

``REPRO_BENCH_SCALE=small`` (the default) draws 16 Mb; ``full`` draws
64 Mb -- the acceptance scale.
"""

import json
import os
import time

import numpy as np

from _bench_utils import run_once

from repro.core.multichannel import SystemTrng
from repro.core.parallel import ProcessPoolBackend, SerialBackend
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import build_table3_population

_N_BITS = {"small": 16_000_000, "full": 64_000_000}

#: Worker counts the scaling curve is sampled at.
WORKER_COUNTS = (1, 2, 4, 8)

#: Required process-pool advantage over serial at >= 4 workers.
MIN_PARALLEL_SPEEDUP = 1.2

#: Set REPRO_ASSERT_SCALING=1/0 to force the speedup gate on or off;
#: unset, it arms only on machines with enough uncontended cores
#: (shared 4-vCPU CI runners are too noisy for a hard 1.2x gate).
ASSERT_ENV_VAR = "REPRO_ASSERT_SCALING"
AUTO_ASSERT_MIN_CORES = 6


def _speedup_gate_armed() -> bool:
    override = os.environ.get(ASSERT_ENV_VAR, "").strip().lower()
    if override in ("1", "true", "yes"):
        return True
    if override in ("0", "false", "no"):
        return False
    return (os.cpu_count() or 1) >= AUTO_ASSERT_MIN_CORES

#: Default artifact path (relative to the pytest invocation directory).
DEFAULT_ARTIFACT = os.path.join("benchmarks", "parallel_scaling.json")


def _system(modules, entropy_per_block, backend):
    return SystemTrng(modules, entropy_per_block=entropy_per_block,
                      backend=backend)


def _warm(task):
    """No-op task used to spin the pool up outside the timed region."""
    return task


def _timed_draw(system, n_bits):
    start = time.perf_counter()
    stream = system.random_bits(n_bits)
    return stream, time.perf_counter() - start


def test_parallel_scaling(benchmark, bench_scale):
    n_bits = _N_BITS[bench_scale.value]
    geometry = DramGeometry.small(segments_per_bank=64,
                                  cache_blocks_per_row=8)
    entropy_per_block = 256.0 * geometry.row_bits / 65536
    modules = build_table3_population(geometry,
                                      names=["M13", "M4", "M15", "M1"])

    serial = _system(modules, entropy_per_block, SerialBackend())
    start = time.perf_counter()
    reference = run_once(benchmark, serial.random_bits, n_bits)
    serial_elapsed = time.perf_counter() - start
    assert reference.size == n_bits
    assert abs(reference.mean() - 0.5) < 0.01

    curve = {}
    for workers in WORKER_COUNTS:
        with ProcessPoolBackend(workers) as backend:
            # Spin the workers up (and their numpy imports, on spawn
            # platforms) before the clock starts: the curve measures
            # steady-state throughput, not pool start-up.
            backend.run_round(_warm, list(range(workers + 1)))
            stream, elapsed = _timed_draw(
                _system(modules, entropy_per_block, backend), n_bits)
        np.testing.assert_array_equal(
            stream, reference,
            err_msg=f"process pool with {workers} workers moved bits")
        curve[workers] = n_bits / elapsed

    serial_bps = n_bits / serial_elapsed
    benchmark.extra_info["bits_per_sec_serial"] = serial_bps
    for workers, bps in curve.items():
        benchmark.extra_info[f"bits_per_sec_process_{workers}"] = bps
        benchmark.extra_info[f"speedup_process_{workers}"] = \
            bps / serial_bps

    artifact = {
        "n_bits": n_bits,
        "scale": bench_scale.value,
        "cpu_count": os.cpu_count(),
        "bits_per_sec_serial": serial_bps,
        "bits_per_sec_process": {str(w): bps
                                 for w, bps in curve.items()},
        "speedup_process": {str(w): bps / serial_bps
                            for w, bps in curve.items()},
    }
    path = os.environ.get("REPRO_SCALING_JSON", DEFAULT_ARTIFACT)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)

    if _speedup_gate_armed():
        best = max(bps for w, bps in curve.items() if w >= 4)
        assert best >= MIN_PARALLEL_SPEEDUP * serial_bps, (
            f"process pool at >=4 workers only reached "
            f"{best / serial_bps:.2f}x serial on {os.cpu_count()} cores "
            f"({best:.0f} vs {serial_bps:.0f} bits/s)")
