"""Benchmark: sharded generation throughput versus worker-host count.

Draws one bulk stream from the paper's 4-channel system shape through
:class:`~repro.core.remote.RemoteBackend` on localhost clusters of
increasing size, recording bits/second per host count next to the
serial reference -- the bits/sec-vs-hosts curve of the distributed
backend.  Every remote stream is compared bit-for-bit against the
serial one: sharding is only allowed to buy time, never to move a bit.

Localhost clusters pay the full wire cost (packed rounds over TCP)
without real extra silicon, so the *absolute* numbers here are a
floor, not the multi-machine ceiling; the curve's value is tracking
the wire overhead and the host scaling trend release over release.
The speedup gate (multi-host beats one host) arms only via
``REPRO_ASSERT_REMOTE_SCALING=1`` -- shared CI runners are too noisy
for a hard gate by default -- but equality always asserts.

Results land in ``benchmark.extra_info`` *and* a JSON artifact
(``REPRO_REMOTE_SCALING_JSON``, default
``benchmarks/remote_scaling.json``) so CI can upload the curve.

``REPRO_BENCH_SCALE=small`` (the default) draws 8 Mb; ``full`` draws
32 Mb.
"""

import json
import os
import time

import numpy as np

from _bench_utils import run_once

from repro.core.multichannel import SystemTrng
from repro.core.parallel import SerialBackend
from repro.core.remote import LocalCluster, RemoteBackend
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import build_table3_population

_N_BITS = {"small": 8_000_000, "full": 32_000_000}

#: Localhost host counts the curve is sampled at.
HOST_COUNTS = (1, 2, 4)

#: Required multi-host advantage over one host when the gate is armed.
MIN_REMOTE_SPEEDUP = 1.1

ASSERT_ENV_VAR = "REPRO_ASSERT_REMOTE_SCALING"

#: Default artifact path (relative to the pytest invocation directory).
DEFAULT_ARTIFACT = os.path.join("benchmarks", "remote_scaling.json")


def _system(modules, entropy_per_block, backend):
    return SystemTrng(modules, entropy_per_block=entropy_per_block,
                      backend=backend)


def _timed_draw(system, n_bits):
    start = time.perf_counter()
    stream = system.random_bits(n_bits)
    return stream, time.perf_counter() - start


def test_remote_scaling(benchmark, bench_scale):
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

    curve = {}
    for hosts in HOST_COUNTS:
        with RemoteBackend(cluster=LocalCluster(hosts)) as backend:
            # Spawn the workers (python + numpy imports) and open the
            # connections before the clock starts: the curve measures
            # steady-state throughput, not cold start.
            assert all(backend.ping())
            stream, elapsed = _timed_draw(
                _system(modules, entropy_per_block, backend), n_bits)
        np.testing.assert_array_equal(
            stream, reference,
            err_msg=f"remote backend with {hosts} host(s) moved bits")
        curve[hosts] = n_bits / elapsed

    serial_bps = n_bits / serial_elapsed
    benchmark.extra_info["bits_per_sec_serial"] = serial_bps
    for hosts, bps in curve.items():
        benchmark.extra_info[f"bits_per_sec_remote_{hosts}"] = bps
        benchmark.extra_info[f"speedup_remote_{hosts}"] = \
            bps / serial_bps

    artifact = {
        "n_bits": n_bits,
        "scale": bench_scale.value,
        "cpu_count": os.cpu_count(),
        "bits_per_sec_serial": serial_bps,
        "bits_per_sec_remote": {str(h): bps for h, bps in curve.items()},
        "speedup_vs_serial": {str(h): bps / serial_bps
                              for h, bps in curve.items()},
        "wire_overhead_one_host": serial_bps / curve[1],
    }
    path = os.environ.get("REPRO_REMOTE_SCALING_JSON", DEFAULT_ARTIFACT)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)

    if os.environ.get(ASSERT_ENV_VAR, "").strip().lower() in \
            ("1", "true", "yes"):
        best = max(curve[h] for h in HOST_COUNTS if h > 1)
        assert best >= MIN_REMOTE_SPEEDUP * curve[1], (
            f"multi-host generation only reached "
            f"{best / curve[1]:.2f}x of one host")
