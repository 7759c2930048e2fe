"""Benchmark: plan/execute overlap of the async harvest engine.

Streams one bulk draw from the paper's 4-channel system shape as a
sequence of constant-size chunks -- the ``iter_bytes`` hot path --
twice on the *same* warm process pool:

* **sync**: the harvest engine with one round in flight -- every
  chunk blocks on plan -> execute -> gather;
* **async**: the same engine with two rounds in flight
  (:class:`repro.core.harvest.AsyncHarvestEngine`, readahead on) keeps
  the next planned round in flight while the previous chunk's bits
  pool and serve.

Constant chunk sizes keep readahead inside its bit-identity contract,
so the two streams are additionally compared bit for bit -- overlap is
only allowed to buy time, never to move a bit.

Results land in ``benchmark.extra_info`` *and* a JSON artifact
(``REPRO_ASYNC_JSON``, default ``benchmarks/async_harvest.json``) so CI
can upload the overlap numbers next to the parallel-scaling curve.
The wall-clock assertion (async beats sequential plan+execute on the
process backend) arms via ``REPRO_ASSERT_ASYNC=1`` or automatically on
machines with plenty of cores; everywhere else the run still records
the curve and checks equivalence.

``REPRO_BENCH_SCALE=small`` (the default) draws 16 Mb; ``full`` draws
64 Mb -- the acceptance scale.
"""

import json
import os
import time

from _bench_utils import run_once

from repro.core.multichannel import SystemTrng
from repro.core.parallel import ProcessPoolBackend
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import build_table3_population

_N_BITS = {"small": 16_000_000, "full": 64_000_000}

#: Chunks the draw streams in (constant-size: readahead stays exact).
N_CHUNKS = 32

#: Pool workers (the paper's 4-channel shape fans 16 bank tasks out).
WORKERS = 4

#: Required async advantage over the sequential plan+execute loop.
MIN_ASYNC_SPEEDUP = 1.05

#: Set REPRO_ASSERT_ASYNC=1/0 to force the overlap gate on or off;
#: unset, it arms only on machines with enough uncontended cores.
ASSERT_ENV_VAR = "REPRO_ASSERT_ASYNC"
AUTO_ASSERT_MIN_CORES = 6

#: Default artifact path (relative to the pytest invocation directory).
DEFAULT_ARTIFACT = os.path.join("benchmarks", "async_harvest.json")


def _overlap_gate_armed() -> bool:
    override = os.environ.get(ASSERT_ENV_VAR, "").strip().lower()
    if override in ("1", "true", "yes"):
        return True
    if override in ("0", "false", "no"):
        return False
    return (os.cpu_count() or 1) >= AUTO_ASSERT_MIN_CORES


def _warm(task):
    """No-op task used to spin the pool up outside the timed region."""
    return task


def _stream_chunks(system, chunk_bytes, n_chunks):
    start = time.perf_counter()
    chunks = [system.random_bytes(chunk_bytes) for _ in range(n_chunks)]
    return chunks, time.perf_counter() - start


def test_async_harvest_overlap(benchmark, bench_scale):
    n_bits = _N_BITS[bench_scale.value]
    chunk_bytes = n_bits // (8 * N_CHUNKS)
    geometry = DramGeometry.small(segments_per_bank=64,
                                  cache_blocks_per_row=8)
    entropy_per_block = 256.0 * geometry.row_bits / 65536
    modules = build_table3_population(geometry,
                                      names=["M13", "M4", "M15", "M1"])

    with ProcessPoolBackend(WORKERS) as backend:
        # Spin the workers up (and their numpy imports, on spawn
        # platforms) before any clock starts.
        backend.run_round(_warm, list(range(WORKERS + 1)))

        sync_system = SystemTrng(modules,
                                 entropy_per_block=entropy_per_block,
                                 backend=backend)
        reference, sync_elapsed = run_once(
            benchmark, _stream_chunks, sync_system, chunk_bytes, N_CHUNKS)

        async_system = SystemTrng(modules,
                                  entropy_per_block=entropy_per_block,
                                  backend=backend, async_harvest=True)
        async_system.harvest_engine.readahead = True
        chunks, async_elapsed = _stream_chunks(async_system, chunk_bytes,
                                               N_CHUNKS)
        engine = async_system.harvest_engine
        engine.cancel_pending()   # drop the final readahead guess

    assert chunks == reference, "async harvest moved bits"

    streamed_bits = 8 * chunk_bytes * N_CHUNKS
    speedup = sync_elapsed / async_elapsed
    benchmark.extra_info["bits_per_sec_sync"] = streamed_bits / sync_elapsed
    benchmark.extra_info["bits_per_sec_async"] = \
        streamed_bits / async_elapsed
    benchmark.extra_info["overlap_speedup"] = speedup

    artifact = {
        "n_bits": streamed_bits,
        "scale": bench_scale.value,
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "chunks": N_CHUNKS,
        "chunk_bytes": chunk_bytes,
        "seconds_sync": sync_elapsed,
        "seconds_async": async_elapsed,
        "bits_per_sec_sync": streamed_bits / sync_elapsed,
        "bits_per_sec_async": streamed_bits / async_elapsed,
        "overlap_speedup": speedup,
        "rounds_planned": engine.rounds_planned,
        "rounds_gathered": engine.rounds_gathered,
        "rounds_cancelled": engine.rounds_cancelled,
    }
    path = os.environ.get("REPRO_ASYNC_JSON", DEFAULT_ARTIFACT)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)

    if _overlap_gate_armed():
        assert async_elapsed < sync_elapsed / MIN_ASYNC_SPEEDUP, (
            f"async harvest reached only {speedup:.2f}x the sequential "
            f"plan+execute loop on {os.cpu_count()} cores "
            f"({async_elapsed:.2f}s vs {sync_elapsed:.2f}s)")
