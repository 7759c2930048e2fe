"""Host-time benchmark of the QUAC-TRNG simulator.

Run from the repository root::

    python3 hostbench/run.py --workload bulk_serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` serves a fixed request sequence twice from fresh
generators, untraced then traced, and reports the per-layer metrics and
the time ledger (spans are written to ``hostbench/traces/``).  Both
modes check the served bits.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every timing here is host time, scaled to a reference host speed by
``yardstick.py``; the paper's Gb/s are *modelled* time
and appear only as a checked invariant.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "served_mbps": "Mb/s",
    "requests_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def numpy_draw_ms(repeats: int = 5) -> float:
    """Median time of one fixed numpy draw: a drift probe for the box."""
    import numpy as np

    times = []
    for _ in range(repeats):
        generator = np.random.default_rng(20210625)
        began = time.perf_counter_ns()
        generator.random(1 << 20)
        times.append(time.perf_counter_ns() - began)
    return statistics.median(times) / 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_setup(workload, seed: int) -> float:
    """Median scaled time from nothing to the first byte served (s)."""
    from workloads import build_system, retire
    from yardstick import Sampler, yardstick

    timer = workload.timer()
    times = []
    for _ in range(SETUP_REPEATS):
        slowdowns = [yardstick(workload.stream_share)]
        with Sampler(workload.stream_share, timer) as sampler:
            sampler.active = True
            began = timer()
            system = build_system(workload, seed)
            system.random_bytes(1)
            ended = timer()
            sampler.active = False
        took = ended - began - sampler.paused_ns(began, ended)
        slowdowns.append(yardstick(workload.stream_share))
        slowdowns.extend(slowdown for _, slowdown in sampler.samples)
        times.append(took / 1e9 / (sum(slowdowns) / len(slowdowns)))
        retire(system)
    return statistics.median(times)


def common_checks(workload, seed: int, streams, loops, system_gbps):
    """Checks shared by both modes (bias, lengths, alarms, model)."""
    from checks import Check, replay_check, stream_checks
    from workloads import MODELLED_GBPS, modelled_gbps, replay, replay_bytes

    checks = []
    for stream in streams:
        checks.extend(stream_checks(stream))
    alarms = sum(loop.errors["HealthTestFailure"] for loop in loops)
    checks.append(Check("health_alarms", alarms == 0, f"{alarms} alarms"))
    reference = modelled_gbps()
    checks.append(Check(
        "modelled_gbps",
        round(reference, 2) == MODELLED_GBPS and len(set(system_gbps)) == 1,
        f"reference population {reference:.2f} Gb/s modelled "
        f"(pinned {MODELLED_GBPS}); this seed {system_gbps[0]:.2f} Gb/s "
        f"modelled, unchanged by serving: {len(set(system_gbps)) == 1}"))
    # bulk_remote is replayed by a serial generator, which also checks
    # that remote output equals serial output.
    name = "replay" if workload.replay_as is None \
        else f"replay_as_{workload.replay_as}"
    checks.append(replay_check(
        name, bytes(streams[0].prefix[:replay_bytes(workload)]),
        replay(workload, seed)))
    return checks


def percentile_us(latencies_ns, q: float) -> float:
    import numpy as np

    return float(np.percentile(latencies_ns, q)) / 1e3


def run_untraced(workload, seed: int, seconds: float):
    from checks import StreamCheck
    from workloads import WINDOW_NS, build_system, retire, serve

    calib_ms = numpy_draw_ms()
    setup_s = measure_setup(workload, seed)
    system = build_system(workload, seed)
    stream = StreamCheck(keep_requests=workload.replay_requests)
    try:
        gbps = [system.system_throughput_gbps()]
        # The first request finishes lazy set-up (e.g. a worker spawn)
        # outside the clock; its bytes are still checked.
        warm = serve(system, workload, stream, requests=1)
        bits_before = stream.bits_served
        loop = serve(system, workload, stream, seconds=seconds, first=1,
                     window_ns=WINDOW_NS, sample=True)
        gbps.append(system.system_throughput_gbps())
    finally:
        retire(system)
    latencies = loop.scaled_ns()
    byte_rates, request_rates = zip(*loop.window_rates())
    metrics = {
        "served_mbps": 8e3 * statistics.median(byte_rates),
        "requests_per_s": 1e9 * statistics.median(request_rates),
        "latency_p50_us": percentile_us(latencies, 50),
        "latency_p99_us": percentile_us(latencies, 99),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    raw_s = sum(loop.latencies_ns) / 1e9
    loops = [warm, loop]
    checks = common_checks(workload, seed, [stream], loops, gbps)
    clock = "thread CPU" if workload.thread_timed else "wall"
    info = [f"timings above: {len(latencies)} requests (latency samples) "
            f"in {len(byte_rates)} windows (rate samples), timed in "
            f"{clock} time, each scaled by the host slowdown around it "
            f"(mean {loop.mean_slowdown():.3f} over {len(loop.marks)} "
            f"yardsticks between and {len(loop.samples)} during requests)",
            f"unscaled: {(stream.bits_served - bits_before) / 1e6 / raw_s:.4f}"
            f" Mb/s, {loop.requests / raw_s:.4f} req/s, p50 "
            f"{percentile_us(loop.latencies_ns, 50):.4f} us, p99 "
            f"{percentile_us(loop.latencies_ns, 99):.4f} us; wall "
            f"{loop.wall_ns / 1e9:.2f} s",
            f"calib.numpy_draw_ms: {calib_ms:.4f}"]
    return ({name: (value, END_TO_END_UNITS[name])
             for name, value in metrics.items()},
            loops, checks, info)


def run_traced(workload, seed: int):
    import layers
    import tracing
    from checks import StreamCheck, replay_check
    from workloads import build_system, retire, serve

    calib_ms = numpy_draw_ms()
    n = workload.trace_requests
    # Yardsticks before and after each segment only, so none falls
    # inside the traced wall time the ledger splits.
    whole = sys.maxsize

    system = build_system(workload, seed)
    plain = StreamCheck()
    try:
        gbps = [system.system_throughput_gbps()]
        loops = [serve(system, workload, plain, requests=1)]
        base = serve(system, workload, plain, requests=n, first=1,
                     window_ns=whole)
        loops.append(base)
    finally:
        retire(system)

    system = build_system(workload, seed)
    stream = StreamCheck()
    tracer = tracing.Tracer()
    try:
        loops.append(serve(system, workload, stream, requests=1))
        bits_before = stream.bits_served
        monitors = [m for m in system.monitors if m is not None]
        samples_before = sum(m.samples_checked for m in monitors)
        engine = system.harvest_engine if system.async_harvest else None
        planned_before = engine.rounds_planned if engine else 0
        request_count = getattr(system.backend, "request_count", None)
        remote_before = request_count() if request_count else 0
        patches = layers.install(tracer, system.backend)
        try:
            traced = serve(system, workload, stream, requests=n, first=1,
                           tracer=tracer, window_ns=whole)
        finally:
            patches.restore()
        loops.append(traced)
        window_end = tracer.clock()
        engine_stats = {}
        if engine is not None:
            engine_stats["rounds_cancelled"] = engine.cancel_pending()
            engine_stats["rounds_planned"] = \
                engine.rounds_planned - planned_before
        remote_requests = (request_count() - remote_before
                           if request_count else 0)
        samples = sum(m.samples_checked for m in monitors) - samples_before
        gbps.append(system.system_throughput_gbps())
    finally:
        retire(system)

    spans = [span for span in tracer.spans
             if 0 < span.end and span.start <= window_end]
    selfs = tracing.self_times(spans)
    ledger = tracing.ledger(spans, selfs, traced.wall_ns, layers.layer_of,
                            threading.get_ident())
    metrics = layers.layer_metrics(
        spans, selfs, tracer.counts, traced.wall_ns,
        stream.bits_served - bits_before, samples, remote_requests,
        engine_stats)
    metrics["trace.overhead_pct"] = \
        100.0 * (base.scaled_rate() / traced.scaled_rate() - 1.0)
    metrics["trace.unattributed_pct"] = ledger.unattributed_pct()
    metrics["calib.numpy_draw_ms"] = calib_ms

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{workload.name}-seed{seed}.jsonl"
    tracing.write_jsonl(trace_path, spans)

    checks = common_checks(workload, seed, [plain, stream], loops, gbps)
    checks.append(replay_check("traced_replay", bytes(plain.prefix),
                               bytes(stream.prefix)))
    info = [f"traced {n} requests: {traced.wall_ns / 1e9:.3f} s "
            f"(untraced {base.wall_ns / 1e9:.3f} s); "
            f"{len(spans)} spans -> {trace_path.relative_to(HERE.parent)}",
            "time ledger (self time of the client thread):"]
    for layer, ns in sorted(ledger.layers.items(), key=lambda kv: -kv[1]):
        info.append(f"  {layer:<16} {ns / 1e6:10.2f} ms "
                    f"{100.0 * ns / ledger.wall:6.2f}%")
    info.append(f"  {'unattributed':<16} {ledger.unattributed / 1e6:10.2f}"
                f" ms {ledger.unattributed_pct():6.2f}%")
    return ({name: (value, layers.UNITS[name])
             for name, value in metrics.items()},
            loops, checks, info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"hostbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, loops, checks, info = run_traced(workload, args.seed)
    else:
        metrics, loops, checks, info = run_untraced(workload, args.seed,
                                                    args.seconds)
    attempted = sum(loop.requests for loop in loops) + len(checks)
    failed = sum(loop.failed for loop in loops) + \
        sum(not check.ok for check in checks)
    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}: host time, one closed-loop client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:16.4f} {unit}")
    for line in info:
        print(line)
    for check in checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} "
              f"({check.detail})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
