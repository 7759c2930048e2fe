"""Which public entry points the traced run times, and what it reports.

:func:`install` rebinds each entry point below, at module or class
attribute level, to a :class:`~tracing.Tracer` wrapper; the span name's
prefix (up to the first dot) is the layer.  :func:`layer_metrics` turns
the recorded spans and counts into the per-layer metrics.
"""

from __future__ import annotations

from typing import Dict, Optional

import tracing

#: Span name of a client request (the root of every span tree); it
#: belongs to no layer, so its self time is unattributed.
REQUEST = "request"


#: Every per-layer metric of the traced run, with its unit.
UNITS = {
    "device.probabilities_ms": "ms",
    "quac.plan_direct_calls": "count",
    "quac.plan_us_per_task": "us",
    "rng.keys": "count",
    "rng.key_us": "us",
    "sense_amplifier.sample_ms": "ms",
    "sense_amplifier.ns_per_raw_bit": "ns/bit",
    "sense_amplifier.share": "1",
    "conditioner.condition_ms": "ms",
    "conditioner.blocks": "count",
    "conditioner.ns_per_block": "ns",
    "parallel.tasks": "count",
    "parallel.task_self_ms": "ms",
    "parallel.result_wait_ms": "ms",
    "remote.requests_per_round": "1/round",
    "remote.bytes_out_per_round": "B/round",
    "remote.bytes_in_per_round": "B/round",
    "remote.send_ms": "ms",
    "remote.recv_ms": "ms",
    "harvest.fill_ms": "ms",
    "harvest.rounds_planned": "count",
    "harvest.rounds_cancelled": "count",
    "multichannel.rounds": "count",
    "multichannel.tasks_per_round": "1/round",
    "multichannel.iterations_per_round": "1/round",
    "multichannel.gather_self_ms": "ms",
    "multichannel.served_over_generated": "1",
    "health.check_ms": "ms",
    "health.ns_per_raw_bit": "ns/bit",
    "health.samples_checked": "count",
    "health.alarms": "count",
    "bitops.append_ms": "ms",
    "bitops.take_bytes_us": "us",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "calib.numpy_draw_ms": "ms",
}


def _count(key: str, measure):
    def observe(counts, args, result):
        counts[key] += measure(args, result)
    return observe


def install(tracer: tracing.Tracer, backend) -> tracing.Patches:
    """Wrap every timed entry point; undo with ``.restore()``."""
    import repro.core.harvest as harvest
    import repro.core.multichannel as multichannel
    import repro.core.parallel as parallel
    import repro.core.quac as quac
    import repro.core.trng as trng
    import repro.dram.sense_amplifier as sense_amplifier
    import repro.rng as rng
    from repro.bitops import BitBuffer
    from repro.core.health import HealthMonitor
    from repro.crypto.conditioner import Sha256Conditioner
    from repro.dram.device import DramModule

    patches = tracing.Patches()

    def method(cls, attr, name, observe=None):
        owner = tracing.defining_class(cls, attr)
        original = owner.__dict__[attr]
        patches.bind(owner, attr, tracer.wrap(original, name, observe))

    def function(modules, attr, name, observe=None):
        # One wrapper object everywhere the function was imported, so a
        # pickled reference to it still resolves by name.
        wrapper = tracer.wrap(getattr(modules[0], attr), name, observe)
        for module in modules:
            patches.bind(module, attr, wrapper)

    method(DramModule, "segment_probabilities",
           "device.segment_probabilities")
    method(quac.QuacExecutor, "plan_direct", "quac.plan_direct")
    function([rng, parallel, quac], "generator_from_key",
             "rng.generator_from_key")
    function([sense_amplifier, parallel, quac], "sample_settles",
             "sense_amplifier.sample_settles",
             _count("raw_bits", lambda args, result: result.size))
    method(Sha256Conditioner, "condition_many", "conditioner.condition_many",
           _count("blocks", lambda args, result: result.size // 256))
    if backend.name == "remote":
        # Tasks run in the worker process.  Sender threads pickle
        # ``run_bank_task`` by name, so rebinding it here would break
        # rounds already in flight.
        from repro.core.remote import wire
        function([wire], "send_frame", "remote.send_frame")
        function([wire], "recv_frame", "remote.recv_frame")
        function([wire], "send_raw_frame", "remote.send_raw_frame",
                 _count("bytes_out", lambda args, result: len(args[1])))
        function([wire], "recv_raw_frame", "remote.recv_raw_frame",
                 _count("bytes_in", lambda args, result: len(result)))
    else:
        function([parallel, harvest, multichannel, trng], "run_bank_task",
                 "parallel.run_bank_task")
    count_tasks = _count("tasks", lambda args, result: len(args[2]))
    method(type(backend), "run_round", "parallel.run_round", count_tasks)

    owner = tracing.defining_class(type(backend), "submit_round")
    submit = tracer.wrap(owner.__dict__["submit_round"],
                         "parallel.submit_round", count_tasks)

    def submit_round(self, fn, tasks):
        pending = submit(self, fn, tasks)
        # Time the join on this handle only: its class is the
        # backend's business.
        pending.result = tracer.wrap(pending.result, "parallel.result")
        return pending

    patches.bind(owner, "submit_round", submit_round)
    method(harvest.AsyncHarvestEngine, "fill", "harvest.fill")
    method(multichannel.SystemTrng, "plan_round", "multichannel.plan_round",
           _plan_observer)
    method(multichannel.SystemTrng, "gather_round",
           "multichannel.gather_round")
    method(HealthMonitor, "check_bank_results", "health.check_bank_results")
    method(BitBuffer, "append", "bitops.append")
    method(BitBuffer, "take_bytes", "bitops.take_bytes")
    return patches


def _plan_observer(counts, args, round_):
    counts["round_tasks"] += len(round_.tasks)
    counts["round_iterations"] += sum(s.iterations for s in round_.spans)
    counts["round_yield_bits"] += round_.yield_bits


def layer_of(name: str) -> Optional[str]:
    """The layer a span belongs to (``None`` for request roots)."""
    if name == REQUEST:
        return None
    return name.split(".", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, selfs, counts, wall_ns: int, served_bits: int,
                  samples_checked: int, remote_requests: int,
                  engine_stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced segment (names as documented)."""
    table = tracing.totals(spans, selfs)

    def calls(name):
        return table.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return table.get(name, (0, 0, 0))[1]

    def self_ns(name):
        return table.get(name, (0, 0, 0))[2]

    rounds = calls("multichannel.plan_round")
    alarms = sum(1 for span in spans
                 if span.name == "health.check_bank_results"
                 and span.error == "HealthTestFailure")
    return {
        "device.probabilities_ms":
            self_ns("device.segment_probabilities") / 1e6,
        "quac.plan_direct_calls": calls("quac.plan_direct"),
        "quac.plan_us_per_task": _ratio(total_ns("quac.plan_direct"),
                                        calls("quac.plan_direct")) / 1e3,
        "rng.keys": calls("rng.generator_from_key"),
        "rng.key_us": _ratio(total_ns("rng.generator_from_key"),
                             calls("rng.generator_from_key")) / 1e3,
        "sense_amplifier.sample_ms":
            self_ns("sense_amplifier.sample_settles") / 1e6,
        "sense_amplifier.ns_per_raw_bit": _ratio(
            total_ns("sense_amplifier.sample_settles"), counts["raw_bits"]),
        "sense_amplifier.share": _ratio(
            self_ns("sense_amplifier.sample_settles"), wall_ns),
        "conditioner.condition_ms":
            self_ns("conditioner.condition_many") / 1e6,
        "conditioner.blocks": counts["blocks"],
        "conditioner.ns_per_block": _ratio(
            total_ns("conditioner.condition_many"), counts["blocks"]),
        "parallel.tasks": counts["tasks"],
        "parallel.task_self_ms": self_ns("parallel.run_bank_task") / 1e6,
        "parallel.result_wait_ms": self_ns("parallel.result") / 1e6,
        "remote.requests_per_round": _ratio(remote_requests, rounds),
        "remote.bytes_out_per_round": _ratio(counts["bytes_out"], rounds),
        "remote.bytes_in_per_round": _ratio(counts["bytes_in"], rounds),
        "remote.send_ms": total_ns("remote.send_frame") / 1e6,
        "remote.recv_ms": total_ns("remote.recv_frame") / 1e6,
        "harvest.fill_ms": total_ns("harvest.fill") / 1e6,
        "harvest.rounds_planned": engine_stats.get("rounds_planned", 0),
        "harvest.rounds_cancelled": engine_stats.get("rounds_cancelled", 0),
        "multichannel.rounds": rounds,
        "multichannel.tasks_per_round": _ratio(counts["round_tasks"], rounds),
        "multichannel.iterations_per_round":
            _ratio(counts["round_iterations"], rounds),
        "multichannel.gather_self_ms":
            self_ns("multichannel.gather_round") / 1e6,
        "multichannel.served_over_generated":
            _ratio(served_bits, counts["round_yield_bits"]),
        "health.check_ms": self_ns("health.check_bank_results") / 1e6,
        "health.ns_per_raw_bit": _ratio(
            total_ns("health.check_bank_results"), samples_checked),
        "health.samples_checked": samples_checked,
        "health.alarms": alarms,
        "bitops.append_ms": self_ns("bitops.append") / 1e6,
        "bitops.take_bytes_us": _ratio(total_ns("bitops.take_bytes"),
                                       calls("bitops.take_bytes")) / 1e3,
    }
