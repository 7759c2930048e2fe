"""QUAC-TRNG: the paper's primary contribution.

* :mod:`repro.core.quac` -- executing QUAC operations against the
  simulated module (both the SoftMC-faithful and the fast direct path);
* :mod:`repro.core.trng` -- the end-to-end generator: characterization,
  segment initialization, QUAC, SIB splitting, SHA-256 conditioning;
* :mod:`repro.core.parallel` -- pluggable serial / thread-pool /
  process-pool execution backends for the batched engine's per-bank
  fan-out (bit-identical across backends and worker counts); a backend
  implements one method, ``submit_round``, and ``run_round`` blocks on
  it;
* :mod:`repro.core.remote` -- the sharded multi-host backend
  (``RemoteBackend`` / ``LocalCluster``): each round goes to the
  worker hosts as whole round shards, one round trip per host, framed
  in one fixed ``struct`` schema (no pickle); merged streams are
  bit-identical to the serial reference at any host count;
* :mod:`repro.core.harvest` -- the one round planner and refill loop
  every generator runs: a :class:`HarvestPlanner` base class (round
  planning and gathering over a generator's channels, pool, engine,
  ``random_bits`` / ``random_bytes`` / ``iter_bytes``) and the engine
  that gathers rounds straight into the one serving pool, with one
  round in flight by default and two under ``async_harvest`` -- the
  same bits either way;
* :mod:`repro.core.throughput` -- iteration latency and throughput from
  tightly-scheduled command sequences (Sections 7.2 / 7.4 / Figure 13);
* :mod:`repro.core.overheads` -- memory / storage / area accounting
  (Section 9).
"""

from repro import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562): a remote worker imports this package on its way to
#: :mod:`repro.core.remote.worker` and loads none of the generators, and
#: the sharded backend's socket/subprocess machinery loads only when
#: used, matching the by-name-only registration in
#: :mod:`repro.core.parallel`.
_EXPORTS = {
    "AsyncHarvestEngine": "repro.core.harvest",
    "BankResult": "repro.core.parallel",
    "BankTask": "repro.core.parallel",
    "ChannelSpan": "repro.core.harvest",
    "ExecutionBackend": "repro.core.parallel",
    "HarvestPlanner": "repro.core.harvest",
    "HarvestRound": "repro.core.harvest",
    "PendingResult": "repro.core.parallel",
    "SerialBackend": "repro.core.parallel",
    "ThreadPoolBackend": "repro.core.parallel",
    "ProcessPoolBackend": "repro.core.parallel",
    "RemoteBackend": "repro.core.remote",
    "LocalCluster": "repro.core.remote",
    "available_backends": "repro.core.parallel",
    "resolve_backend": "repro.core.parallel",
    "run_bank_task": "repro.core.parallel",
    "shard_map": "repro.core.remote",
    "QuacExecutor": "repro.core.quac",
    "QuacTrng": "repro.core.trng",
    "TrngConfiguration": "repro.core.throughput",
    "QuacThroughputModel": "repro.core.throughput",
    "IterationBreakdown": "repro.core.throughput",
    "CHANNELS_IN_REFERENCE_SYSTEM": "repro.core.throughput",
    "OverheadModel": "repro.core.overheads",
    "SystemTrng": "repro.core.multichannel",
    "reference_system": "repro.core.multichannel",
    "HealthMonitor": "repro.core.health",
    "HealthTestFailure": "repro.core.health",
    "MonitoredTrng": "repro.core.health",
    "TemperatureManagedTrng": "repro.core.temperature_manager",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
