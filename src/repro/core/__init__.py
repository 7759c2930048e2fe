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

from repro.core.harvest import (AsyncHarvestEngine, ChannelSpan,
                                HarvestPlanner, HarvestRound)
from repro.core.parallel import (BankResult, BankTask, ExecutionBackend,
                                 PendingResult, ProcessPoolBackend,
                                 SerialBackend, ThreadPoolBackend,
                                 available_backends, resolve_backend,
                                 run_bank_task)
from repro.core.quac import QuacExecutor
from repro.core.throughput import (QuacThroughputModel, IterationBreakdown,
                                   TrngConfiguration,
                                   CHANNELS_IN_REFERENCE_SYSTEM)
from repro.core.trng import QuacTrng
from repro.core.overheads import OverheadModel
from repro.core.multichannel import SystemTrng, reference_system
from repro.core.health import (HealthMonitor, HealthTestFailure,
                               MonitoredTrng)
from repro.core.temperature_manager import TemperatureManagedTrng

__all__ = [
    "AsyncHarvestEngine",
    "BankResult",
    "BankTask",
    "ChannelSpan",
    "ExecutionBackend",
    "HarvestPlanner",
    "HarvestRound",
    "PendingResult",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "RemoteBackend",
    "LocalCluster",
    "available_backends",
    "resolve_backend",
    "run_bank_task",
    "shard_map",
    "QuacExecutor",
    "QuacTrng",
    "TrngConfiguration",
    "QuacThroughputModel",
    "IterationBreakdown",
    "CHANNELS_IN_REFERENCE_SYSTEM",
    "OverheadModel",
    "SystemTrng",
    "reference_system",
    "HealthMonitor",
    "HealthTestFailure",
    "MonitoredTrng",
    "TemperatureManagedTrng",
]

#: Remote names re-exported lazily (PEP 562): the sharded backend's
#: socket/subprocess machinery loads only when actually used, matching
#: the by-name-only registration in :mod:`repro.core.parallel`.
_REMOTE_EXPORTS = ("RemoteBackend", "LocalCluster", "shard_map")


def __getattr__(name):
    if name in _REMOTE_EXPORTS:
        from repro.core import remote
        return getattr(remote, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
