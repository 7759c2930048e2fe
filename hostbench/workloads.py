"""The benchmark's workloads and the closed-loop client that drives them.

Every workload is the paper's Table 3 population ``[M13, M4, M15, M1]``
as a 4-channel :class:`~repro.core.SystemTrng` at the small geometry,
served to one client thread that sends its next request only after the
previous one returns.  Backends are named by spec string, so the
workloads do not depend on how the backend classes are organised.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from checks import StreamCheck
from layers import REQUEST
from yardstick import Sampler, yardstick

#: Channel modules, in channel order (the paper's Table 3 population).
CHANNELS = ("M13", "M4", "M15", "M1")

#: Population seed whose modelled 4-channel throughput is pinned below.
REFERENCE_SEED = 2021

#: ``SystemTrng.system_throughput_gbps()`` of the reference population:
#: *modelled* DRAM command time (``QuacThroughputModel``), never host time.
MODELLED_GBPS = 57.37

CHUNK_BYTES = 1 << 20

#: TLS-style request cycle: session key, IV, ECDHE scalar.
KEY_SIZES = (32, 16, 32)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Execution backend spec string.
    backend: str
    #: Request sizes in bytes, cycled.
    sizes: Tuple[int, ...]
    #: Requests the traced run serves in each of its two segments --
    #: fixed work, so the traced counts repeat exactly for a seed.
    trace_requests: int
    #: Leading requests a fresh generator must replay bit for bit.
    replay_requests: int
    #: Harvest through the double-buffered engine with readahead.
    async_harvest: bool = False
    #: One health monitor per channel.
    monitored: bool = False
    #: Workload whose configuration replays this one's prefix.
    replay_as: Optional[str] = None
    #: Share of the client's time spent streaming over large arrays,
    #: which a neighbour slows less than compute (see :mod:`yardstick`):
    #: the ``core.health`` share of the traced ledger.
    stream_share: float = 0.0
    #: Time requests and set-up in CPU time of the client thread, which
    #: does all the work on an in-process backend: time the host gives
    #: to other tenants then does not count.  Off where the work runs
    #: in another process.
    thread_timed: bool = True

    def timer(self):
        """The clock that times this workload's requests and set-up."""
        return time.thread_time_ns if self.thread_timed \
            else time.perf_counter_ns


WORKLOADS = {w.name: w for w in (
    Workload("bulk_serial", "serial", (CHUNK_BYTES,),
             trace_requests=16, replay_requests=2),
    Workload("keys_serial", "serial", KEY_SIZES,
             trace_requests=20000, replay_requests=3000),
    Workload("bulk_remote", "remote:1", (CHUNK_BYTES,),
             trace_requests=16, replay_requests=2,
             async_harvest=True, replay_as="bulk_serial",
             thread_timed=False),
    Workload("monitored_serial", "serial", (CHUNK_BYTES,),
             trace_requests=10, replay_requests=2, monitored=True,
             stream_share=0.5),
)}


def build_system(workload: Workload, seed: int):
    """A fresh generator for ``workload`` over the seeded population."""
    from repro.core import HealthMonitor, SystemTrng
    from repro.dram.geometry import DramGeometry
    from repro.dram.module_factory import build_table3_population

    geometry = DramGeometry.small(segments_per_bank=64,
                                  cache_blocks_per_row=8)
    modules = build_table3_population(geometry, root_seed=seed,
                                      names=list(CHANNELS))
    monitors = ([HealthMonitor() for _ in modules] if workload.monitored
                else None)
    system = SystemTrng(modules,
                        entropy_per_block=256.0 * geometry.row_bits / 65536,
                        backend=workload.backend, monitors=monitors,
                        async_harvest=workload.async_harvest)
    if workload.async_harvest:
        system.harvest_engine.readahead = True
    return system


def retire(system) -> None:
    """Join in-flight rounds and release the backend's workers."""
    if system.async_harvest:
        system.harvest_engine.cancel_pending()
    system.backend.close()


#: The client runs the yardstick after at least this much request time
#: (a bulk request is a window of its own).
WINDOW_NS = 50_000_000


@dataclass
class Loop:
    """What one client loop measured."""

    latencies_ns: List[int]
    #: Bytes served by each request (0 when it failed).
    served: List[int]
    wall_ns: int
    failed: int
    stream: StreamCheck
    #: Exceptions raised by requests, by type name.
    errors: Counter = field(default_factory=Counter)
    #: ``(request index, host slowdown)``: one before the first
    #: request, one after each window and one after the last request.
    marks: List[Tuple[int, float]] = field(default_factory=list)
    #: ``(request index, host slowdown)`` measured during requests.
    samples: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.latencies_ns)

    def windows(self) -> List[Tuple[int, int, float]]:
        """``(first request, end, host slowdown)`` of each window: the
        mean of the yardsticks around it and the samples inside it."""
        windows = []
        samples = sorted(self.samples)
        taken = 0
        for (begin, before), (end, after) in zip(self.marks,
                                                 self.marks[1:]):
            slowdowns = [before, after]
            while taken < len(samples) and samples[taken][0] < end:
                slowdowns.append(samples[taken][1])
                taken += 1
            windows.append((begin, end, sum(slowdowns) / len(slowdowns)))
        return windows

    def scaled_ns(self) -> List[float]:
        """Latencies divided by the host slowdown of their window."""
        return [latency / factor for begin, end, factor in self.windows()
                for latency in self.latencies_ns[begin:end]]

    def window_rates(self) -> List[Tuple[float, float]]:
        """Bytes and requests per ns of scaled time in each window.

        A window holds the requests between two yardsticks; the median
        window rate shrugs off a window the scaling missed.
        """
        rates = []
        for begin, end, factor in self.windows():
            if end > begin:
                ns = sum(self.latencies_ns[begin:end]) / factor
                rates.append((sum(self.served[begin:end]) / ns,
                              (end - begin) / ns))
        return rates

    def mean_slowdown(self) -> float:
        """Mean host slowdown over the loop's yardsticks and samples."""
        slowdowns = [slow for _, slow in self.marks + self.samples]
        return sum(slowdowns) / len(slowdowns)

    def scaled_rate(self) -> float:
        """Bytes served per ns of scaled request time."""
        return sum(self.served) / sum(self.scaled_ns())


def serve(system, workload: Workload, stream: StreamCheck,
          seconds: Optional[float] = None,
          requests: Optional[int] = None, tracer=None,
          first: int = 0, window_ns: Optional[int] = None,
          sample: bool = False) -> Loop:
    """Closed loop: request, check, repeat until the time or count runs out.

    ``first`` is the index of the first request in the workload's size
    cycle.  With a ``tracer`` each request is a root span carrying its
    request id.  An exception from the generator is a failed request;
    the loop goes on.  Requests are timed by ``workload.timer()``;
    ``seconds`` and the loop's wall time are wall-clock.  With
    ``window_ns`` the yardstick runs before the first request, after
    every ``window_ns`` of request time and after the last request,
    outside every timing but the loop's wall time (which excludes the
    first and last).  With ``sample`` a :class:`Sampler` also runs it
    during requests, and each request's latency leaves out the time
    its samples took.
    """
    sizes = workload.sizes
    clock = time.perf_counter_ns
    timer = workload.timer()
    latencies: List[int] = []
    served: List[int] = []
    marks: List[Tuple[int, float]] = []
    failed = 0
    errors: Counter = Counter()
    sampler = Sampler(workload.stream_share, timer) if sample else None
    if window_ns is not None:
        marks.append((0, yardstick(workload.stream_share)))
    start = clock()
    stop = start + int(seconds * 1e9) if seconds is not None else None
    index = first
    now = start
    elapsed = 0
    with sampler or contextlib.nullcontext():
        while ((requests is None or index - first < requests)
               and (stop is None or now < stop)):
            if window_ns is not None and elapsed >= window_ns:
                marks.append((len(latencies),
                              yardstick(workload.stream_share)))
                elapsed = 0
            size = sizes[index % len(sizes)]
            if tracer is not None:
                tracer.request = index
                span = tracer.open(REQUEST)
            if sampler is not None:
                sampler.request = len(latencies)
                sampler.active = True
            began = timer()
            try:
                data = system.random_bytes(size)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                errors[type(exc).__name__] += 1
                data = b""
            ended = timer()
            latency = ended - began
            if sampler is not None:
                sampler.active = False
                latency -= sampler.paused_ns(began, ended)
            if tracer is not None:
                tracer.close(span)
            now = clock()
            latencies.append(latency)
            elapsed += latency
            served.append(len(data))
            if not stream.served(size, data):
                failed += 1
            index += 1
    wall_ns = clock() - start
    if window_ns is not None:
        marks.append((len(latencies), yardstick(workload.stream_share)))
    return Loop(latencies, served, wall_ns, failed, stream, errors, marks,
                sampler.samples if sampler is not None else [])


def replay_bytes(workload: Workload) -> int:
    """Bytes in the first ``replay_requests`` requests."""
    sizes = workload.sizes
    return sum(sizes[i % len(sizes)]
               for i in range(workload.replay_requests))


def replay(workload: Workload, seed: int) -> bytes:
    """The first ``replay_requests`` responses of a fresh generator."""
    replayer = WORKLOADS[workload.replay_as or workload.name]
    system = build_system(replayer, seed)
    try:
        stream = StreamCheck()
        serve(system, replayer, stream, requests=workload.replay_requests)
        return bytes(stream.prefix)
    finally:
        retire(system)


def modelled_gbps() -> float:
    """Modelled throughput of the reference population (not host time)."""
    system = build_system(WORKLOADS["bulk_serial"], REFERENCE_SEED)
    return system.system_throughput_gbps()
