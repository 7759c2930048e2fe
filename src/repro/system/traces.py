"""Synthetic SPEC2006 memory-request streams.

The paper's Figure 12 runs the 23 SPEC2006 workloads below.  We encode
each workload's published memory behaviour -- last-level-cache misses
per kilo-instruction (MPKI, ~4 MB LLC ballpark figures from the
characterization literature) and a representative IPC -- and synthesize
per-channel request arrival streams from them: exponential
inter-arrivals at the workload's miss rate, with row-locality bursts
(consecutive same-row accesses arriving back to back).

What Figure 12 measures is how each workload *fragments* channel idle
time, which is governed by exactly these two statistics (rate and
burstiness); instruction-accurate replay is not needed to reproduce the
shape.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import generator_for

#: Reference core clock of the simulated system (Section 7.3).
CORE_CLOCK_HZ = 3.2e9

#: Channels in the simulated system; misses stripe evenly across them.
N_CHANNELS = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Memory behaviour of one SPEC2006 workload.

    ``mpki`` is LLC misses per kilo-instruction; ``ipc`` the achieved
    instructions per cycle on the reference core; ``row_hit_rate`` the
    fraction of requests hitting an open row (burst locality).
    """

    name: str
    mpki: float
    ipc: float
    row_hit_rate: float = 0.5

    def misses_per_second(self) -> float:
        """System-wide LLC miss rate."""
        return self.mpki / 1000.0 * self.ipc * CORE_CLOCK_HZ

    def channel_request_rate(self) -> float:
        """Per-channel memory request rate (requests/s)."""
        return self.misses_per_second() / N_CHANNELS

    def mean_gap_ns(self) -> float:
        """Mean inter-request gap on one channel (ns)."""
        rate = self.channel_request_rate()
        if rate <= 0:
            raise ConfigurationError(f"{self.name} has no memory traffic")
        return 1e9 / rate


#: The 23 workloads of Figure 12 with literature-ballpark intensities.
#: High-MPKI, low-IPC workloads (mcf, lbm, libquantum, milc) saturate
#: the channel most and leave the least TRNG headroom.
SPEC2006_WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec("bzip2", mpki=1.3, ipc=1.2, row_hit_rate=0.55),
    WorkloadSpec("gcc", mpki=0.7, ipc=1.3, row_hit_rate=0.50),
    WorkloadSpec("mcf", mpki=35.0, ipc=0.25, row_hit_rate=0.25),
    WorkloadSpec("milc", mpki=15.0, ipc=0.45, row_hit_rate=0.60),
    WorkloadSpec("zeusmp", mpki=3.5, ipc=1.1, row_hit_rate=0.65),
    WorkloadSpec("gromacs", mpki=0.5, ipc=1.6, row_hit_rate=0.55),
    WorkloadSpec("cactusADM", mpki=4.0, ipc=0.9, row_hit_rate=0.70),
    WorkloadSpec("leslie3d", mpki=12.0, ipc=0.55, row_hit_rate=0.70),
    WorkloadSpec("namd", mpki=0.2, ipc=1.8, row_hit_rate=0.50),
    WorkloadSpec("gobmk", mpki=0.5, ipc=1.2, row_hit_rate=0.45),
    WorkloadSpec("dealII", mpki=0.6, ipc=1.5, row_hit_rate=0.55),
    WorkloadSpec("soplex", mpki=20.0, ipc=0.4, row_hit_rate=0.55),
    WorkloadSpec("hmmer", mpki=0.6, ipc=1.7, row_hit_rate=0.60),
    WorkloadSpec("sjeng", mpki=0.4, ipc=1.2, row_hit_rate=0.40),
    WorkloadSpec("GemsFDTD", mpki=15.0, ipc=0.5, row_hit_rate=0.75),
    WorkloadSpec("libquantum", mpki=25.0, ipc=0.35, row_hit_rate=0.85),
    WorkloadSpec("h264ref", mpki=0.8, ipc=1.5, row_hit_rate=0.60),
    WorkloadSpec("lbm", mpki=30.0, ipc=0.3, row_hit_rate=0.75),
    WorkloadSpec("omnetpp", mpki=15.0, ipc=0.4, row_hit_rate=0.35),
    WorkloadSpec("astar", mpki=2.0, ipc=1.0, row_hit_rate=0.40),
    WorkloadSpec("wrf", mpki=6.0, ipc=0.9, row_hit_rate=0.65),
    WorkloadSpec("sphinx3", mpki=10.0, ipc=0.7, row_hit_rate=0.65),
    WorkloadSpec("xalancbmk", mpki=8.0, ipc=0.7, row_hit_rate=0.45),
]


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up a Figure 12 workload by name."""
    for spec in SPEC2006_WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown SPEC2006 workload {name!r}")


def generate_arrivals(workload: WorkloadSpec, duration_ns: float,
                      seed: int = 0, burst_spacing_ns: float = 3.33
                      ) -> np.ndarray:
    """Synthesize one channel's request arrival times (ns, sorted).

    Row-buffer locality appears as bursts: each miss brings a geometric
    number of same-row followers at back-to-back burst spacing, tuned so
    the workload's overall row-hit fraction matches its spec.  The
    stream is keyed by the CRC-32 of the workload's name, which (unlike
    ``hash``, salted per process) is the same in every run.
    """
    if duration_ns <= 0:
        raise ConfigurationError("duration must be positive")
    gen = generator_for(seed, "trace", zlib.crc32(workload.name.encode()))
    hit = min(max(workload.row_hit_rate, 0.0), 0.95)
    # Followers per leader so that followers/(leaders+followers) = hit.
    followers_mean = hit / (1.0 - hit)
    leader_rate = workload.channel_request_rate() / (1.0 + followers_mean)
    mean_gap = 1e9 / leader_rate

    times: List[float] = []
    t = float(gen.exponential(mean_gap))
    while t < duration_ns:
        times.append(t)
        n_followers = int(gen.geometric(1.0 / (1.0 + followers_mean)) - 1)
        for i in range(n_followers):
            follower = t + (i + 1) * burst_spacing_ns
            if follower < duration_ns:
                times.append(follower)
        t += float(gen.exponential(mean_gap))
    return np.asarray(sorted(times))
