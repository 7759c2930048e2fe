"""Production hardening: health tests + temperature management.

The paper's Section 8 requires the deployed TRNG to track DRAM
temperature, and any certifiable entropy source needs continuous health
tests (SP 800-90B).  This example assembles both extensions around the
core generator:

1. a :class:`TemperatureManagedTrng` with three characterized ranges,
   driven through a thermal excursion by the PID rig;
2. a :class:`HealthMonitor` watching one channel's raw read-outs
   (a one-module :class:`SystemTrng`), demonstrated catching a
   sabotaged (deterministic) segment;
3. a min-entropy assessment (SP 800-90B estimators) of the conditioned
   output;
4. a monitored multi-channel system harvesting all channels in parallel
   on a thread-pool backend, surviving one channel going dead without
   losing the healthy channels' pooled bits;
5. the asynchronous harvest engine streaming chunks -- the next
   refill round in flight while the consumer works, bit-identical to
   the synchronous stream (the README's "Async harvest" snippet,
   runnable).

Run:  python examples/production_hardening.py
"""

import numpy as np

from repro.core.health import HealthMonitor, HealthTestFailure
from repro.core.multichannel import SystemTrng
from repro.core.parallel import ThreadPoolBackend
from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import (build_module,
                                       build_table3_population,
                                       spec_by_name)
from repro.entropy.min_entropy import assess
from repro.softmc.temperature_controller import TemperatureController


def main() -> None:
    geometry = DramGeometry.small(segments_per_bank=128,
                                  cache_blocks_per_row=16)
    entropy_budget = 256.0 * geometry.row_bits / 65536
    module = build_module(spec_by_name("M4"), geometry)

    # --- 1. temperature-managed generation through an excursion -------
    managed = TemperatureManagedTrng(module,
                                     entropy_per_block=entropy_budget)
    print(f"characterized ranges: {managed.ranges} "
          f"({managed.characterization_passes} offline pass)")

    controller = TemperatureController(module)
    for target in (50.0, 65.0, 85.0):
        controller.set_target(target)
        controller.settle()
        bits = managed.random_bits(8192)
        entry = managed.active_entry()
        print(f"  at {module.temperature_c:5.1f} C: range "
              f"[{entry.low_c}, {entry.high_c}) -> SIBs "
              f"{managed.sib_per_bank}, output bias {bits.mean():.3f}")
    print(f"offline passes after the excursion: "
          f"{managed.characterization_passes} (still one: every "
          f"temperature stayed inside the characterized envelope)")

    # --- 2. health tests catching a dead segment -----------------------
    monitor = HealthMonitor(claimed_min_entropy=0.01,
                            consecutive_failures_to_alarm=2)
    system = SystemTrng([module], entropy_per_block=entropy_budget,
                        monitors=[monitor])
    healthy = system.random_bits(16384)
    print(f"\nhealthy source: {healthy.size} bits served, "
          f"RCT failures {monitor.rct_failures}, "
          f"APT failures {monitor.apt_failures}")

    system.channels[0].data_pattern = "1111"   # sabotage: no entropy
    try:
        system.random_bits(16384)
        print("sabotaged source NOT caught (unexpected)")
    except HealthTestFailure as failure:
        print(f"sabotaged source caught: {failure}")

    # --- 3. min-entropy assessment of the conditioned output ----------
    stream = QuacTrng(module, entropy_per_block=entropy_budget
                      ).random_bits(200_000)
    report = assess(stream)
    print("\nSP 800-90B-style assessment of the conditioned stream:")
    for name, value in report.items():
        print(f"  {name:20s} {value:.3f} bits/bit")

    # --- 4. monitored parallel system surviving a channel failure ------
    modules = build_table3_population(geometry, names=["M13", "M4"])
    monitors = [HealthMonitor(claimed_min_entropy=0.01,
                              consecutive_failures_to_alarm=2)
                for _ in modules]
    with ThreadPoolBackend(4) as backend:
        system = SystemTrng(modules, entropy_per_block=entropy_budget,
                            backend=backend, monitors=monitors)
        bits = system.random_bits(2 * system.bits_per_system_iteration())
        print(f"\nmonitored 2-channel system on {backend!r}: "
              f"{bits.size} bits, bias {bits.mean():.3f}, "
              f"{sum(m.samples_checked for m in monitors)} raw samples "
              f"checked")
        system.channels[1].data_pattern = "1111"   # channel 1 dies
        try:
            system.random_bits(4 * system.bits_per_system_iteration())
        except HealthTestFailure as failure:
            print(f"channel 1 caught dead: {failure}")
            print(f"healthy channel's bits kept pooled: "
                  f"{system.pooled_bits} bits still serveable")

    # --- 5. async harvest, one round ahead (the README snippet) -------
    modules = build_table3_population(geometry, names=["M13", "M4"])
    with ThreadPoolBackend(4) as backend:
        sync_system = SystemTrng(modules, entropy_per_block=entropy_budget,
                                 backend=backend)
        system = SystemTrng(modules, entropy_per_block=entropy_budget,
                            backend=backend, async_harvest=True)
        matched = 0
        reference = sync_system.iter_bytes(4096)
        for i, chunk in enumerate(system.iter_bytes(4096)):
            matched += chunk == next(reference)   # bit-identical stream
            if i == 0:
                print(f"\nasync harvest on {backend!r}: "
                      f"{system.harvest_engine!r}")
            if i >= 7:
                break
        engine = system.harvest_engine
        print(f"streamed 8 x 4096-byte chunks, {matched}/8 identical to "
              f"the synchronous stream; {engine.rounds_planned} rounds "
              f"planned, {engine.pending_rounds} still in flight")
        engine.cancel_pending()   # hand the last round ahead back


if __name__ == "__main__":
    main()
