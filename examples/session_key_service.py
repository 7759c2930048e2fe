"""Cryptographic key service: latency-hiding with the controller buffer.

The paper's Section 9 integration: the memory controller refills a small
random-number FIFO during idle DRAM cycles so application requests for
keys are served immediately.  This example stands up that service and
drives it with a bursty "TLS handshake" workload -- each handshake needs
a 256-bit session key, a 128-bit IV and a 256-bit ECDHE scalar -- then
reports how the buffer hid the ~2 us iteration latency.

Run:  python examples/session_key_service.py
"""

from repro.controller.memory_controller import MemoryController
from repro.core.trng import QuacTrng
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import build_module, spec_by_name

#: Bits consumed by one TLS-style handshake.
HANDSHAKE_BITS = 256 + 128 + 256


def main() -> None:
    geometry = DramGeometry.small(segments_per_bank=128,
                                  cache_blocks_per_row=16)
    module = build_module(spec_by_name("M4"), geometry)
    trng = QuacTrng(module,
                    entropy_per_block=256.0 * geometry.row_bits / 65536)

    controller = MemoryController(module, buffer_capacity_bits=64 * 1024)

    def source():
        # One iteration's bits per call, at its scheduled latency.
        return (trng.random_bits(trng.bits_per_iteration),
                trng.iteration_latency_ns)

    # Background refill: the controller tops the FIFO up during an idle
    # window (here: a generous 1 ms of idle channel time).
    deposited = controller.refill(source, budget_ns=1_000_000.0)
    print(f"prefilled {deposited} bits in "
          f"{controller.trng_time_ns / 1e3:.1f} us of channel time")

    # Serve a burst of handshakes.
    served = 0
    for handshake in range(32):
        key_material = controller.random_bits(HANDSHAKE_BITS, source)
        served += key_material.size
        if handshake < 3:
            key = key_material[:256]
            print(f"handshake {handshake}: session key "
                  f"{''.join(map(str, key[:32].tolist()))}... "
                  f"({key.size} bits)")

    print(f"\nserved {served} bits across 32 handshakes")
    print(f"buffer occupancy now: {controller.buffer.occupancy} bits")
    print(f"buffer lifetime: filled {controller.buffer.total_filled}, "
          f"served {controller.buffer.total_served}, "
          f"underflows {controller.buffer.underflow_requests}")
    print(f"total TRNG channel time: "
          f"{controller.trng_time_ns / 1e3:.1f} us "
          f"({trng.throughput_gbps():.2f} Gb/s while generating)")


if __name__ == "__main__":
    main()
