"""The library entry points the host-time tracer rebinds still exist.

``hostbench/layers.py`` times a run by rebinding public functions and
methods by name, and by assigning a wrapper over the ``result`` of each
round handle that ``submit_round`` returns.  A renamed entry point, or
a handle whose ``result`` cannot be assigned, breaks the traced
benchmark.  This test installs the tracer over each kind of backend and
draws through an asynchronous two-channel system, so the
suite notices such a break.
"""

from pathlib import Path

import pytest

from repro.core.multichannel import SystemTrng
from repro.core.parallel import SerialBackend, ThreadPoolBackend
from repro.core.remote import LocalCluster, RemoteBackend

HOSTBENCH = Path(__file__).resolve().parent.parent / "hostbench"


@pytest.fixture()
def hostbench(monkeypatch):
    monkeypatch.syspath_prepend(str(HOSTBENCH))
    import layers
    import tracing
    return layers, tracing


@pytest.mark.parametrize("make_backend", [
    SerialBackend,
    lambda: ThreadPoolBackend(2),
    lambda: RemoteBackend(cluster=LocalCluster(1)),
], ids=["serial", "thread", "remote"])
def test_tracer_installs_and_counts_every_round(
        hostbench, make_backend, module_m13, module_m4, entropy_scale):
    layers, tracing = hostbench
    backend = make_backend()
    system = SystemTrng([module_m13, module_m4],
                        entropy_per_block=256.0 * entropy_scale,
                        backend=backend, async_harvest=True)
    tracer = tracing.Tracer()
    patches = layers.install(tracer, backend)
    try:
        width = system.bits_per_system_iteration()
        for n_bits in (3 * width // 2, 2 * width):
            assert system.random_bits(n_bits).size == n_bits
        system.harvest_engine.cancel_pending()
    finally:
        patches.restore()
        backend.close()
    counts = tracer.counts
    assert counts["tasks"] > 0
    assert counts["tasks"] == counts["round_tasks"]
    if backend.name == "remote":
        assert counts["bytes_out"] > 0
