"""Counter-addressed thermal streams: partitions never change the bits.

Iteration ``k`` of a segment's thermal-noise stream is a pure function
of (module seed, bank, segment, ``k``), so a single-channel generator's
output must not depend on how its iterations are grouped into batches
or how its bits are split into requests -- on any backend, synchronous
or asynchronous, with or without readahead.  The reference is the
per-iteration path on the serial backend.

Every single-channel generator fills through the same harvest engine,
so the contract covers the plain :class:`QuacTrng`, the health-
monitored wrapper (whose monitor must also count exactly what the
per-iteration path counts) and the temperature-managed wrapper at a
steady sensor reading.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.health import HealthMonitor, MonitoredTrng
from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng

#: Iterations of the reference stream; covers the largest example,
#: including rounds a readahead guess gathers beyond the requests.
REFERENCE_ITERATIONS = 48

#: The single-channel generators under test.
KINDS = ("quac", "monitored", "temperature")


@pytest.fixture(scope="module", params=["serial", "thread", "process",
                                        "remote1"])
def backend(request):
    if request.param == "serial":
        yield SerialBackend()
        return
    if request.param == "thread":
        pool = ThreadPoolBackend(2)
    elif request.param == "process":
        pool = ProcessPoolBackend(2)
    else:
        pool = RemoteBackend(cluster=LocalCluster(1))
    with pool:
        yield pool


@pytest.fixture(scope="module")
def make_generator(module_m13, entropy_scale):
    def build(kind, backend=None, async_harvest=False):
        backend = backend or SerialBackend()
        entropy_per_block = 256.0 * entropy_scale
        if kind == "temperature":
            return TemperatureManagedTrng(
                module_m13, entropy_per_block=entropy_per_block,
                backend=backend, async_harvest=async_harvest)
        trng = QuacTrng(module_m13, entropy_per_block=entropy_per_block,
                        backend=backend, async_harvest=async_harvest)
        if kind == "monitored":
            return MonitoredTrng(trng,
                                 HealthMonitor(claimed_min_entropy=0.01),
                                 async_harvest=async_harvest)
        return trng
    return build


def _counters(monitor):
    return (monitor.samples_checked, monitor.rct_failures,
            monitor.apt_failures, monitor._consecutive)


def _cursors(generator):
    if isinstance(generator, MonitoredTrng):
        return generator.trng.cursors()
    if isinstance(generator, TemperatureManagedTrng):
        return generator.active_entry().trng.cursors()
    return generator.cursors()


@pytest.fixture(scope="module")
def reference(make_generator):
    """Per kind: ``(REFERENCE_ITERATIONS, bits_per_iteration)``
    iteration rows, and (monitored only) the monitor's counters after
    each iteration."""
    streams = {}
    for kind in KINDS:
        generator = make_generator(kind)
        rows, counters = [], []
        for _ in range(REFERENCE_ITERATIONS):
            rows.append(generator.iteration()[0])
            if kind == "monitored":
                counters.append(_counters(generator.monitor))
        streams[kind] = (np.vstack(rows), counters)
    return streams


def _check_monitor(generator, counters):
    """The monitor counted exactly the per-iteration path's rows."""
    monitor = generator.monitor
    raw_bits = (generator.trng.configuration.n_banks
                * generator.trng.module.geometry.row_bits)
    checked = monitor.samples_checked // raw_bits
    assert checked >= 1
    assert _counters(monitor) == counters[checked - 1]


@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       kind=st.sampled_from(KINDS))
@settings(max_examples=12, deadline=None)
def test_any_batch_partition_yields_the_same_iterations(
        backend, make_generator, reference, sizes, kind):
    generator = make_generator(kind, backend)
    rows = np.vstack([generator.batch_iterations(n)[0] for n in sizes])
    want, counters = reference[kind]
    np.testing.assert_array_equal(rows, want[:sum(sizes)])
    cursors = _cursors(generator)
    assert cursors == [sum(sizes)] * len(cursors)
    if kind == "monitored":
        _check_monitor(generator, counters)


@given(fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       async_harvest=st.booleans(), readahead=st.booleans(),
       kind=st.sampled_from(KINDS))
@settings(max_examples=12, deadline=None)
def test_any_request_split_yields_the_same_bits(
        backend, make_generator, reference, fractions, async_harvest,
        readahead, kind):
    generator = make_generator(kind, backend, async_harvest)
    width = reference[kind][0].shape[1]
    requests = [max(1, int(f * width)) for f in fractions]
    generator.harvest_engine.readahead = readahead
    try:
        served = np.concatenate([generator.random_bits(n)
                                 for n in requests])
    finally:
        generator.harvest_engine.cancel_pending()
    want, counters = reference[kind]
    np.testing.assert_array_equal(served, want.ravel()[:sum(requests)])
    if kind == "monitored":
        _check_monitor(generator, counters)
