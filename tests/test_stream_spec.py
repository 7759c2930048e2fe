"""Every generator serves the bytes of the executable stream spec.

``tests/stream_spec.py`` computes a generator's stream from its
substrate alone (keys, settling probabilities, block slices, channel
order) with PCG64 and ``hashlib``.  The property below drives the real
generators -- plain, multi-channel, health-monitored while healthy, and
temperature-managed at a steady reading -- on every backend, through
random sequences of bit and byte requests, direct engine fills and
cancels, synchronous or asynchronous, with or without readahead, and
asserts that what they serve is the spec's FIFO prefix.  The spec also
reproduces the golden streams of ``tests/test_determinism.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_spec
import test_determinism as golden
from repro.core.health import HealthMonitor, MonitoredTrng
from repro.core.multichannel import SystemTrng
from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_module, spec_by_name
from repro.rng import STREAM_EPOCH

KINDS = ("quac", "system", "monitored", "monitored_system", "temperature")

#: What a step of a consumer does with the generator.
VERBS = ("bits", "bytes", "fill", "cancel")


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
def make_generator(module_m13, module_m4, entropy_scale):
    entropy_per_block = 256.0 * entropy_scale

    def build(kind, backend, async_harvest=False):
        if kind == "temperature":
            return TemperatureManagedTrng(
                module_m13, entropy_per_block=entropy_per_block,
                backend=backend, async_harvest=async_harvest)
        if kind.endswith("system"):
            monitors = None
            if kind == "monitored_system":
                monitors = [HealthMonitor(claimed_min_entropy=0.01)
                            for _ in range(2)]
            return SystemTrng([module_m13, module_m4],
                              entropy_per_block=entropy_per_block,
                              backend=backend, monitors=monitors,
                              async_harvest=async_harvest)
        trng = QuacTrng(module_m13, entropy_per_block=entropy_per_block,
                        backend=backend, async_harvest=async_harvest)
        if kind == "monitored":
            return MonitoredTrng(trng,
                                 HealthMonitor(claimed_min_entropy=0.01),
                                 async_harvest=async_harvest)
        return trng
    return build


@pytest.fixture(scope="module")
def specs(make_generator):
    """One spec stream per kind, grown lazily and shared by examples."""
    return {kind: stream_spec.SpecStream(make_generator(kind,
                                                        SerialBackend()))
            for kind in KINDS}


def _cursors(generator):
    if isinstance(generator, MonitoredTrng):
        return generator.trng.cursors()
    return generator.channels[0].cursors()


@given(kind=st.sampled_from(KINDS),
       steps=st.lists(st.tuples(st.sampled_from(VERBS),
                                st.floats(0.0, 3.0)),
                      min_size=1, max_size=6),
       async_harvest=st.booleans(), readahead=st.booleans())
@settings(max_examples=20, deadline=None)
def test_every_generator_serves_the_spec_stream(
        backend, make_generator, specs, kind, steps, async_harvest,
        readahead):
    generator = make_generator(kind, backend, async_harvest)
    engine = generator.harvest_engine
    engine.readahead = readahead
    spec = specs[kind]
    width = spec.unit_bits()
    served = [np.zeros(0, dtype=np.uint8)]
    try:
        for verb, fraction in steps:
            n = max(1, int(fraction * width))
            if verb == "bits":
                served.append(generator.random_bits(n))
            elif verb == "bytes":
                served.append(np.unpackbits(np.frombuffer(
                    generator.random_bytes(-(-n // 8)), dtype=np.uint8)))
            elif verb == "fill":
                engine.fill(generator._pool, n)
            else:
                engine.cancel_pending()
    finally:
        engine.cancel_pending()
    served = np.concatenate(served)
    np.testing.assert_array_equal(served, spec.bits(served.size))
    if len(spec.channels) == 1 and not readahead and all(
            verb in ("bits", "bytes") for verb, _ in steps):
        # Each round claims just enough iterations for its deficit.
        cursors = _cursors(generator)
        assert cursors == [-(-served.size // width)] * len(cursors)


def test_the_spec_describes_this_stream_epoch():
    assert stream_spec.EPOCH == STREAM_EPOCH


def test_the_spec_reproduces_the_golden_streams(small_geometry,
                                                entropy_scale):
    entropy_per_block = 256.0 * entropy_scale
    quac = stream_spec.SpecStream(QuacTrng(
        build_module(spec_by_name("M13"), small_geometry),
        entropy_per_block=entropy_per_block))
    bits = quac.bits(golden.GOLDEN_BITS)
    assert golden._prefix(bits) == golden.QUAC_PREFIX
    assert golden._digest(bits) == golden.QUAC_SHA256

    system = SystemTrng([build_module(spec_by_name(name), small_geometry)
                         for name in ("M13", "M4")],
                        entropy_per_block=entropy_per_block)
    spec = stream_spec.SpecStream(system)
    second_bits = 3 * system.bits_per_system_iteration()
    stream = spec.bits(golden.GOLDEN_BITS + second_bits)
    first, second = stream[:golden.GOLDEN_BITS], stream[golden.GOLDEN_BITS:]
    assert golden._digest(first) == golden.SYSTEM_SHA256
    assert golden._prefix(second) == golden.SYSTEM_SECOND_DRAW_PREFIX
    assert golden._digest(second) == golden.SYSTEM_SECOND_DRAW_SHA256
