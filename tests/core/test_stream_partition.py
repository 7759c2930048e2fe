"""Counter-addressed thermal streams: partitions never change the bits.

Iteration ``k`` of a segment's thermal-noise stream is a pure function
of (module seed, bank, segment, ``k``), so a single-channel generator's
output must not depend on how its iterations are grouped into batches
or how its bits are split into requests -- on any backend, synchronous
or asynchronous, with or without readahead.  The reference is the
per-iteration path on the serial backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.trng import QuacTrng

#: Iterations of the reference stream; covers the largest example.
REFERENCE_ITERATIONS = 24


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
def make_trng(module_m13, entropy_scale):
    def build(backend=None, async_harvest=False):
        return QuacTrng(module_m13, entropy_per_block=256.0 * entropy_scale,
                        backend=backend or SerialBackend(),
                        async_harvest=async_harvest)
    return build


@pytest.fixture(scope="module")
def reference(make_trng):
    """``(REFERENCE_ITERATIONS, bits_per_iteration)`` iteration rows."""
    trng = make_trng()
    return np.vstack([trng.iteration()[0]
                      for _ in range(REFERENCE_ITERATIONS)])


@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4))
@settings(max_examples=12, deadline=None)
def test_any_batch_partition_yields_the_same_iterations(
        backend, make_trng, reference, sizes):
    trng = make_trng(backend)
    rows = np.vstack([trng.batch_iterations(n)[0] for n in sizes])
    np.testing.assert_array_equal(rows, reference[:sum(sizes)])
    assert trng.cursors() == [sum(sizes)] * len(trng.cursors())


@given(fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       async_harvest=st.booleans(), readahead=st.booleans())
@settings(max_examples=12, deadline=None)
def test_any_request_split_yields_the_same_bits(
        backend, make_trng, reference, fractions, async_harvest,
        readahead):
    trng = make_trng(backend, async_harvest)
    width = trng.bits_per_iteration
    requests = [max(1, int(f * width)) for f in fractions]
    if async_harvest:
        trng.harvest_engine.readahead = readahead
    try:
        served = np.concatenate([trng.random_bits(n) for n in requests])
    finally:
        if async_harvest:
            trng.harvest_engine.cancel_pending()
    np.testing.assert_array_equal(served,
                                  reference.ravel()[:sum(requests)])
