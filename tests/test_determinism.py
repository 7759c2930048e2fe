"""End-to-end golden streams: refactors must not move a single bit.

The simulator's reproducibility contract is that a fixed module seed
yields a fixed conditioned bitstream -- across runs, machines, execution
backends, and (most importantly) code refactors.  The equivalence suites
compare two *current* implementations against each other; these tests
pin the stream itself, so a change that rewires both sides consistently
(and would therefore slip past an equivalence test) still gets caught.

The stream constants were recorded at ``repro.rng.STREAM_EPOCH`` 3,
the counter-addressed PCG64 thermal streams read as exact lazy lanes
(one decision byte per bitline, a refinement lane per tie).
``tests/stream_spec.py`` computes them from the substrate alone
(``tests/test_stream_spec.py``), so the spec explains what these
hashes pin.  If a change legitimately needs to alter the stream (e.g.
a new thermal-stream layout), bump ``STREAM_EPOCH``, edit the spec,
regenerate the constants with::

    PYTHONPATH=src python tests/test_determinism.py

and say so loudly in the changelog -- downstream seeds stop reproducing.

The *substrate* constants (SA offsets and settling probabilities of
built modules) are a different matter: they predate the epoch scheme
and no thermal-stream change may move them, so they are never
regenerated.
"""

import hashlib
import socket

import numpy as np
import pytest

from repro.core.multichannel import SystemTrng
from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.trng import QuacTrng
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import (build_module,
                                       build_table3_population,
                                       spec_by_name)

GOLDEN_BITS = 4096

#: First 4096 conditioned bits of an M13 QuacTrng at the suite's
#: standard small geometry.
QUAC_SHA256 = \
    "f7b0eac80f91d1066d7e1a6de30200a6338b5b914db75d40f14ef0566504f2ff"
QUAC_PREFIX = \
    "0000000001101110001000111011110010111010110101110010110100010110"

#: First 4096 bits of a two-channel [M13, M4] SystemTrng.  The system
#: stream starts with unit 0 -- channel 0's iteration 0 -- and a draw
#: this small fits in it, so this stream intentionally equals the
#: QuacTrng golden, pinning the unit order's first step too.
SYSTEM_SHA256 = QUAC_SHA256

#: The system's *second* draw (three system iterations), which forces
#: both channels to contribute and therefore pins the unit order
#: (iteration-major, channel-minor: channel 0's iteration ``s``, then
#: channel 1's) and channel 1's stream.  It opens with the surplus of
#: unit 0, so its prefix is still channel 0's.
SYSTEM_SECOND_DRAW_SHA256 = \
    "2bfb94a3bd2d59a7fe059b67e9854a0f42cc403637e5b0d78156b9ad87ed8bc0"
SYSTEM_SECOND_DRAW_PREFIX = \
    "0000111010011101100001111001010101010110001100011000101000101100"

#: Substrate digests of M13 and M4 (see :func:`substrate_digest`),
#: unchanged since before the thermal streams moved to PCG64.
SUBSTRATE_SHA256 = {
    "M13": "31c7b159937f3bc3220827f57d0a813d08dab57a3ddd38208b1ba0ef8ef6dc6a",
    "M4": "f6162f91f74fa3efad7637af6d9b9b6494e6187525776f6c627b25c865bec9a0",
}

#: Backends the goldens are replayed on (bit-identical by contract).
#: The remote entries -- one-host and three-host localhost clusters --
#: pin the sharded multi-host contract: the merged stream must equal
#: the serial reference whatever the host count.  The requeue legs
#: (the ``r`` suffix) put an address nobody listens on ahead of the
#: same clusters, so each test's first round loses its lead shard and
#: re-shards it over the live hosts.
BACKEND_IDS = ["serial", "thread", "process", "remote1", "remote3",
               "remote1r", "remote3r"]


def _refused_address():
    """A localhost address with no listener (connections refused)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()


@pytest.fixture(scope="module", params=BACKEND_IDS)
def shared_backend(request):
    """One shared backend per id (remote clusters spawn once, not per
    test) -- safe to share because every test builds fresh
    generators."""
    if request.param == "serial":
        yield SerialBackend()
        return
    if request.param == "thread":
        backend = ThreadPoolBackend(2)
    elif request.param == "process":
        backend = ProcessPoolBackend(2)
    elif request.param.endswith("r"):
        with LocalCluster(int(request.param[6])) as cluster:
            with RemoteBackend(addresses=[_refused_address()]
                               + cluster.addresses) as backend:
                yield backend
        return
    else:
        backend = RemoteBackend(
            cluster=LocalCluster(int(request.param[6])))
    with backend:
        yield backend


@pytest.fixture()
def golden_backend(shared_backend):
    """The shared backend; a requeue leg's links are dropped first, so
    this test's first round retries the refused address."""
    requeue = isinstance(shared_backend, RemoteBackend) and \
        shared_backend._cluster is None
    if requeue:
        shared_backend.close()
    yield shared_backend
    if requeue:
        assert shared_backend._links[0].dead


def _geometry():
    return DramGeometry.small(segments_per_bank=64, cache_blocks_per_row=8)


def _entropy_per_block(geometry):
    return 256.0 * geometry.row_bits / 65536


def _digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()


def _prefix(bits: np.ndarray, n: int = 64) -> str:
    return "".join(str(int(b)) for b in bits[:n])


#: Harvest modes the goldens are replayed under.  The asynchronous
#: double-buffered engine (``async_harvest=True``) must reproduce the
#: synchronous stream bit for bit -- same constants, no new goldens.
HARVEST_MODES = [False, True]
HARVEST_IDS = ["sync", "async"]


def quac_stream(backend, async_harvest=False) -> np.ndarray:
    geometry = _geometry()
    module = build_module(spec_by_name("M13"), geometry)
    trng = QuacTrng(module, entropy_per_block=_entropy_per_block(geometry),
                    backend=backend, async_harvest=async_harvest)
    return trng.random_bits(GOLDEN_BITS)


def system_streams(backend, async_harvest=False):
    geometry = _geometry()
    modules = build_table3_population(geometry, names=["M13", "M4"])
    system = SystemTrng(modules,
                        entropy_per_block=_entropy_per_block(geometry),
                        backend=backend, async_harvest=async_harvest)
    first = system.random_bits(GOLDEN_BITS)
    second = system.random_bits(3 * system.bits_per_system_iteration())
    return first, second


@pytest.mark.parametrize("async_harvest", HARVEST_MODES, ids=HARVEST_IDS)
def test_quac_golden_stream(golden_backend, async_harvest):
    stream = quac_stream(golden_backend, async_harvest)
    assert _prefix(stream) == QUAC_PREFIX
    assert _digest(stream) == QUAC_SHA256


@pytest.mark.parametrize("async_harvest", HARVEST_MODES, ids=HARVEST_IDS)
def test_system_golden_streams(golden_backend, async_harvest):
    first, second = system_streams(golden_backend, async_harvest)
    assert _digest(first) == SYSTEM_SHA256
    assert _prefix(second) == SYSTEM_SECOND_DRAW_PREFIX
    assert _digest(second) == SYSTEM_SECOND_DRAW_SHA256


def substrate_digest(module) -> str:
    """SHA-256 over a module's SA offsets and ``"0111"`` settling
    probabilities (little-endian float64) for bank 0 of every bank
    group, segments 0, 7 and 63."""
    digest = hashlib.sha256()
    for bank_group in range(module.geometry.bank_groups):
        for segment in (0, 7, 63):
            offsets = module.variation.bitline_offsets_z(bank_group, 0,
                                                         segment)
            address = module.geometry.segment_address(bank_group, 0,
                                                      segment)
            p = module.segment_probabilities(address, "0111")
            for values in (offsets, p):
                digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SUBSTRATE_SHA256))
def test_substrate_draws_unchanged(name):
    module = build_module(spec_by_name(name), _geometry())
    assert substrate_digest(module) == SUBSTRATE_SHA256[name]


def main() -> None:
    """Regenerate the golden constants (paste the output above)."""
    stream = quac_stream(SerialBackend())
    print(f'QUAC_SHA256 = "{_digest(stream)}"')
    print(f'QUAC_PREFIX = "{_prefix(stream)}"')
    first, second = system_streams(SerialBackend())
    print(f'SYSTEM_SHA256 = "{_digest(first)}"')
    print(f'SYSTEM_SECOND_DRAW_SHA256 = "{_digest(second)}"')
    print(f'SYSTEM_SECOND_DRAW_PREFIX = "{_prefix(second)}"')


if __name__ == "__main__":
    main()
