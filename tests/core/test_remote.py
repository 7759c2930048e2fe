"""The remote backend's wire layer and failure model.

Four concerns, bottom-up:

* **Frame codec** -- the length-prefixed frames must round-trip any
  payload (0 bytes through multi-hundred-KiB frames), survive TCP
  fragmentation, and fail loudly (``ConnectionClosed``, never a hang
  or a truncated read) when the peer disappears mid-frame;
* **Message schema** -- :class:`~repro.core.parallel.BankTask` rounds
  and :class:`~repro.core.parallel.BankResult` slots must survive
  encode -> frame -> decode field for field (hypothesis round trips
  included), and the decoder must turn every truncation, count
  mismatch, foreign header and out-of-range field into a
  :class:`~repro.errors.RemoteExecutionError` -- never ``struct.error``,
  ``IndexError``, ``ValueError`` or ``MemoryError``;
* **Replies and the stream-epoch guard** -- malformed or dying
  replies kill the link, a task failing on its worker lands on its own
  slot, and a worker at another stream epoch refuses every round
  instead of serving a different stream; nothing is ever unpickled;
* **Cluster + failure model** -- localhost workers spawn/stop/respawn,
  a killed worker's tasks requeue onto survivors, and only a fully
  dead cluster raises :class:`~repro.errors.RemoteExecutionError`.

The shard map's invariants (contiguity, completeness, balance) are
property-tested here too: they are what keeps channels/banks grouped
per host without ever influencing the merged stream.
"""

import inspect
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import remote as remote_package
from repro.core.parallel import (BankResult, BankTask, SerialBackend,
                                 _pack_matrix, _unpack_matrix,
                                 run_bank_task)
from repro.core.remote import (LocalCluster, RemoteBackend, shard_map,
                               wire, worker)
from repro.core.remote.worker import run_round_shard
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_module, spec_by_name
from repro.errors import ConfigurationError, RemoteExecutionError
from repro.rng import STREAM_EPOCH, derive_key

#: Payload sizes the codec is fuzzed at: the empty frame, sub-header
#: sizes, exact powers of two around typical buffers, and frames well
#: past 64 KiB (a full-scale packed round is megabytes).
FRAME_SIZES = [0, 1, 7, 8, 9, 1024, 65535, 65536, 65537, 300_000]


def _task(index, iterations=2, bits=256, fail=False, **fields):
    """A small bank task; ``fail`` gives it an odd row width, which
    ``run_bank_task`` rejects with a ``ConfigurationError``."""
    width = bits + 1 if fail else bits
    return BankTask(**{
        "thermal_key": derive_key(2021, "remote-test", index),
        "probabilities": np.linspace(0.1, 0.9, width),
        "iterations": iterations,
        "block_slices": ((0, bits // 2), (bits // 2, bits)),
        "entropy_per_block": 8.0, "first_iteration": index, **fields})


def _tasks(n, **kwargs):
    return [_task(index, **kwargs) for index in range(n)]


def _bits(results):
    """Comparable form of a result list (``BankResult`` has no ==)."""
    return [(r.digests, r.raw, r.iterations, r.digest_bits, r.raw_bits)
            for r in results]


def _expected(tasks):
    return _bits(run_bank_task(task) for task in tasks)


def _task_fields(task):
    return (tuple(task.thermal_key), task.probabilities.tobytes(),
            task.iterations, tuple(map(tuple, task.block_slices)),
            task.entropy_per_block, task.collect_raw,
            task.first_iteration)


@pytest.fixture()
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _send_in_thread(sock, message):
    sender = threading.Thread(target=wire.send_frame, args=(sock, message))
    sender.start()
    return sender


class TestFrameCodec:
    @pytest.mark.parametrize("size", FRAME_SIZES)
    def test_raw_frame_round_trip(self, sock_pair, size):
        left, right = sock_pair
        rng = np.random.default_rng(size)
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        sender = threading.Thread(target=wire.send_raw_frame,
                                  args=(left, payload))
        sender.start()
        received = wire.recv_raw_frame(right)
        sender.join()
        assert received == payload

    def test_many_frames_share_one_connection_in_order(self, sock_pair):
        left, right = sock_pair
        rng = np.random.default_rng(20210625)
        payloads = [rng.integers(0, 256, int(n), dtype=np.uint8).tobytes()
                    for n in rng.integers(0, 5000, 40)]

        def send_all():
            for payload in payloads:
                wire.send_raw_frame(left, payload)

        sender = threading.Thread(target=send_all)
        sender.start()
        received = [wire.recv_raw_frame(right) for _ in payloads]
        sender.join()
        assert received == payloads

    def test_recv_reassembles_fragmented_frames(self, sock_pair):
        # TCP may deliver a frame in arbitrarily small pieces; drip a
        # frame through in 3-byte chunks and expect a clean read.
        left, right = sock_pair
        frame = wire.pack_frame(b"fragmentation test payload")

        def drip():
            for start in range(0, len(frame), 3):
                left.sendall(frame[start:start + 3])
                time.sleep(0.001)

        sender = threading.Thread(target=drip)
        sender.start()
        assert wire.recv_raw_frame(right) == b"fragmentation test payload"
        sender.join()

    def test_peer_vanishing_mid_frame_raises(self, sock_pair):
        left, right = sock_pair
        header_plus_partial = wire.HEADER.pack(1000) + b"only this"
        left.sendall(header_plus_partial)
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_raw_frame(right)

    def test_peer_vanishing_before_header_raises(self, sock_pair):
        left, right = sock_pair
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_raw_frame(right)

    def test_absurd_header_rejected_without_allocating(self, sock_pair):
        left, right = sock_pair
        left.sendall(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(RemoteExecutionError):
            wire.recv_raw_frame(right)

    def test_message_round_trip(self, sock_pair):
        left, right = sock_pair
        for message, body in [((wire.PING,), None),
                              ((wire.ERROR, "no such round ✗"),
                               "no such round ✗"),
                              ((wire.ROUND_RESULT, []), [])]:
            sender = _send_in_thread(left, message)
            kind, payload = wire.recv_frame(right)
            sender.join()
            assert (kind, payload) == (message[0], body)

    def test_garbage_payload_raises_remote_error(self, sock_pair):
        left, right = sock_pair
        wire.send_raw_frame(left, b"\x80\x05 not a message")
        with pytest.raises(RemoteExecutionError):
            wire.recv_frame(right)


class TestPackedPayloadRoundTrip:
    """Packed results across encode + frame, randomized."""

    #: (iterations, digest_bits, raw_bits) shapes, from the 0-bit
    #: degenerate through a >64 KiB-frame round.
    SHAPES = [(1, 0, 0), (1, 1, 0), (1, 256, 512), (3, 333, 0),
              (37, 512, 1024), (200, 4096, 0), (64, 2048, 16384)]

    @pytest.mark.parametrize("iterations,digest_bits,raw_bits", SHAPES)
    def test_round_trip_is_bit_exact(self, sock_pair, iterations,
                                     digest_bits, raw_bits):
        left, right = sock_pair
        rng = np.random.default_rng(iterations * 7919 + digest_bits)
        digests = rng.integers(0, 2, (iterations, digest_bits),
                               dtype=np.uint8)
        raw = rng.integers(0, 2, (iterations, raw_bits),
                           dtype=np.uint8) if raw_bits else None
        result = BankResult(
            digests=_pack_matrix(digests),
            raw=_pack_matrix(raw) if raw is not None else None,
            iterations=iterations, digest_bits=digest_bits,
            raw_bits=raw_bits)

        sender = _send_in_thread(left, (wire.ROUND_RESULT, [result]))
        kind, (shipped,) = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND_RESULT
        np.testing.assert_array_equal(shipped.digest_matrix(), digests)
        if raw is None:
            assert shipped.raw_matrix() is None
        else:
            np.testing.assert_array_equal(shipped.raw_matrix(), raw)

    def test_pack_unpack_inverse_on_random_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            columns = int(rng.integers(0, 700))
            matrix = rng.integers(0, 2, (rows, columns), dtype=np.uint8)
            packed = _pack_matrix(matrix)
            assert len(packed) == -(-rows * columns // 8)
            np.testing.assert_array_equal(
                _unpack_matrix(packed, rows, columns), matrix)

    def test_packed_frame_is_an_eighth_of_unpacked(self):
        bits = np.ones((64, 4096), dtype=np.uint8)
        payload = wire.encode(wire.ROUND_RESULT, [BankResult(
            digests=_pack_matrix(bits), raw=None, iterations=64,
            digest_bits=4096)])
        assert len(payload) * 7 < bits.nbytes


class TestRoundFrames:
    """Round / multi-result frames through the same fuzz mill."""

    @pytest.mark.parametrize("n_tasks", [1, 2, 7, 40])
    def test_round_shard_frame_round_trip(self, sock_pair, n_tasks):
        left, right = sock_pair
        tasks = [_task(index, iterations=index + 1,
                       bits=64 * (index % 4 + 1), collect_raw=bool(index % 2))
                 for index in range(n_tasks)]
        sender = _send_in_thread(left, (wire.ROUND, tasks))
        kind, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND
        assert [_task_fields(t) for t in shipped] == \
            [_task_fields(t) for t in tasks]

    def test_oversized_shard_round_trips_in_one_frame(self, sock_pair):
        # Hundreds of tasks, megabytes of probabilities, far past any
        # single-task frame -- still ONE frame, intact.
        left, right = sock_pair
        tasks = _tasks(300, bits=2048)
        sender = _send_in_thread(left, (wire.ROUND, tasks))
        payload = wire.recv_raw_frame(right)
        sender.join()
        assert len(payload) > 300 * 2048 * 8
        kind, shipped = wire.decode(payload)
        assert kind == wire.ROUND
        assert [_task_fields(t) for t in shipped] == \
            [_task_fields(t) for t in tasks]

    def test_multi_result_frame_round_trip(self, sock_pair):
        # A packed multi-bank result frame: one frame, many
        # BankResults, bit-exact after encoding + framing.
        left, right = sock_pair
        rng = np.random.default_rng(99)
        matrices = [rng.integers(0, 2, (4, 512), dtype=np.uint8)
                    for _ in range(6)]
        slots = [BankResult(digests=_pack_matrix(matrix), raw=None,
                            iterations=4, digest_bits=512)
                 for matrix in matrices]
        sender = _send_in_thread(left, (wire.ROUND_RESULT, slots))
        kind, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND_RESULT
        assert len(shipped) == len(matrices)
        for result, matrix in zip(shipped, matrices):
            np.testing.assert_array_equal(result.digest_matrix(), matrix)

    def test_fragmented_round_frame_reassembles(self, sock_pair):
        left, right = sock_pair
        tasks = _tasks(2, bits=64)
        frame = wire.pack_frame(wire.encode(wire.ROUND, tasks))

        def drip():
            for start in range(0, len(frame), 5):
                left.sendall(frame[start:start + 5])
                time.sleep(0.001)

        sender = threading.Thread(target=drip)
        sender.start()
        kind, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND
        assert [_task_fields(t) for t in shipped] == \
            [_task_fields(t) for t in tasks]

    def test_truncated_round_frame_raises(self, sock_pair):
        left, right = sock_pair
        frame = wire.pack_frame(wire.encode(wire.ROUND, _tasks(3)))
        left.sendall(frame[:len(frame) // 2])
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_frame(right)

    def test_run_round_shard_executes_in_order(self):
        tasks = _tasks(3)
        assert _bits(run_round_shard(tasks)) == _expected(tasks)

    def test_run_round_shard_isolates_task_failures(self):
        # One task raising must not abort the shard: its slot carries
        # the error, the later tasks still ran.
        tasks = [_task(0), _task(1, fail=True), _task(2)]
        slots = run_round_shard(tasks)
        assert isinstance(slots[1], wire.TaskError)
        assert slots[1].type_name == "ConfigurationError"
        assert "even row width" in slots[1].message
        assert _bits([slots[0], slots[2]]) == \
            _expected([tasks[0], tasks[2]])

    def test_valid_round_slots_rejects_malformed_bodies(self):
        # The decoder holds every round_result body to its schema:
        # slot tags, the raw-present flag, byte counts, trailing bytes.
        good = [BankResult(digests=b"\x01\x02", raw=None, iterations=2,
                           digest_bits=8),
                wire.TaskError("ValueError", "x")]
        payload = wire.encode(wire.ROUND_RESULT, good)
        kind, slots = wire.decode(payload)
        assert kind == wire.ROUND_RESULT and slots[1] == good[1]
        head = wire.MESSAGE_HEADER.size
        first_slot = head + 4
        mutations = [
            _patched(payload, head, struct.pack(">I", 3)),       # count
            _patched(payload, head, struct.pack(">I", 2 ** 32 - 1)),
            _patched(payload, first_slot, b"\x07"),              # tag
            _patched(payload, first_slot + 1 + 12, b"\x02"),     # raw flag
            _patched(payload, first_slot + 1,                    # counts
                     struct.pack(">I", 2 ** 32 - 1)),
            payload + b"\x00",                                   # trailing
        ]
        for bad in mutations:
            with pytest.raises(RemoteExecutionError):
                wire.decode(bad)


def _patched(payload, offset, replacement):
    """``payload`` with ``replacement`` written at ``offset``."""
    return payload[:offset] + replacement + \
        payload[offset + len(replacement):]


# ----------------------------------------------------------------------
# Decoder fuzz
# ----------------------------------------------------------------------

_u32 = st.integers(0, 2 ** 32 - 1)


@st.composite
def _bank_tasks(draw):
    bits = draw(st.integers(0, 48))
    probabilities = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=bits, max_size=bits)),
        dtype=np.float64)
    slices = []
    if bits:
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, bits - 1))
            slices.append((start, draw(st.integers(start + 1, bits))))
    return BankTask(
        thermal_key=tuple(draw(st.lists(_u32, max_size=9))),
        probabilities=probabilities,
        iterations=draw(_u32),
        block_slices=tuple(slices),
        entropy_per_block=draw(st.floats(allow_nan=False,
                                         allow_infinity=False)),
        collect_raw=draw(st.booleans()),
        first_iteration=draw(st.integers(0, 2 ** 64 - 1)))


@st.composite
def _slots(draw):
    if draw(st.booleans()):
        return wire.TaskError(draw(st.text(max_size=20)),
                              draw(st.text(max_size=80)))
    iterations = draw(st.integers(0, 40))
    digest_bits = draw(st.integers(0, 300))
    raw_bits = draw(st.integers(0, 300))
    collected = draw(st.booleans())

    def packed(columns):
        return draw(st.binary(min_size=(iterations * columns + 7) // 8,
                              max_size=(iterations * columns + 7) // 8))

    return BankResult(digests=packed(digest_bits),
                      raw=packed(raw_bits) if collected else None,
                      iterations=iterations, digest_bits=digest_bits,
                      raw_bits=raw_bits)


def _slot_fields(slot):
    if isinstance(slot, wire.TaskError):
        return slot
    return _bits([slot])[0]


def _valid_payloads():
    """A valid payload of every message kind."""
    tasks = [_task(0, bits=64), _task(1, bits=32, collect_raw=True)]
    return [wire.encode(wire.ROUND, tasks),
            wire.encode(wire.ROUND_RESULT,
                        run_round_shard(tasks) + [wire.TaskError("E", "m")]),
            wire.encode(wire.ERROR, "refused"),
            wire.encode(wire.PING), wire.encode(wire.PONG)]


def _decode_or_reject(payload):
    """Decode, letting only RemoteExecutionError through as a verdict."""
    try:
        return wire.decode(payload)
    except RemoteExecutionError:
        return None


class TestDecoderFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_bank_tasks(), max_size=4))
    def test_round_trip_of_random_tasks(self, tasks):
        kind, shipped = wire.decode(wire.encode(wire.ROUND, tasks))
        assert kind == wire.ROUND
        assert [_task_fields(t) for t in shipped] == \
            [_task_fields(t) for t in tasks]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_slots(), max_size=4))
    def test_round_trip_of_random_results(self, slots):
        kind, shipped = wire.decode(wire.encode(wire.ROUND_RESULT, slots))
        assert kind == wire.ROUND_RESULT
        assert [_slot_fields(s) for s in shipped] == \
            [_slot_fields(s) for s in slots]

    def test_every_truncation_raises_remote_error(self):
        for payload in _valid_payloads():
            for cut in range(len(payload)):
                with pytest.raises(RemoteExecutionError):
                    wire.decode(payload[:cut])

    def test_trailing_garbage_raises_remote_error(self):
        for payload in _valid_payloads():
            with pytest.raises(RemoteExecutionError, match="trailing"):
                wire.decode(payload + b"\x00\x01")

    @pytest.mark.parametrize("field,value", [
        (0, b"PKL\x80"), (1, wire.SCHEMA_VERSION + 1),
        (2, STREAM_EPOCH + 1), (3, 99)])
    def test_foreign_header_raises_remote_error(self, field, value):
        header = [wire.MAGIC, wire.SCHEMA_VERSION, STREAM_EPOCH, wire.PING]
        header[field] = value
        with pytest.raises(RemoteExecutionError):
            wire.decode(wire.MESSAGE_HEADER.pack(*header))

    @pytest.mark.parametrize("field,value", [
        (0, 2 ** 16 - 1), (1, 2 ** 32 - 1), (2, 2 ** 32 - 1)])
    def test_oversized_task_counts_raise_remote_error(self, field, value):
        # Key words, probabilities, block slices: each count is checked
        # against the bytes present before anything is allocated.
        payload = wire.encode(wire.ROUND, [_task(0, bits=16)])
        offset = wire.MESSAGE_HEADER.size + 4
        fields = list(wire._TASK.unpack_from(payload, offset))
        fields[field] = value
        bad = _patched(payload, offset, wire._TASK.pack(*fields))
        with pytest.raises(RemoteExecutionError):
            wire.decode(bad)

    def test_oversized_result_counts_raise_remote_error(self):
        payload = wire.encode(wire.ROUND_RESULT, [BankResult(
            digests=b"\x00", raw=b"\x00", iterations=1, digest_bits=8,
            raw_bits=8)])
        offset = wire.MESSAGE_HEADER.size + 4 + 1
        for fields in [(2 ** 32 - 1, 2 ** 32 - 1, 8, 1),
                       (1, 8, 2 ** 32 - 1, 1)]:
            with pytest.raises(RemoteExecutionError):
                wire.decode(_patched(payload, offset,
                                     wire._RESULT.pack(*fields)))

    @pytest.mark.parametrize("block_slices", [
        ((0, 17),), ((5, 5),), ((9, 3),), ((0, 8), (8, 2 ** 32 - 1))])
    def test_block_slices_outside_probabilities_raise(self, block_slices):
        payload = wire.encode(wire.ROUND, [_task(
            0, bits=16, block_slices=block_slices)])
        with pytest.raises(RemoteExecutionError, match="block slices"):
            wire.decode(payload)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_bad_probabilities_raise(self, bad):
        probabilities = np.full(16, 0.5)
        probabilities[7] = bad
        payload = wire.encode(wire.ROUND, [_task(
            0, bits=16, probabilities=probabilities)])
        with pytest.raises(RemoteExecutionError, match="probabilities"):
            wire.decode(payload)

    def test_non_finite_entropy_and_unknown_flags_raise(self):
        with pytest.raises(RemoteExecutionError, match="entropy"):
            wire.decode(wire.encode(wire.ROUND, [_task(
                0, entropy_per_block=float("nan"))]))
        payload = wire.encode(wire.ROUND, [_task(0)])
        flags_at = wire.MESSAGE_HEADER.size + 4 + wire._TASK.size - 1
        with pytest.raises(RemoteExecutionError, match="flags"):
            wire.decode(_patched(payload, flags_at, b"\x04"))

    def test_schema_1_builtin_sha_bit_is_an_unknown_flag(self):
        # Bit 0 chose the from-scratch SHA-256 up to schema 1; the
        # schema no longer has it, so a task carrying it is refused.
        payload = wire.encode(wire.ROUND, [_task(0, collect_raw=True)])
        flags_at = wire.MESSAGE_HEADER.size + 4 + wire._TASK.size - 1
        assert payload[flags_at] == 2
        with pytest.raises(RemoteExecutionError, match="flags 0x3"):
            wire.decode(_patched(payload, flags_at, b"\x03"))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_corruption_raises_only_remote_error(self, data):
        payloads = _valid_payloads()
        payload = bytearray(data.draw(st.sampled_from(payloads)))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(payload) - 1))
            payload[at] = data.draw(st.integers(0, 255))
        _decode_or_reject(bytes(payload))

    def test_unencodable_task_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            wire.encode(wire.ROUND, [_task(0, thermal_key=(2 ** 32,))])
        with pytest.raises(ConfigurationError):
            wire.encode(wire.ROUND, [_task(0, iterations=-1)])
        with pytest.raises(ConfigurationError):
            wire.encode(wire.ROUND_RESULT, [BankResult(
                digests=b"\x00", raw=None, iterations=2, digest_bits=8)])


class TestNoPickle:
    def test_remote_package_never_names_pickle(self):
        for module in (remote_package, wire, worker):
            assert "pickle" not in inspect.getsource(module)

    def test_draw_through_threaded_serve_never_unpickles(
            self, small_geometry, entropy_scale, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pickle used on the remote path")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "Unpickler", refuse)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        stop = threading.Event()
        server = threading.Thread(target=worker.serve, args=(port,),
                                  kwargs={"stop": stop}, daemon=True)
        server.start()
        module = build_module(spec_by_name("M13"), small_geometry)

        def draw(backend):
            return QuacTrng(module, entropy_per_block=256.0 * entropy_scale,
                            backend=backend).random_bits(4096)

        backend = RemoteBackend(addresses=[("127.0.0.1", port)])
        try:
            deadline = time.monotonic() + 10.0
            while not all(backend.ping()):
                assert time.monotonic() < deadline, "worker never listened"
                backend._links[0].revive()
                time.sleep(0.05)
            np.testing.assert_array_equal(draw(backend),
                                          draw(SerialBackend()))
        finally:
            backend.close()
            stop.set()
            server.join(timeout=5)


class _ScriptedWorker:
    """A fake worker thread speaking whatever the test wants.

    ``handler(conn)`` is invoked once per accepted connection with the
    raw socket.
    """

    def __init__(self, handler):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.address = self.listener.getsockname()
        self._handler = handler
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        try:
            self._handler(conn)
        except (OSError, RemoteExecutionError):
            pass
        finally:
            conn.close()

    def close(self):
        self.listener.close()
        self._thread.join(timeout=5)


def _fails_and_kills_the_link(handler, n_tasks=3):
    worker_ = _ScriptedWorker(handler)
    backend = RemoteBackend(addresses=[worker_.address])
    try:
        with pytest.raises(RemoteExecutionError):
            backend.submit_round(run_bank_task, _tasks(n_tasks)).result()
        assert backend._links[0].dead
    finally:
        backend.close()
        worker_.close()


class TestVersionNegotiation:
    """Reply validation on the one protocol.

    The per-message header (magic, schema version, stream epoch)
    replaced the old ``hello`` handshake, so what remains of version
    negotiation is this: any reply the schema rejects, or that does
    not answer the round it was sent for, kills the link.
    """

    def test_round_protocol_spends_one_trip_per_host(self):
        # No handshake: a fresh link's first round is its first
        # request, and a whole round costs one trip per host.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            tasks = _tasks(8)
            assert _bits(backend.run_round(run_bank_task, tasks)) == \
                _expected(tasks)
            assert backend.request_count() == 1
        finally:
            backend.close()

    def test_foreign_schema_reply_marks_worker_dead(self):
        # The header is the version statement now: a reply stamped
        # with another schema version is a peer this build cannot
        # read -- dead link, loud failure.
        def handler(conn):
            wire.recv_frame(conn)
            wire.send_raw_frame(conn, wire.MESSAGE_HEADER.pack(
                wire.MAGIC, wire.SCHEMA_VERSION + 1, STREAM_EPOCH,
                wire.ROUND_RESULT))

        _fails_and_kills_the_link(handler)

    def test_malformed_round_result_marks_worker_dead(self):
        # A wrong-arity slot list has desynchronized the conversation:
        # dead link, loud failure, no retry spin.
        def handler(conn):
            _kind, tasks = wire.recv_frame(conn)
            wire.send_frame(conn, (wire.ROUND_RESULT,
                                   run_round_shard(tasks[:1])))

        _fails_and_kills_the_link(handler)

    def test_bare_tuple_round_reply_marks_worker_dead(self):
        # A reply that is a bare header with no body is a protocol
        # violation: dead link and a loud RemoteExecutionError.
        def handler(conn):
            wire.recv_frame(conn)
            wire.send_raw_frame(conn, wire.MESSAGE_HEADER.pack(
                wire.MAGIC, wire.SCHEMA_VERSION, STREAM_EPOCH,
                wire.ROUND_RESULT))

        _fails_and_kills_the_link(handler)

    def test_absurd_round_reply_header_marks_worker_dead(self):
        # A corrupt length prefix in a round reply kills the link.
        def handler(conn):
            wire.recv_frame(conn)
            conn.sendall(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1))

        _fails_and_kills_the_link(handler)

    def test_worker_dying_mid_round_reply_parks_the_shard(self):
        # Truncation against the live dispatch: the peer sends half a
        # round reply and vanishes.  With no survivors the dispatch
        # must fail loudly (never hang, never half-fill).
        def handler(conn):
            _kind, tasks = wire.recv_frame(conn)
            frame = wire.pack_frame(wire.encode(wire.ROUND_RESULT,
                                                run_round_shard(tasks)))
            conn.sendall(frame[:len(frame) // 2])

        _fails_and_kills_the_link(handler)

    def test_shard_task_exception_lands_on_its_slot(self):
        # Through a real worker: one failing task re-raises at join as
        # a RemoteExecutionError naming the worker-side type, and the
        # backend survives.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            pending = backend.submit_round(run_bank_task,
                                           [_task(1, fail=True)])
            with pytest.raises(RemoteExecutionError,
                               match="ConfigurationError.*even row"):
                pending.result()
            assert not backend._links[0].dead
            tasks = _tasks(1)
            assert _bits(backend.run_round(run_bank_task, tasks)) == \
                _expected(tasks)
        finally:
            backend.close()

    def test_unshippable_result_fails_its_slot_not_the_shard(self):
        # A task the worker cannot produce a result for fails that task
        # alone -- its shard-mates' results still ship.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            tasks = [_task(0), _task(1, fail=True), _task(2)]
            pending = backend.submit_round(run_bank_task, tasks)
            with pytest.raises(RemoteExecutionError,
                               match="ConfigurationError"):
                pending.result()
            first, failed, last = pending.futures
            assert _bits([first.result(), last.result()]) == \
                _expected([tasks[0], tasks[2]])
            assert isinstance(failed.exception(), RemoteExecutionError)
            assert not backend._links[0].dead
        finally:
            backend.close()


def _worker_at_epoch(epoch):
    """A scripted worker handler answering as a build at ``epoch``."""
    def handler(conn):
        while True:
            payload = wire.recv_raw_frame(conn)
            reply = worker.answer(payload, epoch)
            wire.send_raw_frame(conn, wire.encode(*reply, epoch=epoch))
    return handler


class TestStaleWorkerBuild:
    """A worker at another stream epoch must fail the draw, not serve
    different bits.

    Every message carries the sender's ``STREAM_EPOCH``; a worker
    reading a round stamped with another epoch refuses it without
    running a task, and its reply (stamped with its own epoch) is one
    the client refuses in turn.  ``per-task`` submits a draw's planned
    tasks one per round, ``rounds`` draws through the generator.
    """

    @pytest.mark.parametrize("shape", ["per-task", "rounds"])
    @pytest.mark.parametrize("stale", [False, True],
                             ids=["current", "stale"])
    def test_stale_worker_fails_closed(self, small_geometry,
                                       entropy_scale, monkeypatch, shape,
                                       stale):
        module = build_module(spec_by_name("M13"), small_geometry)
        ran = []

        def counted(task):
            ran.append(task)
            return run_bank_task(task)

        monkeypatch.setattr(worker, "run_bank_task", counted)

        def trng(backend):
            return QuacTrng(module, entropy_per_block=256.0 * entropy_scale,
                            backend=backend)

        def draw(backend):
            if shape == "rounds":
                return trng(backend).random_bits(4096).tobytes()
            return [_bits(backend.run_round(run_bank_task, [task]))
                    for task in trng(backend).plan_batch(4)]

        worker_ = _ScriptedWorker(_worker_at_epoch(
            STREAM_EPOCH + 1 if stale else STREAM_EPOCH))
        backend = RemoteBackend(addresses=[worker_.address])
        try:
            if stale:
                with pytest.raises(RemoteExecutionError,
                                   match="stream epoch"):
                    draw(backend)
                assert ran == []
            else:
                # Control: the same scripted worker at this build's
                # epoch serves the serial stream.
                assert draw(backend) == draw(SerialBackend())
                assert ran
        finally:
            backend.close()
            worker_.close()

    def test_worker_refuses_foreign_frames_without_running_them(
            self, monkeypatch):
        def refuse(task):
            raise AssertionError("a refused round ran a task")

        monkeypatch.setattr(worker, "run_bank_task", refuse)
        payload = wire.encode(wire.ROUND, _tasks(2))
        for bad in (_patched(payload, 0, b"QUAX"),
                    wire.encode(wire.ROUND, _tasks(2),
                                epoch=STREAM_EPOCH + 1),
                    _patched(payload, 4, struct.pack(
                        ">H", wire.SCHEMA_VERSION + 1)),
                    payload[:-1]):
            kind, message = worker.answer(bad)
            assert kind == wire.ERROR
            assert "refused" in message

    def test_no_message_stops_a_worker(self):
        # Kind 6 was a ``shutdown`` any peer could send.  It is now an
        # unknown kind: refused, and the connection keeps serving.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.create_connection(listener.getsockname())
            server, _ = listener.accept()
        stop = threading.Event()
        serving = threading.Thread(target=worker._serve_connection,
                                   args=(server, stop), daemon=True)
        serving.start()
        try:
            wire.send_raw_frame(client, wire.MESSAGE_HEADER.pack(
                wire.MAGIC, wire.SCHEMA_VERSION, STREAM_EPOCH, 6))
            kind, message = wire.recv_frame(client)
            assert kind == wire.ERROR and "unknown message kind" in message
            wire.send_frame(client, (wire.PING,))
            assert wire.recv_frame(client) == (wire.PONG, None)
            assert not stop.is_set()
        finally:
            client.close()
            serving.join(timeout=5)


class TestShardMap:
    def test_fuzzed_invariants(self):
        rng = np.random.default_rng(20210625)
        for _ in range(200):
            n_tasks = int(rng.integers(0, 40))
            n_shards = int(rng.integers(1, 12))
            shards = shard_map(n_tasks, n_shards)
            # Complete, contiguous, in order, never empty, one per
            # worker while tasks last.
            assert [i for shard in shards for i in shard] == \
                list(range(n_tasks))
            assert all(shard for shard in shards)
            assert len(shards) == min(n_shards, n_tasks)
            # Balanced: run lengths differ by at most one.
            if shards:
                sizes = [len(shard) for shard in shards]
                assert max(sizes) - min(sizes) <= 1

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_map(2, 0)


def _one_shot_worker(reply):
    """A listener whose worker reads one request and calls
    ``reply(conn)``; returns ``(address, cleanup)``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()

    def serve_once():
        conn, _ = listener.accept()
        wire.recv_frame(conn)
        reply(conn)
        conn.close()

    server = threading.Thread(target=serve_once, daemon=True)
    server.start()

    def cleanup():
        listener.close()
        server.join(timeout=5)

    return listener.getsockname(), cleanup


class TestClusterAndFailureModel:
    @pytest.fixture(scope="class")
    def cluster_backend(self):
        backend = RemoteBackend(cluster=LocalCluster(3))
        yield backend
        backend.close()

    def test_cluster_spawns_and_pings(self, cluster_backend):
        assert cluster_backend.ping() == [True, True, True]
        assert cluster_backend._cluster.running

    def test_killed_worker_tasks_requeue_onto_survivors(
            self, cluster_backend):
        assert all(cluster_backend.ping())                   # links warm
        tasks = _tasks(9, iterations=64, bits=4096)
        pending = cluster_backend.submit_round(run_bank_task, tasks)
        cluster_backend._cluster._procs[0].kill()
        assert _bits(pending.result()) == _expected(tasks)
        # The survivors keep serving the next rounds.
        again = _tasks(2)
        assert _bits(cluster_backend.run_round(run_bank_task, again)) == \
            _expected(again)
        assert sum(link.dead for link in cluster_backend._links) == 1

    def test_fully_dead_cluster_raises_remote_error(self):
        backend = RemoteBackend(cluster=LocalCluster(2))
        try:
            assert all(backend.ping())
            for proc in backend._cluster._procs:
                proc.kill()
            for proc in backend._cluster._procs:
                proc.wait()
            with pytest.raises(RemoteExecutionError):
                backend.run_round(run_bank_task, _tasks(3))
        finally:
            backend.close()

    def test_close_respawns_on_next_use(self):
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            tasks = _tasks(1)
            assert _bits(backend.run_round(run_bank_task, tasks)) == \
                _expected(tasks)
            backend.close()
            assert not backend._cluster.running
            assert _bits(backend.run_round(run_bank_task, tasks)) == \
                _expected(tasks)                                # respawned
            assert backend._cluster.running
        finally:
            backend.close()

    def test_stop_is_idempotent(self):
        cluster = LocalCluster(1)
        cluster.start()
        assert cluster.running
        cluster.stop()
        cluster.stop()
        assert not cluster.running

    def test_backend_needs_exactly_one_worker_source(self):
        with pytest.raises(ConfigurationError):
            RemoteBackend()
        with pytest.raises(ConfigurationError):
            RemoteBackend(addresses=[("h", 1)],
                          cluster=LocalCluster(1))
        with pytest.raises(ConfigurationError):
            RemoteBackend(addresses=[])
        for port in (0, 65536, 98323, "9123"):
            with pytest.raises(ConfigurationError, match="1-65535"):
                RemoteBackend(addresses=[("127.0.0.1", port)])
        with pytest.raises(ConfigurationError):
            LocalCluster(0)

    def test_other_fn_is_refused_not_a_dead_worker(
            self, cluster_backend):
        # No function crosses the wire: anything but run_bank_task is
        # the caller's configuration error at submit -- never a dead
        # worker -- and the backend keeps serving.
        with pytest.raises(ConfigurationError) as caught:
            cluster_backend.run_round(lambda x: x, _tasks(2))
        assert not isinstance(caught.value, RemoteExecutionError)
        tasks = _tasks(1)
        assert _bits(cluster_backend.run_round(run_bank_task, tasks)) == \
            _expected(tasks)

    def test_protocol_violation_marks_worker_dead_and_raises(self):
        # A "worker" that answers with a corrupt (absurd-length) frame
        # header desynchronizes the connection: the link must go dead
        # and the dispatch must fail loudly, never spin on retries.
        address, cleanup = _one_shot_worker(
            lambda conn: conn.sendall(
                wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1)))
        backend = RemoteBackend(addresses=[address])
        try:
            with pytest.raises(RemoteExecutionError):
                backend.run_round(run_bank_task, _tasks(1))
            assert backend._links[0].dead
        finally:
            backend.close()
            cleanup()

    def test_ping_protocol_violation_is_false_not_raised(self):
        # ping() returns bool, period: a worker answering with a
        # corrupt frame is a dead link, not an exception out of a
        # liveness probe.
        address, cleanup = _one_shot_worker(
            lambda conn: conn.sendall(
                wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1)))
        backend = RemoteBackend(addresses=[address])
        try:
            assert backend.ping() == [False]
            assert backend._links[0].dead
        finally:
            backend.close()
            cleanup()

    def test_ping_answered_with_wrong_kind_marks_link_dead(self):
        # A well-formed but non-pong reply to a ping is a
        # desynchronized stream, same as a corrupt frame: the link
        # must go dead, not stay schedulable for the next round.
        address, cleanup = _one_shot_worker(
            lambda conn: wire.send_frame(conn, (wire.ROUND_RESULT, [])))
        backend = RemoteBackend(addresses=[address])
        try:
            assert backend.ping() == [False]
            assert backend._links[0].dead
        finally:
            backend.close()
            cleanup()

    def test_done_goes_true_when_the_dispatch_fails_for_good(self):
        # A dispatch that lost every worker is *done with failure*
        # (like a failed future), so pollers terminate.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            assert all(backend.ping())
            for proc in backend._cluster._procs:
                proc.kill()
            for proc in backend._cluster._procs:
                proc.wait()
            pending = backend.submit_round(run_bank_task, _tasks(3))
            deadline = time.time() + 10.0
            while not pending.done():
                assert time.time() < deadline, \
                    "failed dispatch never reported done()"
                time.sleep(0.02)
            with pytest.raises(RemoteExecutionError):
                pending.result()
        finally:
            backend.close()

    def test_refused_round_leaves_workers_alive(self):
        # A round the workers cannot accept (here: a probability
        # outside [0, 1], which the schema refuses) is the *tasks'*
        # failure, answered over the still-synchronized connections;
        # the workers must stay alive.
        probabilities = np.full(256, 0.5)
        probabilities[3] = 2.0
        backend = RemoteBackend(cluster=LocalCluster(2))
        try:
            with pytest.raises(RemoteExecutionError,
                               match="refused the round"):
                backend.run_round(run_bank_task, [
                    _task(index, probabilities=probabilities)
                    for index in range(3)])
            assert not any(link.dead for link in backend._links)
            tasks = _tasks(1)
            assert _bits(backend.run_round(run_bank_task, tasks)) == \
                _expected(tasks)
        finally:
            backend.close()

    def test_unreachable_address_is_a_remote_error(self):
        # A connection refused on first use is a dead worker; with no
        # survivors the dispatch fails loudly.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        backend = RemoteBackend(addresses=[("127.0.0.1", free_port)])
        with pytest.raises(RemoteExecutionError):
            backend.run_round(run_bank_task, _tasks(1))
        backend.close()
