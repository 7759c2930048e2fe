"""The remote backend's wire layer and failure model.

Four concerns, bottom-up:

* **Frame codec** -- the length-prefixed protocol must round-trip any
  payload (0 bytes through multi-hundred-KiB frames), survive TCP
  fragmentation, and fail loudly (``ConnectionClosed``, never a hang
  or a truncated read) when the peer disappears mid-frame;
* **Packed payloads** -- :class:`~repro.core.parallel.BankResult`
  objects (always packed) are the wire format of every remote round;
  randomized matrices must survive pack -> pickle -> frame -> unpickle
  -> unpack bit for bit, including degenerate shapes;
* **Round frames + version negotiation** -- the round protocol's
  :class:`~repro.core.remote.wire.RoundShard` and multi-result frames
  get the same fuzz treatment (fragmentation, truncation, oversized
  shards, malformed slot lists), and the ``hello`` handshake must
  let a round-capable client fall back cleanly against a
  per-task-only worker;
* **Cluster + failure model** -- localhost workers spawn/stop/respawn,
  a killed worker's tasks requeue onto survivors, and only a fully
  dead cluster raises :class:`~repro.errors.RemoteExecutionError`.

The shard map's invariants (contiguity, completeness, balance) are
property-tested here too: they are what keeps channels/banks grouped
per host without ever influencing the merged stream.
"""

import dataclasses
import io
import os
import pickle
import socket
import threading
import time
from typing import Tuple

import numpy as np
import pytest

from repro.core.parallel import (BankResult, BankTask, SerialBackend,
                                 _pack_matrix, _unpack_matrix,
                                 run_bank_task)
from repro.core.remote import (LocalCluster, RemoteBackend, shard_map,
                               task_weights, wire)
from repro.core.remote.worker import run_round_shard
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_module, spec_by_name
from repro.errors import ConfigurationError, RemoteExecutionError

def _module_local_fn(x):
    """Shipped by reference; unimportable on pathless workers."""
    return x


#: Payload sizes the codec is fuzzed at: the empty frame, sub-header
#: sizes, exact powers of two around typical buffers, and frames well
#: past 64 KiB (a full-scale packed round is megabytes).
FRAME_SIZES = [0, 1, 7, 8, 9, 1024, 65535, 65536, 65537, 300_000]


@pytest.fixture()
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


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
        message = (wire.RESULT, {"bits": np.arange(5), "n": 5})
        sender = threading.Thread(target=wire.send_frame,
                                  args=(left, message))
        sender.start()
        kind, payload = wire.recv_frame(right)
        sender.join()
        assert kind == wire.RESULT
        np.testing.assert_array_equal(payload["bits"], np.arange(5))

    def test_garbage_payload_raises_remote_error(self, sock_pair):
        left, right = sock_pair
        wire.send_raw_frame(left, b"\x80\x05 not a pickle")
        with pytest.raises(RemoteExecutionError):
            wire.recv_frame(right)


class TestPackedPayloadRoundTrip:
    """Packed results across pickle + frame, randomized."""

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

        sender = threading.Thread(target=wire.send_frame,
                                  args=(left, (wire.RESULT, result)))
        sender.start()
        kind, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.RESULT
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
        packed = pickle.dumps(BankResult(
            digests=_pack_matrix(bits), raw=None, iterations=64,
            digest_bits=4096))
        assert len(packed) * 7 < len(pickle.dumps(bits))


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _unshippable_for_one(x):
    """A result that cannot pickle (a closure) for x == 1 only."""
    return (lambda: x) if x == 1 else x


class TestRoundFrames:
    """RoundShard / multi-result frames through the same fuzz mill."""

    def _random_shard(self, rng, n_tasks):
        tasks = tuple(
            rng.integers(0, 256, int(size), dtype=np.uint8).tobytes()
            for size in rng.integers(0, 4000, n_tasks))
        return wire.RoundShard(start=int(rng.integers(0, 64)),
                               tasks=tasks)

    @pytest.mark.parametrize("n_tasks", [1, 2, 7, 40])
    def test_round_shard_frame_round_trip(self, sock_pair, n_tasks):
        left, right = sock_pair
        shard = self._random_shard(np.random.default_rng(n_tasks),
                                   n_tasks)
        sender = threading.Thread(
            target=wire.send_frame,
            args=(left, (wire.ROUND, _double, shard)))
        sender.start()
        kind, fn, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND
        assert shipped == shard
        assert fn(3) == 6

    def test_oversized_shard_round_trips_in_one_frame(self, sock_pair):
        # An oversized shard -- hundreds of tasks, megabytes of
        # payload, far past any single-task frame -- must still travel
        # as ONE frame and come back intact.
        left, right = sock_pair
        rng = np.random.default_rng(4242)
        shard = wire.RoundShard(
            start=0,
            tasks=tuple(rng.integers(0, 256, 16384, dtype=np.uint8)
                        .tobytes() for _ in range(300)))
        sender = threading.Thread(target=wire.send_frame,
                                  args=(left, (wire.ROUND, _double,
                                               shard)))
        sender.start()
        kind, _fn, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND
        assert shipped == shard

    def test_multi_result_frame_round_trip(self, sock_pair):
        # A packed multi-bank result frame: one frame, many
        # BankResults, bit-exact after pickle + framing.
        left, right = sock_pair
        rng = np.random.default_rng(99)
        matrices = [rng.integers(0, 2, (4, 512), dtype=np.uint8)
                    for _ in range(6)]
        slots = [(wire.SLOT_OK, BankResult(
            digests=_pack_matrix(matrix), raw=None, iterations=4,
            digest_bits=512)) for matrix in matrices]
        sender = threading.Thread(
            target=wire.send_frame,
            args=(left, (wire.ROUND_RESULT, slots)))
        sender.start()
        kind, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND_RESULT
        assert wire.valid_round_slots(shipped, len(matrices))
        for (status, result), matrix in zip(shipped, matrices):
            assert status == wire.SLOT_OK
            np.testing.assert_array_equal(result.digest_matrix(), matrix)

    def test_fragmented_round_frame_reassembles(self, sock_pair):
        left, right = sock_pair
        shard = wire.RoundShard(start=3, tasks=(b"alpha", b"beta"))
        frame = wire.pack_frame(pickle.dumps((wire.ROUND, _double,
                                              shard)))

        def drip():
            for start in range(0, len(frame), 5):
                left.sendall(frame[start:start + 5])
                time.sleep(0.001)

        sender = threading.Thread(target=drip)
        sender.start()
        kind, _fn, shipped = wire.recv_frame(right)
        sender.join()
        assert kind == wire.ROUND
        assert shipped == shard

    def test_truncated_round_frame_raises(self, sock_pair):
        left, right = sock_pair
        frame = wire.pack_frame(pickle.dumps(
            (wire.ROUND, _double,
             wire.RoundShard(start=0, tasks=(b"x" * 1000,)))))
        left.sendall(frame[:len(frame) // 2])
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_frame(right)

    def test_run_round_shard_executes_in_order(self):
        shard = wire.RoundShard(start=0, tasks=(1, 2, 3))
        slots = run_round_shard(_double, shard)
        assert slots == [(wire.SLOT_OK, 2), (wire.SLOT_OK, 4),
                         (wire.SLOT_OK, 6)]
        assert wire.valid_round_slots(slots, 3)

    def test_run_round_shard_isolates_task_failures(self):
        # One task raising must not abort the shard: its slot carries
        # the exception, the later tasks still ran.
        shard = wire.RoundShard(start=0, tasks=(1, 2, 3))

        def picky(x):
            if x == 2:
                raise ValueError("two is right out")
            return x

        slots = run_round_shard(picky, shard)
        assert [status for status, _ in slots] == \
            [wire.SLOT_OK, wire.SLOT_ERROR, wire.SLOT_OK]
        assert isinstance(slots[1][1], ValueError)
        assert slots[2][1] == 3

    def test_valid_round_slots_rejects_malformed_bodies(self):
        ok = [(wire.SLOT_OK, 1), (wire.SLOT_ERROR, ValueError("x"))]
        assert wire.valid_round_slots(ok, 2)
        # Wrong count, wrong shapes, wrong markers, wrong container.
        assert not wire.valid_round_slots(ok, 3)
        assert not wire.valid_round_slots(ok[:1], 2)
        assert not wire.valid_round_slots([(wire.SLOT_OK,)], 1)
        assert not wire.valid_round_slots([("nope", 1)], 1)
        assert not wire.valid_round_slots([[wire.SLOT_OK, 1]], 1)
        assert not wire.valid_round_slots("slots", 5)
        assert not wire.valid_round_slots(None, 0)
        # Fuzzed garbage shapes never validate.
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 6))
            body = [tuple(rng.integers(0, 9, int(rng.integers(0, 4))))
                    for _ in range(n)]
            assert not wire.valid_round_slots(body, n) or n == 0 \
                and body == []


class _ScriptedWorker:
    """A fake worker thread speaking whatever protocol the test wants.

    ``handler(conn)`` is invoked once per accepted connection with the
    raw socket; helpers below implement the per-task-only (version 1)
    behaviour and deliberately corrupt round replies.
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
        finally:
            conn.close()

    def close(self):
        self.listener.close()
        self._thread.join(timeout=5)


class TestVersionNegotiation:
    def test_round_backend_negotiates_version_2(self):
        backend = RemoteBackend(cluster=LocalCluster(1),
                                round_execution=True)
        try:
            assert backend.submit_round(abs, [-1, -2]).result() == [1, 2]
            assert backend._links[0].protocol == wire.PROTOCOL_VERSION
        finally:
            backend.close()

    def test_round_client_falls_back_against_per_task_worker(self):
        # The protocol-version-mismatch handshake: a round-capable
        # client against a worker clamped to the per-task protocol
        # (exactly a pre-round build: hello/round answered as unknown
        # message kinds) must degrade to task shipping on the same
        # healthy connection -- right results, live link, one round
        # trip per task instead of one per shard.
        backend = RemoteBackend(
            cluster=LocalCluster(1,
                                 worker_args=["--protocol-version", "1"]),
            round_execution=True)
        try:
            before = backend.request_count()
            assert backend.submit_round(abs, [-1, -2, -3]).result() == \
                [1, 2, 3]
            link = backend._links[0]
            assert link.protocol == 1
            assert not link.dead
            # 1 hello + 3 per-task trips; a round shard would be 2.
            assert backend.request_count() - before == 4
            # The verdict is cached: the next round skips the
            # handshake and goes straight to per-task shipping.
            before = backend.request_count()
            assert backend.submit_round(abs, [-5, -6]).result() == [5, 6]
            assert backend.request_count() - before == 2
        finally:
            backend.close()

    def test_round_protocol_spends_one_trip_per_host(self):
        backend = RemoteBackend(cluster=LocalCluster(1),
                                round_execution=True)
        try:
            backend.submit_round(abs, [-9]).result()   # connect + hello
            before = backend.request_count()
            assert backend.submit_round(abs, list(range(-8, 0))) \
                .result() == list(range(8, 0, -1))
            assert backend.request_count() - before == 1
        finally:
            backend.close()

    def test_per_task_protocol_needs_no_handshake(self):
        # round_execution=False must stay wire-identical to PR 4: no
        # hello, one trip per task, protocol never negotiated.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            assert backend.run_round(abs, [-1, -2]) == [1, 2]
            link = backend._links[0]
            assert link.protocol is None
            assert link.requests == 2
        finally:
            backend.close()

    def test_malformed_hello_reply_marks_worker_dead(self):
        # A peer answering the handshake with garbage (a hello whose
        # version is not a number) has violated the protocol: dead
        # link, loud failure -- never a TypeError deep in a dispatch,
        # never a live link with a poisoned verdict.
        def handler(conn):
            wire.recv_frame(conn)                   # hello
            wire.send_frame(conn, (wire.HELLO, "newest"))

        worker = _ScriptedWorker(handler)
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=True)
        try:
            with pytest.raises(RemoteExecutionError):
                backend.submit_round(abs, [-1, -2]).result()
            assert backend._links[0].dead
        finally:
            backend.close()
            worker.close()

    def test_malformed_round_result_marks_worker_dead(self):
        # A "worker" that claims version 2 but answers a round with a
        # wrong-arity slot list has desynchronized the conversation:
        # dead link, loud failure, no retry spin.
        def handler(conn):
            kind, *_ = wire.recv_frame(conn)        # hello
            assert kind == wire.HELLO
            wire.send_frame(conn, (wire.HELLO, wire.PROTOCOL_VERSION))
            wire.recv_frame(conn)                   # the round
            wire.send_frame(conn, (wire.ROUND_RESULT,
                                   [(wire.SLOT_OK, 1)]))  # arity 1 != 3

        worker = _ScriptedWorker(handler)
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=True)
        try:
            with pytest.raises(RemoteExecutionError):
                backend.submit_round(abs, [-1, -2, -3]).result()
            assert backend._links[0].dead
        finally:
            backend.close()
            worker.close()

    def test_bare_tuple_round_reply_marks_worker_dead(self):
        # A reply that is a bare kind marker (or any shape the client
        # would have to index blindly) is a protocol violation: dead
        # link and a loud RemoteExecutionError, never an IndexError
        # recorded against the tasks.
        def handler(conn):
            wire.recv_frame(conn)                   # hello
            wire.send_frame(conn, (wire.HELLO, wire.PROTOCOL_VERSION))
            wire.recv_frame(conn)                   # the round
            wire.send_frame(conn, (wire.ROUND_RESULT,))

        worker = _ScriptedWorker(handler)
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=True)
        try:
            with pytest.raises(RemoteExecutionError):
                backend.submit_round(abs, [-1, -2]).result()
            assert backend._links[0].dead
        finally:
            backend.close()
            worker.close()

    def test_absurd_round_reply_header_marks_worker_dead(self):
        # The round-protocol twin of the absurd-header codec test: a
        # corrupt length prefix in a round reply kills the link.
        def handler(conn):
            wire.recv_frame(conn)                   # hello
            wire.send_frame(conn, (wire.HELLO, wire.PROTOCOL_VERSION))
            wire.recv_frame(conn)                   # the round
            conn.sendall(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1))

        worker = _ScriptedWorker(handler)
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=True)
        try:
            with pytest.raises(RemoteExecutionError):
                backend.submit_round(abs, [-1, -2]).result()
            assert backend._links[0].dead
        finally:
            backend.close()
            worker.close()

    def test_worker_dying_mid_round_reply_parks_the_shard(self):
        # Truncation fuzz against the live dispatch: the peer sends
        # half a round reply and vanishes.  With no survivors the
        # dispatch must fail loudly (never hang, never half-fill).
        def handler(conn):
            wire.recv_frame(conn)                   # hello
            wire.send_frame(conn, (wire.HELLO, wire.PROTOCOL_VERSION))
            wire.recv_frame(conn)                   # the round
            frame = wire.pack_frame(pickle.dumps(
                (wire.ROUND_RESULT, [(wire.SLOT_OK, 1)] * 3)))
            conn.sendall(frame[:len(frame) // 2])   # ...and die

        worker = _ScriptedWorker(handler)
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=True)
        try:
            with pytest.raises(RemoteExecutionError):
                backend.submit_round(abs, [-1, -2, -3]).result()
            assert backend._links[0].dead
        finally:
            backend.close()
            worker.close()

    def test_shard_task_exception_lands_on_its_slot(self):
        # Through a real worker: one failing task in a round shard
        # re-raises at join, and the backend survives.
        backend = RemoteBackend(
            cluster=LocalCluster(
                1, extra_sys_paths=[os.path.dirname(__file__)]),
            round_execution=True)
        try:
            pending = backend.submit_round(_boom, [1])
            with pytest.raises(ValueError, match="boom on 1"):
                pending.result()
            assert not backend._links[0].dead
            assert backend.submit_round(abs, [-4]).result() == [4]
        finally:
            backend.close()

    def test_unshippable_result_fails_its_slot_not_the_shard(self):
        # One task's result refusing to pickle must fail that task
        # alone -- its shard-mates' results still ship, exactly as
        # per-task shipping would have it.
        backend = RemoteBackend(
            cluster=LocalCluster(
                1, extra_sys_paths=[os.path.dirname(__file__)]),
            round_execution=True)
        try:
            pending = backend.submit_round(_unshippable_for_one,
                                           [0, 1, 2])
            with pytest.raises(RemoteExecutionError,
                               match="could not be shipped"):
                pending.result()
            # The good slots landed; only task 1's slot raises.
            assert pending._slots[0] == ("ok", 0)
            assert pending._slots[2] == ("ok", 2)
            assert pending._slots[1][0] == "raise"
            assert not backend._links[0].dead
            assert backend.submit_round(abs, [-4]).result() == [4]
        finally:
            backend.close()


@dataclasses.dataclass(frozen=True, eq=False)
class _StaleBankTask:
    """``BankTask`` as an older build defines it: one child-RNG key per
    draw, and no notion of a first iteration."""

    key: Tuple[int, ...]
    probabilities: np.ndarray
    iterations: int
    block_slices: Tuple[Tuple[int, int], ...]
    entropy_per_block: float
    use_builtin_sha: bool = False
    collect_raw: bool = False


def _stale_run_bank_task(task):
    """An older build's ``run_bank_task``: it reads ``task.key`` and
    draws from the start of that key's stream, ignoring any
    ``first_iteration`` it does not know about."""
    return run_bank_task(BankTask(
        thermal_key=task.key, probabilities=task.probabilities,
        iterations=task.iterations, block_slices=task.block_slices,
        entropy_per_block=task.entropy_per_block,
        use_builtin_sha=task.use_builtin_sha,
        collect_raw=task.collect_raw))


class _StaleBuildUnpickler(pickle.Unpickler):
    """Resolve the task class and task function the way an older build
    would: by name, to its own definitions."""

    STALE = {("repro.core.parallel", "BankTask"): _StaleBankTask,
             ("repro.core.parallel", "run_bank_task"):
                 _stale_run_bank_task}

    def find_class(self, module, name):
        return self.STALE.get((module, name)) or \
            super().find_class(module, name)


def _worker_of_build(stale):
    """A scripted version-2 worker handler; ``stale`` makes it resolve
    shipped tasks with an older build's definitions."""
    def handler(conn):
        while True:
            try:
                payload = wire.recv_raw_frame(conn)
            except wire.ConnectionClosed:
                return
            if stale:
                message = _StaleBuildUnpickler(io.BytesIO(payload)).load()
            else:
                message = pickle.loads(payload)
            kind = message[0]
            if kind == wire.HELLO:
                reply = (wire.HELLO, wire.ROUND_PROTOCOL_VERSION)
            elif kind == wire.TASK:
                try:
                    reply = (wire.RESULT, message[1](message[2]))
                except Exception as exc:
                    reply = (wire.ERROR, exc)
            elif kind == wire.ROUND:
                reply = (wire.ROUND_RESULT,
                         run_round_shard(message[1], message[2]))
            elif kind == wire.PING:
                reply = (wire.PONG,)
            else:
                return
            wire.send_frame(conn, reply)
    return handler


class TestStaleWorkerBuild:
    """A worker running an older build must fail the draw, not serve
    stale bits.

    Tasks ship ``run_bank_task`` and ``BankTask`` by reference, so a
    worker resolves both to its *own* build's definitions.  An older
    ``run_bank_task`` knows nothing of ``first_iteration``; were it
    able to read the task's key, every task of a segment would return
    the same iterations.  The key's field name differs between the
    builds, so such a worker raises instead.
    """

    @pytest.mark.parametrize("round_execution", [False, True],
                             ids=["per-task", "rounds"])
    @pytest.mark.parametrize("stale", [False, True],
                             ids=["current", "stale"])
    def test_stale_worker_fails_closed(self, small_geometry,
                                       entropy_scale, round_execution,
                                       stale):
        module = build_module(spec_by_name("M13"), small_geometry)

        def draw(backend):
            trng = QuacTrng(module, entropy_per_block=256.0 * entropy_scale,
                            backend=backend)
            return trng.random_bits(4096)

        worker = _ScriptedWorker(_worker_of_build(stale))
        backend = RemoteBackend(addresses=[worker.address],
                                round_execution=round_execution)
        try:
            if stale:
                with pytest.raises(AttributeError, match="key"):
                    draw(backend)
            else:
                # Control: the same scripted worker on the current
                # build serves the serial stream.
                np.testing.assert_array_equal(draw(backend),
                                              draw(SerialBackend()))
        finally:
            backend.close()
            worker.close()


class TestShardMap:
    def test_fuzzed_invariants(self):
        rng = np.random.default_rng(20210625)
        for _ in range(200):
            n_tasks = int(rng.integers(1, 40))
            n_shards = int(rng.integers(1, 12))
            weights = rng.integers(1, 1025, n_tasks).tolist()
            shards = shard_map(weights, n_shards)
            # Complete, contiguous, in order, never empty, capped.
            assert [i for shard in shards for i in shard] == \
                list(range(n_tasks))
            assert all(shard for shard in shards)
            assert len(shards) <= min(n_shards, n_tasks)
            # Deterministic: a pure function of the weights.
            assert shard_map(weights, n_shards) == shards
            # Balance: no shard exceeds a fair share by more than one
            # task's weight (the greedy closes as soon as it crosses).
            if len(shards) > 1:
                fair = sum(weights) / len(shards)
                for shard in shards[:-1]:
                    load = sum(weights[i] for i in shard)
                    assert load <= fair + max(weights)

    def test_heavy_tail_still_uses_every_worker(self):
        # Ascending weights must not collapse onto worker 0: the
        # forced close guarantees later heavy tasks open shards too.
        assert shard_map([1, 1, 4], 2) == [[0, 1], [2]]
        assert shard_map([1, 2, 3, 10], 3) == [[0, 1], [2], [3]]

    def test_task_weights_reads_iterations(self):
        class Task:
            def __init__(self, iterations):
                self.iterations = iterations

        assert task_weights([Task(5), Task(1), object()]) == [5, 1, 1]

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_map([1, 2], 0)


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
        assert cluster_backend.run_round(abs, [-1]) == [1]   # links warm
        pending = cluster_backend.submit_round(abs, list(range(-9, 0)))
        cluster_backend._cluster._procs[0].kill()
        assert pending.result() == list(range(9, 0, -1))
        # The survivors keep serving the next rounds.
        assert cluster_backend.run_round(abs, [-7, -8]) == [7, 8]
        assert sum(link.dead for link in cluster_backend._links) == 1

    def test_fully_dead_cluster_raises_remote_error(self):
        backend = RemoteBackend(cluster=LocalCluster(2))
        try:
            assert backend.run_round(abs, [-2]) == [2]
            for proc in backend._cluster._procs:
                proc.kill()
            for proc in backend._cluster._procs:
                proc.wait()
            with pytest.raises(RemoteExecutionError):
                backend.run_round(abs, [-1, -2, -3])
        finally:
            backend.close()

    def test_close_respawns_on_next_use(self):
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            assert backend.run_round(abs, [-5]) == [5]
            backend.close()
            assert not backend._cluster.running
            assert backend.run_round(abs, [-6]) == [6]   # respawned
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
        with pytest.raises(ConfigurationError):
            LocalCluster(0)

    def test_unpicklable_fn_fails_the_task_not_the_backend(
            self, cluster_backend):
        # A lambda cannot pickle by reference; the error must surface
        # at join against the task (like a process pool's
        # PicklingError), not crash a shard thread or hang.
        with pytest.raises(Exception) as caught:
            cluster_backend.run_round(lambda x: x, [1, 2])
        assert not isinstance(caught.value, RemoteExecutionError)
        assert cluster_backend.run_round(abs, [-4]) == [4]

    def test_protocol_violation_marks_worker_dead_and_raises(self):
        # A "worker" that answers with a corrupt (absurd-length) frame
        # header desynchronizes the connection: the link must go dead
        # and the dispatch must fail loudly, never spin on retries.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        address = listener.getsockname()

        def bad_worker():
            conn, _ = listener.accept()
            wire.recv_frame(conn)          # swallow the task message
            conn.sendall(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1))
            conn.close()

        server = threading.Thread(target=bad_worker, daemon=True)
        server.start()
        backend = RemoteBackend(addresses=[address])
        try:
            with pytest.raises(RemoteExecutionError):
                backend.run_round(abs, [-1])
            assert backend._links[0].dead
        finally:
            backend.close()
            listener.close()
            server.join(timeout=5)

    def test_ping_protocol_violation_is_false_not_raised(self):
        # ping() returns bool, period: a worker answering with a
        # corrupt frame is a dead link, not an exception out of a
        # liveness probe.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        address = listener.getsockname()

        def bad_worker():
            conn, _ = listener.accept()
            wire.recv_frame(conn)          # swallow the ping message
            conn.sendall(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1))
            conn.close()

        server = threading.Thread(target=bad_worker, daemon=True)
        server.start()
        backend = RemoteBackend(addresses=[address])
        try:
            assert backend.ping() == [False]
            assert backend._links[0].dead
        finally:
            backend.close()
            listener.close()
            server.join(timeout=5)

    def test_ping_answered_with_wrong_kind_marks_link_dead(self):
        # A well-formed but non-pong reply to a ping is a
        # desynchronized stream, same as a corrupt frame: the link
        # must go dead, not stay schedulable for the next round.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        address = listener.getsockname()

        def bad_worker():
            conn, _ = listener.accept()
            wire.recv_frame(conn)          # swallow the ping message
            wire.send_frame(conn, (wire.RESULT, 42))   # stale reply
            conn.close()

        server = threading.Thread(target=bad_worker, daemon=True)
        server.start()
        backend = RemoteBackend(addresses=[address])
        try:
            assert backend.ping() == [False]
            assert backend._links[0].dead
        finally:
            backend.close()
            listener.close()
            server.join(timeout=5)

    def test_done_goes_true_when_the_dispatch_fails_for_good(self):
        # A dispatch that lost every worker is *done with failure*
        # (like a failed future), so pollers terminate.
        backend = RemoteBackend(cluster=LocalCluster(1))
        try:
            assert backend.run_round(abs, [-2]) == [2]
            for proc in backend._cluster._procs:
                proc.kill()
            for proc in backend._cluster._procs:
                proc.wait()
            pending = backend.submit_round(abs, [-1, -2, -3])
            deadline = time.time() + 10.0
            while not pending.done():
                assert time.time() < deadline, \
                    "failed dispatch never reported done()"
                time.sleep(0.02)
            with pytest.raises(RemoteExecutionError):
                pending.result()
        finally:
            backend.close()

    def test_unimportable_fn_is_a_task_error_not_dead_workers(self):
        # This module is not on the workers' sys.path (no
        # extra_sys_paths), so the worker cannot unpickle the shipped
        # function -- that is the *task's* failure, answered over the
        # still-synchronized connection; the workers must stay alive.
        backend = RemoteBackend(cluster=LocalCluster(2))
        try:
            with pytest.raises(RemoteExecutionError,
                               match="unpickle a task frame"):
                backend.run_round(_module_local_fn, [1, 2, 3])
            assert not any(link.dead for link in backend._links)
            assert backend.run_round(abs, [-3]) == [3]
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
            backend.run_round(abs, [-1])
        backend.close()
