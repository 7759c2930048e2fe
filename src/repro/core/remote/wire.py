"""The remote backend's wire format: framed ``struct`` messages.

The remote execution backend (:mod:`repro.core.remote`) and its worker
loop (:mod:`repro.core.remote.worker`) speak one protocol.  A frame is
an 8-byte big-endian payload length followed by exactly that many
payload bytes; :func:`send_raw_frame` / :func:`recv_raw_frame` move
such opaque payloads.  Every payload is one *message*
(:func:`send_frame` / :func:`recv_frame` encode and decode it):

* a fixed :data:`MESSAGE_HEADER` -- :data:`MAGIC`,
  :data:`SCHEMA_VERSION`, the sender's :data:`repro.rng.STREAM_EPOCH`
  and a kind byte;
* a body whose layout the kind fixes.  :data:`ROUND` carries one
  host's slice of a harvest round as :class:`~repro.core.parallel.
  BankTask` fields (key words, the lane thresholds as a ``uint8``
  ``hi`` and a little-endian ``uint32`` ``lo`` vector -- 5 bytes per
  bitline --, block slices, iterations, first iteration and a flags
  byte);
  :data:`ROUND_RESULT` carries one slot per task, either a
  :class:`~repro.core.parallel.BankResult` (its counts plus the packed
  ``digests`` and optional ``raw`` bytes) or a :class:`TaskError`;
  :data:`ERROR` carries a length-prefixed UTF-8 message;
  :data:`PING` and :data:`PONG` carry nothing.

Messages are data only.  No callable and no class name crosses the
socket: a worker can only run :func:`~repro.core.parallel.
run_bank_task` on the fields it decodes.  :func:`decode` checks the
header against this build (so a worker of another schema or stream
epoch refuses a round instead of drawing a different stream from it),
checks every count against the bytes present, and raises only
:class:`~repro.errors.RemoteExecutionError`.  It does not judge a
task's shape: a block slice outside its row decodes, and
``run_bank_task`` refuses that one task on its own slot, so its
round-mates still run.

A frame is fully written (header and payload in one gathered write)
and fully read before the next, so one connection carries an ordered
request/response stream.  A peer disappearing mid-frame (or before
one) raises :class:`ConnectionClosed`, which the backend treats as a
dead worker (requeue) and the worker as a departed client.

>>> from repro.core.parallel import BankResult
>>> kind, slots = decode(encode(ROUND_RESULT, [BankResult(
...     digests=b"\\xff", raw=None, iterations=1, digest_bits=8)]))
>>> kind == ROUND_RESULT, slots[0].digests
(True, b'\\xff')
"""

from __future__ import annotations

import socket
import struct
from typing import Any, List, NamedTuple, Tuple

import numpy as np

from repro.core.parallel import BankResult, BankTask
from repro.dram.sense_amplifier import SettleThresholds
from repro.errors import ConfigurationError, RemoteExecutionError
from repro.rng import STREAM_EPOCH

#: Frame header: payload byte count, 8-byte big-endian unsigned.
HEADER = struct.Struct(">Q")

#: Upper bound on a frame's payload (a malformed or misaligned header
#: otherwise asks ``recv`` for petabytes).  16 GiB clears any plausible
#: round result by orders of magnitude.
MAX_FRAME_BYTES = 16 * 1024 * 1024 * 1024

#: First bytes of every message.
MAGIC = b"QUAC"

#: Version of the message layouts below; bump it with any change.
#: Schema 5 ships lane thresholds where schema 4 shipped float64
#: probabilities.
SCHEMA_VERSION = 5

#: Message header: magic, schema version, stream epoch, kind.
MESSAGE_HEADER = struct.Struct(">4sHIB")

#: Message kinds.
ROUND = 1
ROUND_RESULT = 2
ERROR = 3
PING = 4
PONG = 5

_COUNT = struct.Struct(">I")
#: Key words, bitlines (entries of ``hi`` and of ``lo``), block
#: slices, iterations, first iteration, flags.
_TASK = struct.Struct(">HIIIQB")
#: The one task flag.  Bit 0 selected the from-scratch SHA-256 up to
#: schema 1; it is now an unknown flag.
_COLLECT_RAW = 2
_SLOT_TAG = struct.Struct(">B")
_SLOT_RESULT = 0
_SLOT_ERROR = 1
#: Iterations, digest bits, raw bits, raw present.
_RESULT = struct.Struct(">IIIB")
#: Type-name bytes, message bytes.
_ERROR = struct.Struct(">HI")


class TaskError(NamedTuple):
    """A task that raised on the worker, as its ``round_result`` slot."""

    #: The worker-side exception's type name.
    type_name: str
    #: Its message.
    message: str


class ConnectionClosed(RemoteExecutionError):
    """The peer closed (or broke) the connection mid-conversation."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def pack_frame(payload: bytes) -> bytes:
    """One complete frame for ``payload`` (header plus bytes)."""
    return HEADER.pack(len(payload)) + payload


def send_raw_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one complete frame (header + payload) to ``sock``.

    The header and the payload go out as two buffers of one gathered
    write (``sendmsg``), so the payload is never copied behind its
    header; a partial write is finished with ``sendall``.
    """
    header = HEADER.pack(len(payload))
    sent = sock.sendmsg([header, payload])
    if sent < len(header) + len(payload):
        sock.sendall(header[sent:])
        sock.sendall(memoryview(payload)[max(0, sent - len(header)):])


def recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes`` from ``sock``.

    Loops over partial ``recv`` returns (TCP fragments large frames
    freely); raises :class:`ConnectionClosed` if the stream ends
    first.
    """
    if n_bytes == 0:
        return b""
    buffer = bytearray(n_bytes)
    view = memoryview(buffer)
    received = 0
    while received < n_bytes:
        chunk = sock.recv_into(view[received:], n_bytes - received)
        if chunk == 0:
            raise ConnectionClosed(
                f"connection closed after {received} of {n_bytes} "
                f"frame bytes")
        received += chunk
    return bytes(buffer)


def recv_raw_frame(sock: socket.socket) -> bytes:
    """Read one complete frame's payload from ``sock``."""
    header = recv_exact(sock, HEADER.size)
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteExecutionError(
            f"frame header announces {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt or hostile")
    return recv_exact(sock, length)


def send_frame(sock: socket.socket, message: Tuple) -> None:
    """Encode one ``(kind[, body])`` message and send it as a frame."""
    send_raw_frame(sock, encode(*message))


def recv_frame(sock: socket.socket) -> Tuple[int, Any]:
    """Read one frame and decode its ``(kind, body)`` message."""
    return decode(recv_raw_frame(sock))


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def encode(kind: int, body: Any = None, epoch: int = STREAM_EPOCH) -> bytes:
    """The payload of one message (``epoch`` stamps the header).

    ``body`` is a sequence of :class:`~repro.core.parallel.BankTask`
    for :data:`ROUND`, of ``BankResult`` / :class:`TaskError` slots
    for :data:`ROUND_RESULT`, a string for :data:`ERROR`, and ignored
    otherwise.  A value the schema cannot hold raises
    :class:`~repro.errors.ConfigurationError`.
    """
    parts = [MESSAGE_HEADER.pack(MAGIC, SCHEMA_VERSION, epoch, kind)]
    try:
        if kind == ROUND:
            parts.append(_COUNT.pack(len(body)))
            for task in body:
                parts.extend(_task_parts(task))
        elif kind == ROUND_RESULT:
            parts.append(_COUNT.pack(len(body)))
            for slot in body:
                parts.extend(_slot_parts(slot))
        elif kind == ERROR:
            text = _utf8(body)
            parts.extend([_COUNT.pack(len(text)), text])
        elif kind not in (PING, PONG):
            raise ConfigurationError(f"unknown message kind {kind!r}")
    except struct.error as exc:
        raise ConfigurationError(
            f"message does not fit the wire schema: {exc}") from None
    return b"".join(parts)


def _utf8(text: str) -> bytes:
    return str(text).encode("utf-8", "replace")


def _packed_size(rows: int, columns: int) -> int:
    return (rows * columns + 7) // 8


def _task_parts(task: BankTask) -> List[bytes]:
    hi = np.asarray(task.thresholds.hi)
    lo = np.asarray(task.thresholds.lo)
    if hi.ndim != 1 or hi.shape != lo.shape:
        raise ConfigurationError(
            "a task's thresholds must be two vectors of one entry per "
            "bitline")
    if np.any((hi < 0) | (hi > 255)) or np.any((lo < 0) | (lo > 2 ** 24)):
        raise ConfigurationError(
            "a task's thresholds must have hi in [0, 255] and lo in "
            "[0, 2**24]")
    key = task.thermal_key
    bounds = [bound for block in task.block_slices for bound in block]
    flags = _COLLECT_RAW if task.collect_raw else 0
    return [_TASK.pack(len(key), hi.size, len(task.block_slices),
                       task.iterations, task.first_iteration, flags),
            struct.pack(f">{len(key)}I", *key),
            hi.astype("u1", copy=False).tobytes(),
            lo.astype("<u4", copy=False).tobytes(),
            struct.pack(f">{len(bounds)}I", *bounds)]


def _slot_parts(slot) -> List[bytes]:
    if isinstance(slot, TaskError):
        name, message = _utf8(slot.type_name), _utf8(slot.message)
        return [_SLOT_TAG.pack(_SLOT_ERROR),
                _ERROR.pack(len(name), len(message)), name, message]
    has_raw = slot.raw is not None
    raw = bytes(slot.raw) if has_raw else b""
    if (len(slot.digests), len(raw)) != (
            _packed_size(slot.iterations, slot.digest_bits),
            _packed_size(slot.iterations, slot.raw_bits) if has_raw else 0):
        raise ConfigurationError(
            "a BankResult's bytes do not match its counts")
    return [_SLOT_TAG.pack(_SLOT_RESULT),
            _RESULT.pack(slot.iterations, slot.digest_bits, slot.raw_bits,
                         has_raw),
            bytes(slot.digests), raw]


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

class _Reader:
    """Bounds-checked cursor over one payload."""

    def __init__(self, payload: bytes) -> None:
        self._view = memoryview(payload)
        self._at = 0

    def remaining(self) -> int:
        return len(self._view) - self._at

    def take(self, n_bytes: int) -> memoryview:
        if n_bytes > self.remaining():
            raise RemoteExecutionError(
                f"message truncated: {n_bytes} bytes wanted at offset "
                f"{self._at}, {self.remaining()} present")
        chunk = self._view[self._at:self._at + n_bytes]
        self._at += n_bytes
        return chunk

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def count(self, min_item_bytes: int) -> int:
        """A count field, checked against the bytes its items need."""
        (count,) = self.unpack(_COUNT)
        if count * min_item_bytes > self.remaining():
            raise RemoteExecutionError(
                f"message announces {count} items but holds only "
                f"{self.remaining()} bytes")
        return count

    def array(self, dtype: str, count: int) -> np.ndarray:
        """A read-only view of the next ``count`` items."""
        dtype = np.dtype(dtype)
        array = np.frombuffer(self.take(count * dtype.itemsize), dtype)
        array.setflags(write=False)
        return array

    def text(self, n_bytes: int) -> str:
        return bytes(self.take(n_bytes)).decode("utf-8", "replace")


def decode(payload: bytes, epoch: int = STREAM_EPOCH) -> Tuple[int, Any]:
    """Decode one message payload into ``(kind, body)``.

    Raises :class:`~repro.errors.RemoteExecutionError` -- and nothing
    else -- for a payload this build must not act on: a foreign magic,
    schema version or stream epoch (``epoch`` is the reader's), an
    unknown kind, a count the bytes do not hold, trailing bytes, unknown
    task flags, or a refinement threshold ``lo`` above ``2**24``.
    """
    reader = _Reader(payload)
    magic, schema, frame_epoch, kind = reader.unpack(MESSAGE_HEADER)
    if magic != MAGIC:
        raise RemoteExecutionError(
            f"bad magic {bytes(magic)!r}: not a QUAC-TRNG message")
    if (schema, frame_epoch) != (SCHEMA_VERSION, epoch):
        raise RemoteExecutionError(
            f"message from schema {schema} at stream epoch "
            f"{frame_epoch}; this build reads schema {SCHEMA_VERSION} "
            f"at stream epoch {epoch}")
    if kind == ROUND:
        body = [_read_task(reader)
                for _ in range(reader.count(_TASK.size))]
    elif kind == ROUND_RESULT:
        body = [_read_slot(reader)
                for _ in range(reader.count(_SLOT_TAG.size))]
    elif kind == ERROR:
        (n_bytes,) = reader.unpack(_COUNT)
        body = reader.text(n_bytes)
    elif kind in (PING, PONG):
        body = None
    else:
        raise RemoteExecutionError(f"unknown message kind {kind}")
    if reader.remaining():
        raise RemoteExecutionError(
            f"{reader.remaining()} trailing bytes after a kind-{kind} "
            f"message")
    return kind, body


def _read_task(reader: _Reader) -> BankTask:
    (n_key, n_bits, n_blocks, iterations, first_iteration,
     flags) = reader.unpack(_TASK)
    if flags & ~_COLLECT_RAW:
        raise RemoteExecutionError(f"unknown task flags {flags:#x}")
    key = reader.array(">u4", n_key)
    hi = reader.array("u1", n_bits)
    lo = reader.array("<u4", n_bits)
    bounds = reader.array(">u4", 2 * n_blocks).reshape(n_blocks, 2)
    if np.any(lo > 2 ** 24):
        raise RemoteExecutionError(
            "task thresholds: every lo must be at most 2**24")
    # Views of the (immutable) payload, not copies: the conversion to
    # native byte order copies only on a big-endian host.
    lo = lo.astype(np.uint32, copy=False)
    lo.setflags(write=False)
    return BankTask(
        thermal_key=tuple(key.tolist()),
        thresholds=SettleThresholds(hi, lo),
        iterations=iterations,
        block_slices=tuple(map(tuple, bounds.tolist())),
        collect_raw=bool(flags & _COLLECT_RAW),
        first_iteration=first_iteration)


def _read_slot(reader: _Reader):
    (tag,) = reader.unpack(_SLOT_TAG)
    if tag == _SLOT_ERROR:
        n_name, n_message = reader.unpack(_ERROR)
        return TaskError(reader.text(n_name), reader.text(n_message))
    if tag != _SLOT_RESULT:
        raise RemoteExecutionError(f"unknown result slot tag {tag}")
    iterations, digest_bits, raw_bits, has_raw = reader.unpack(_RESULT)
    if has_raw > 1:
        raise RemoteExecutionError(f"bad raw-present flag {has_raw}")
    digests = bytes(reader.take(_packed_size(iterations, digest_bits)))
    raw = bytes(reader.take(_packed_size(iterations, raw_bits))) \
        if has_raw else None
    return BankResult(digests=digests, raw=raw, iterations=iterations,
                      digest_bits=digest_bits, raw_bits=raw_bits)
