"""Length-prefixed pickle frame codec for the remote backend.

The remote execution backend (:mod:`repro.core.remote`) and its worker
loop (:mod:`repro.core.remote.worker`) speak one wire format: a frame
is an 8-byte big-endian payload length followed by exactly that many
payload bytes.  Two layers share it:

* **Raw frames** (:func:`send_raw_frame` / :func:`recv_raw_frame`)
  move opaque byte strings -- including the empty one -- and are what
  the property/fuzz suite round-trips at randomized sizes;
* **Messages** (:func:`send_frame` / :func:`recv_frame`) pickle one
  Python object per frame.  Every protocol message is a tuple whose
  first element is one of the :data:`TASK` / :data:`RESULT` /
  :data:`ERROR` / :data:`PING` / :data:`PONG` / :data:`SHUTDOWN` /
  :data:`HELLO` / :data:`ROUND` / :data:`ROUND_RESULT` kind markers.

**Protocol versions.**  Version 1 (PR 4) ships one ``task`` message
per bank task.  Version 2 adds *round-shard execution*: a ``round``
message carries a :class:`RoundShard` -- one host's contiguous slice
of a planned harvest round, its bank tasks packed together in a
single frame -- and the worker answers with one ``round_result``
frame holding a per-task slot list (:data:`SLOT_OK` results and
:data:`SLOT_ERROR` exceptions, in task order).  A whole round
therefore costs one socket round trip per *host* instead of one per
*bank*.  Clients learn a worker's version through the ``hello``
handshake (:data:`HELLO` request and reply); a version-1 worker
answers ``hello`` with an ``error`` message ("unknown message kind"),
which clients read as version 1 and fall back to per-task shipping --
so round-capable clients interoperate with old workers with no
configuration.  The version covers message shapes, not task
semantics: the task function and task class travel by reference and
resolve to the worker's own build, so a build whose tasks would draw
a different stream must fail those tasks instead (see
:attr:`~repro.core.parallel.BankTask.thermal_key`).

The codec never buffers across frames and never splits one: a frame is
fully written with ``sendall`` and fully read before the next, so a
single connection carries an ordered request/response stream.  A peer
disappearing mid-frame (or before one) raises
:class:`ConnectionClosed`, which the backend treats as a dead worker
(requeue) and the worker treats as a departed client (drop the
connection).

Results cross this wire pickled; a
:class:`~repro.core.parallel.BankResult` is always packed, so a frame
carries bytes plus counts rather than bit matrices.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any, Tuple

from repro.errors import RemoteExecutionError

#: Frame header: payload byte count, 8-byte big-endian unsigned.
HEADER = struct.Struct(">Q")

#: Upper bound on a frame's payload (a malformed or misaligned header
#: otherwise asks ``recv`` for petabytes).  16 GiB clears any plausible
#: round result by orders of magnitude.
MAX_FRAME_BYTES = 16 * 1024 * 1024 * 1024

#: Message kind markers (first element of every message tuple).
TASK = "task"
RESULT = "result"
ERROR = "error"
PING = "ping"
PONG = "pong"
SHUTDOWN = "shutdown"
HELLO = "hello"
ROUND = "round"
ROUND_RESULT = "round_result"

#: The protocol version this build speaks (version 2: round shards).
PROTOCOL_VERSION = 2

#: First protocol version with ``round`` / ``round_result`` support;
#: a peer negotiated below this gets per-task shipping.
ROUND_PROTOCOL_VERSION = 2

#: Per-task outcome markers inside a ``round_result`` slot list.
SLOT_OK = "ok"
SLOT_ERROR = "error"


@dataclass(frozen=True)
class RoundShard:
    """One host's slice of a planned harvest round, shipped whole.

    The body of a ``round`` message: the slice's bank tasks packed
    together in one frame, so the worker executes them back to back
    and answers with a single ``round_result`` frame.  ``start`` is
    the slice's offset in the round's gather order -- diagnostic
    only; the client merges the reply by its own index bookkeeping,
    so a requeued (possibly non-contiguous) slice still lands
    slot-per-index.
    """

    #: Offset of ``tasks[0]`` in the planned round's task list.
    start: int
    #: The slice's tasks, in round order.
    tasks: Tuple[Any, ...]


def valid_round_slots(slots: Any, n_tasks: int) -> bool:
    """True when ``slots`` is a well-formed ``round_result`` body.

    A valid body is a sequence of exactly ``n_tasks`` 2-tuples, each
    ``(SLOT_OK, result)`` or ``(SLOT_ERROR, exception)``.  Anything
    else means the peer desynchronized (or is hostile) and the link
    must be treated as dead -- the round-protocol analogue of an
    absurd frame header.
    """
    if not isinstance(slots, (list, tuple)) or len(slots) != n_tasks:
        return False
    return all(isinstance(slot, tuple) and len(slot) == 2
               and slot[0] in (SLOT_OK, SLOT_ERROR) for slot in slots)


class ConnectionClosed(RemoteExecutionError):
    """The peer closed (or broke) the connection mid-conversation."""


def pack_frame(payload: bytes) -> bytes:
    """One complete frame for ``payload`` (header plus bytes)."""
    return HEADER.pack(len(payload)) + payload


def send_raw_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one complete frame (header + payload) to ``sock``."""
    sock.sendall(pack_frame(payload))


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


def send_frame(sock: socket.socket, message: Any) -> None:
    """Pickle one message object and send it as a frame."""
    send_raw_frame(sock,
                   pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame and unpickle its message object."""
    payload = recv_raw_frame(sock)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise RemoteExecutionError(
            f"could not unpickle a {len(payload)}-byte frame: {exc}")
