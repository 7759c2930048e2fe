"""The remote generation worker: serve bank-task rounds over a socket.

One worker process is one *host* in a sharded generation deployment: it
listens on a TCP port, accepts connections from
:class:`~repro.core.remote.RemoteBackend` clients, and answers each
``round`` message -- one host's slice of a planned harvest round,
decoded from the :mod:`repro.core.remote.wire` schema into
:class:`~repro.core.parallel.BankTask` objects -- by running
:func:`~repro.core.parallel.run_bank_task` on every task and sending
one ``round_result`` frame back (:func:`run_round_shard`).  That is
the only code a worker runs for a peer; no callable crosses the wire.

Workers are deliberately *stateless*: a task carries everything it
needs (thermal key and first iteration, settling probabilities, SHA
input block slices), so a worker can be killed and its tasks
requeued onto any other worker without moving a bit of output.  Each
connection is served by its own thread, requests within a connection
strictly in order.

A task that *raises* fills its slot with a
:class:`~repro.core.remote.wire.TaskError` and its shard-mates still
run.  A frame this worker cannot decode -- another schema or stream
epoch, an unknown kind, or a malformed body -- gets an ``error`` reply
and runs nothing.  No message stops a worker; only the process that
runs :func:`serve` can (its ``stop`` event, or a signal).

Run a host manually::

    PYTHONPATH=src python -m repro.core.remote.worker --port 9123

or let :class:`~repro.core.remote.LocalCluster` spawn localhost workers
(``--port 0 --announce`` makes the worker print the ephemeral port it
bound, which is how the cluster learns where its subprocesses listen).

.. warning::
   **Trusted networks only.**  No code crosses the wire, but frames
   are neither authenticated nor encrypted: anyone on the path can
   read the random bits a worker serves, and anyone who can connect
   can make it compute.  Bind workers to localhost (the default) or a
   trusted, isolated network segment.
"""

from __future__ import annotations

import argparse
import socket
import threading
from typing import List, Optional, Sequence, Tuple

from repro.core.parallel import BankTask, run_bank_task
from repro.core.remote import wire
from repro.errors import RemoteExecutionError
from repro.rng import STREAM_EPOCH

#: Line printed (with the bound port) under ``--announce``.
ANNOUNCE_PREFIX = "QUAC-REMOTE-WORKER"

#: Accept-loop poll interval; bounds shutdown latency.
_ACCEPT_POLL_S = 0.5


def run_round_shard(tasks: Sequence[BankTask]) -> List:
    """Run one round shard's tasks in order; return their slots.

    Each slot is the task's :class:`~repro.core.parallel.BankResult`,
    or a :class:`~repro.core.remote.wire.TaskError` when the task
    raised -- one failing task never aborts its shard-mates.
    """
    slots: List = []
    for task in tasks:
        try:
            slots.append(run_bank_task(task))
        except Exception as exc:
            slots.append(wire.TaskError(type(exc).__name__, str(exc)))
    return slots


def answer(payload: bytes, epoch: int = STREAM_EPOCH) -> Tuple:
    """This worker's reply message to one request payload.

    ``epoch`` is the stream epoch of the build answering; a request
    from any other epoch (or schema, or a malformed one) is refused
    with an ``error`` reply before any task runs.
    """
    try:
        kind, body = wire.decode(payload, epoch)
    except RemoteExecutionError as exc:
        return wire.ERROR, f"worker refused a frame: {exc}"
    if kind == wire.ROUND:
        return wire.ROUND_RESULT, run_round_shard(body)
    if kind == wire.PING:
        return (wire.PONG,)
    return wire.ERROR, f"a worker does not answer message kind {kind}"


def _serve_connection(conn: socket.socket, stop: threading.Event) -> None:
    """Answer one client's messages until it disconnects."""
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while not stop.is_set():
            try:
                payload = wire.recv_raw_frame(conn)
            except (OSError, RemoteExecutionError):
                # Peer gone, or the stream is desynchronized (absurd
                # header): nothing sane to answer on this connection.
                return
            try:
                wire.send_frame(conn, answer(payload))
            except OSError:
                return
    finally:
        conn.close()


def serve(port: int, host: str = "127.0.0.1", announce: bool = False,
          stop: Optional[threading.Event] = None) -> None:
    """Listen on ``host:port`` and serve task connections until stopped.

    ``port=0`` binds an ephemeral port; ``announce=True`` prints
    ``QUAC-REMOTE-WORKER <port>`` to stdout once listening (the
    :class:`~repro.core.remote.LocalCluster` handshake).  ``stop`` is
    an optional kill switch for the process that runs the loop; no
    message a client sends can stop a worker.
    """
    stop = stop if stop is not None else threading.Event()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        listener.settimeout(_ACCEPT_POLL_S)
        if announce:
            print(f"{ANNOUNCE_PREFIX} {listener.getsockname()[1]}",
                  flush=True)
        while not stop.is_set():
            try:
                conn, _address = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=_serve_connection, args=(conn, stop),
                             daemon=True).start()
    finally:
        listener.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="QUAC-TRNG remote generation worker")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on (default localhost)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (0 = ephemeral)")
    parser.add_argument("--announce", action="store_true",
                        help="print the bound port to stdout once "
                             "listening")
    args = parser.parse_args(argv)
    serve(args.port, host=args.host, announce=args.announce)


if __name__ == "__main__":
    main()
