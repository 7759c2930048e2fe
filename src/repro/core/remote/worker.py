"""The remote generation worker: serve bank tasks over a socket.

One worker process is one *host* in a sharded generation deployment: it
listens on a TCP port, accepts connections from
:class:`~repro.core.remote.RemoteBackend` clients, and answers each
``(task, …)`` message by executing the shipped function on the shipped
task and returning the result -- the exact
``result = fn(task)`` contract every in-process backend honors, moved
across a length-prefixed pickle socket (:mod:`repro.core.remote.wire`).

Workers are deliberately *stateless*: a task carries everything it
needs (:class:`~repro.core.parallel.BankTask` travels with its thermal
key and first iteration, settling probabilities, and conditioning
parameters), so a worker can be killed and its tasks requeued onto any
other worker without moving a bit of output.  Each connection is
served by its own thread, requests within a connection strictly in
order.

Two execution protocols share one loop.  The per-task protocol
(version 1) answers each ``task`` message with one ``result``; the
round protocol (version 2) answers a ``round`` message -- a
:class:`~repro.core.remote.wire.RoundShard` carrying a whole slice of
a planned harvest round -- with a single ``round_result`` frame of
per-task outcome slots (:func:`run_round_shard`), cutting the
client's socket round trips from one per bank to one per host.
Clients discover the version through the ``hello`` handshake;
``--protocol-version 1`` clamps a worker to the per-task protocol
(it then answers ``hello`` and ``round`` with "unknown message kind"
errors, exactly as a pre-round build would), which is how the
version-negotiation tests and mixed-version clusters exercise the
fallback path.

Run a host manually::

    PYTHONPATH=src python -m repro.core.remote.worker --port 9123

or let :class:`~repro.core.remote.LocalCluster` spawn localhost workers
(``--port 0 --announce`` makes the worker print the ephemeral port it
bound, which is how the cluster learns where its subprocesses listen).

A task function that *raises* ships its exception back in an ``error``
message and the backend re-raises it; only transport failures (the
connection dying) count as a dead worker.

.. warning::
   **The wire is pickle over plain TCP: any peer that can connect to
   a worker gets arbitrary code execution** (and a client symmetrically
   unpickles worker replies).  Run workers bound to localhost (the
   default) or on a trusted, isolated network segment only -- never on
   an interface reachable from untrusted hosts.  Transport
   authentication/TLS is a ROADMAP item, not a current feature.
"""

from __future__ import annotations

import argparse
import pickle
import socket
import threading
from typing import Callable, List, Optional, Tuple

from repro.core.remote import wire
from repro.errors import ConfigurationError, RemoteExecutionError

#: Line printed (with the bound port) under ``--announce``.
ANNOUNCE_PREFIX = "QUAC-REMOTE-WORKER"

#: Accept-loop poll interval; bounds shutdown latency.
_ACCEPT_POLL_S = 0.5


def shippable_exception(exc: BaseException) -> BaseException:
    """An exception safe to pickle into an ``error`` message.

    Most exceptions pickle as themselves; one that cannot (custom
    ``__init__`` signatures, unpicklable attributes) degrades to a
    :class:`~repro.errors.RemoteExecutionError` carrying its repr --
    the client still gets *an* exception naming the failure.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RemoteExecutionError(
            f"task raised an unpicklable {type(exc).__name__}: {exc!r}")


def _shippable_slots(slots: List[Tuple[str, object]]
                     ) -> List[Tuple[str, object]]:
    """Degrade a slot list whose reply would not pickle, per slot.

    Only consulted when sending a ``round_result`` frame failed: the
    offending result(s) become shipped errors while every other
    slot's result still travels -- matching per-task shipping, where
    one unshippable result fails one task, never its shard-mates.
    """
    safe: List[Tuple[str, object]] = []
    for status, payload in slots:
        if status == wire.SLOT_OK:
            try:
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                status = wire.SLOT_ERROR
                payload = RemoteExecutionError(
                    f"task result could not be shipped: {exc}")
        safe.append((status, payload))
    return safe


def run_round_shard(fn: Callable,
                    shard: "wire.RoundShard") -> List[Tuple[str, object]]:
    """Execute one round shard locally; return its per-task slots.

    The worker half of the round protocol: every task in the shard
    runs back to back (in shard order, which is round order), and the
    outcomes ship back in one ``round_result`` frame -- a list of
    ``(SLOT_OK, result)`` / ``(SLOT_ERROR, exception)`` slots aligned
    with the shard's tasks.  One task raising never aborts the shard:
    its slot carries the (shippable) exception and the later tasks
    still execute, exactly as they would under per-task shipping.
    """
    slots: List[Tuple[str, object]] = []
    for task in shard.tasks:
        try:
            slots.append((wire.SLOT_OK, fn(task)))
        except BaseException as exc:
            slots.append((wire.SLOT_ERROR, shippable_exception(exc)))
    return slots


def _serve_connection(conn: socket.socket, stop: threading.Event,
                      protocol_version: int = wire.PROTOCOL_VERSION
                      ) -> None:
    """Answer one client's messages until it disconnects."""
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while not stop.is_set():
            try:
                payload = wire.recv_raw_frame(conn)
            except (wire.ConnectionClosed, OSError,
                    RemoteExecutionError):
                # Peer gone, or the stream is desynchronized (absurd
                # header): nothing sane to answer on this connection.
                return
            try:
                message = pickle.loads(payload)
            except Exception as exc:
                # The frame itself was fully read, so the connection
                # is still in sync -- answer the client instead of
                # dropping it (a task whose module this worker cannot
                # import is that *task's* failure, not a dead worker).
                try:
                    wire.send_frame(conn, (wire.ERROR,
                                           RemoteExecutionError(
                        f"worker could not unpickle a task frame: "
                        f"{type(exc).__name__}: {exc}")))
                    continue
                except OSError:
                    return
            kind = message[0]
            if kind == wire.TASK:
                _, fn, task = message
                try:
                    reply = (wire.RESULT, fn(task))
                except BaseException as exc:
                    reply = (wire.ERROR, shippable_exception(exc))
            elif kind == wire.ROUND and \
                    protocol_version >= wire.ROUND_PROTOCOL_VERSION:
                _, fn, shard = message
                reply = (wire.ROUND_RESULT, run_round_shard(fn, shard))
            elif kind == wire.HELLO and \
                    protocol_version >= wire.ROUND_PROTOCOL_VERSION:
                reply = (wire.HELLO, protocol_version)
            elif kind == wire.PING:
                reply = (wire.PONG,)
            elif kind == wire.SHUTDOWN:
                try:
                    wire.send_frame(conn, (wire.SHUTDOWN,))
                finally:
                    stop.set()
                return
            else:
                reply = (wire.ERROR, RemoteExecutionError(
                    f"unknown message kind {kind!r}"))
            try:
                wire.send_frame(conn, reply)
            except OSError:
                return
            except Exception as exc:
                # The result itself would not pickle; the client still
                # deserves an answer on this connection.  A round reply
                # degrades slot by slot, so one unshippable result
                # fails one task, never its shard-mates.
                try:
                    if reply[0] == wire.ROUND_RESULT:
                        wire.send_frame(conn, (wire.ROUND_RESULT,
                                               _shippable_slots(reply[1])))
                    else:
                        wire.send_frame(conn, (wire.ERROR,
                                               RemoteExecutionError(
                            f"task result could not be shipped: {exc}")))
                except OSError:
                    return  # client gone mid-degradation: same as above
    finally:
        conn.close()


def serve(port: int, host: str = "127.0.0.1", announce: bool = False,
          stop: Optional[threading.Event] = None,
          protocol_version: int = wire.PROTOCOL_VERSION) -> None:
    """Listen on ``host:port`` and serve task connections until stopped.

    ``port=0`` binds an ephemeral port; ``announce=True`` prints
    ``QUAC-REMOTE-WORKER <port>`` to stdout once listening (the
    :class:`~repro.core.remote.LocalCluster` handshake).  ``stop`` is
    an optional external kill switch; a client's ``shutdown`` message
    sets it too.  ``protocol_version=1`` clamps the worker to the
    per-task protocol (answering ``hello`` / ``round`` like a
    pre-round build), for version-negotiation tests and staged
    rollouts across mixed-version clusters.
    """
    if not 1 <= protocol_version <= wire.PROTOCOL_VERSION:
        raise ConfigurationError(
            f"cannot serve protocol version {protocol_version}; this "
            f"build speaks 1..{wire.PROTOCOL_VERSION}")
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
            thread = threading.Thread(target=_serve_connection,
                                      args=(conn, stop, protocol_version),
                                      daemon=True)
            thread.start()
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
    parser.add_argument("--protocol-version", type=int,
                        default=wire.PROTOCOL_VERSION,
                        choices=range(1, wire.PROTOCOL_VERSION + 1),
                        help="clamp the served protocol (1 = per-task "
                             "shipping only, as a pre-round build)")
    args = parser.parse_args(argv)
    serve(args.port, host=args.host, announce=args.announce,
          protocol_version=args.protocol_version)


if __name__ == "__main__":
    main()
