"""Stubs over two backends: in-process dispatch and real sockets.

The paper's network proxies let the same invocation cross a real machine
boundary.  Simulated cross-node costs are :class:`~repro.ipc.network.Network`'s
business and never pass through this module; here, stubs are the
transport surface:

* :class:`Transport` — ``invoke`` / ``invoke_compound`` carry the
  operation surface :class:`RemoteStub`\\ s use, so client code is
  identical against both backends.

* :class:`SimulatedTransport` — ``invoke`` dispatches directly to
  exported objects in-process (used by the backend-parity tests and
  benchmarks); any simulated invocation costs are charged by the ops
  themselves.

* :class:`SocketServer` / :class:`SocketTransport` — a real TCP pair of
  plain blocking sockets speaking the :mod:`repro.ipc.wire` framing
  (both ends read frames with :func:`repro.ipc.wire.recv_message`), so
  a Spring stack can be split across OS processes: the server process
  exposes objects by name (``node.expose``) and serves each connection
  from its own thread, one request at a time server-wide; the client
  process binds :class:`RemoteStub`\\ s and invokes them with a
  ``sendall`` and a blocking read.  Socket failures map onto the same
  transient-error taxonomy the simulated fault plane uses — connect
  failures/timeouts become
  :class:`~repro.ipc.network.NetworkPartitionError`, a failed request
  write or a connection that dies before the reply becomes
  :class:`~repro.errors.NodeCrashedError`, and a reply timeout becomes
  :class:`~repro.errors.MessageDroppedError` — which is exactly what
  lets :meth:`~repro.ipc.retry.RetryPolicy.run` (send-only retries) and
  :class:`~repro.ipc.compound.CompoundInvocation` (one frame per batch)
  work unchanged on both backends.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    InvocationError,
    MessageDroppedError,
    NameNotFoundError,
    NodeCrashedError,
)
from repro.ipc import wire
from repro.ipc.network import NetworkPartitionError

#: Reserved op the socket transport's ``send`` uses: the server replies
#: None without touching any export — a pure round trip carrying the
#: request's payload bytes.
PING_OP = "*ping*"

#: Compound outcome statuses on the transport surface.
OK, ERRORED, SKIPPED = "ok", "error", "skipped"


class ExportRegistry:
    """Named objects reachable through a transport.

    The server-side half of the operation surface, shared by the
    simulated and socket backends so both resolve and execute ops —
    including compound batches — with identical semantics.  Only public
    methods (no leading underscore) are invokable.
    """

    def __init__(self, exports: Optional[Dict[str, Any]] = None) -> None:
        self.exports: Dict[str, Any] = exports if exports is not None else {}

    def expose(self, name: str, obj: Any) -> None:
        self.exports[name] = obj

    def resolve(self, target: str, op: str):
        try:
            obj = self.exports[target]
        except KeyError:
            raise NameNotFoundError(f"no export named {target!r}")
        if op.startswith("_") or op.startswith("*"):
            raise InvocationError(f"operation name {op!r} is not invokable")
        method = getattr(obj, op, None)
        if method is None or not callable(method):
            raise InvocationError(
                f"export {target!r} has no operation {op!r}"
            )
        return method

    def call(self, target: str, op: str, args: Sequence, kwargs: dict) -> Any:
        return self.resolve(target, op)(*args, **kwargs)

    def run_compound(
        self, calls: Sequence[Tuple[str, str, Sequence, dict]],
        fail_fast: bool = True,
    ) -> List[Tuple[str, Any]]:
        """Execute a batch; returns ``(status, value)`` per sub-op where
        status is OK (value = result), ERRORED (value = exception), or
        SKIPPED (fail-fast abort; value = None)."""
        outcomes: List[Tuple[str, Any]] = []
        failed = False
        for target, op, args, kwargs in calls:
            if failed and fail_fast:
                outcomes.append((SKIPPED, None))
                continue
            try:
                outcomes.append((OK, self.call(target, op, args, kwargs)))
            except Exception as exc:
                outcomes.append((ERRORED, exc))
                failed = True
        return outcomes


class Transport:
    """Abstract stub backend.  See module docstring."""

    def invoke(
        self, target: str, op: str, args: Sequence = (),
        kwargs: Optional[dict] = None, idempotent: bool = False,
    ) -> Any:
        raise NotImplementedError

    def invoke_compound(
        self, calls: Sequence[Tuple[str, str, Sequence, dict]],
        fail_fast: bool = True,
    ) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def bind(self, target: str, idempotent: Iterable[str] = ()) -> "RemoteStub":
        """A stub whose method calls go through this transport."""
        return RemoteStub(self, target, idempotent)

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return type(self).__name__


class SimulatedTransport(Transport):
    """The in-process backend: ``invoke`` dispatches directly to
    exported objects (any simulated invocation costs are charged by the
    ops themselves, exactly as for a local caller)."""

    def __init__(self, exports: Optional[Dict[str, Any]] = None,
                 registry: Optional[ExportRegistry] = None) -> None:
        self.registry = registry or ExportRegistry(exports)

    def invoke(self, target, op, args=(), kwargs=None, idempotent=False):
        return self.registry.call(target, op, args, kwargs or {})

    def invoke_compound(self, calls, fail_fast=True):
        return self.registry.run_compound(calls, fail_fast)


# --- real sockets -----------------------------------------------------------

#: How often :meth:`SocketServer.serve_forever` checks for a stop request.
_POLL_S = 0.05


class SocketServer:
    """Blocking TCP server hosting an export registry.

    Each client connection gets a handler thread that reads one framed
    request at a time and writes its reply.  Unpack, dispatch and pack
    run under one server-wide lock (waiting for bytes and sending do
    not), so requests are served one at a time across all connections
    — a Spring server domain's single-threaded determinism.
    ``fail_next_reply`` is the socket analogue of the simulated fault
    plane's crash injection: the op executes, then the connection drops
    before the reply — the client observes a mid-invoke server crash.

    Lifecycle: :meth:`start` binds and returns the port,
    :meth:`serve_forever` serves until :meth:`stop` (from another
    thread) or a served ``request_shutdown``.
    """

    def __init__(
        self,
        exports: Optional[Dict[str, Any]] = None,
        name: str = "server",
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[ExportRegistry] = None,
    ) -> None:
        self.registry = registry or ExportRegistry(exports)
        self.name = name
        self.host = host
        self.port = port
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.ops_served = 0
        self.compound_batches = 0
        self._fail_next_replies = 0
        self._shutdown_after_reply = False
        self._lock = threading.Lock()
        self._connections: set = set()
        self._tcp: Optional[_TCPServer] = None

    # --- fault injection / shutdown ------------------------------------
    def fail_next_reply(self, count: int = 1) -> None:
        """Drop the connection instead of replying to the next ``count``
        requests (after executing them) — a mid-invoke crash."""
        self._fail_next_replies += count

    def request_shutdown(self) -> None:
        """Stop serving after the currently executing request's reply is
        written (safe to call from inside a served operation)."""
        self._shutdown_after_reply = True

    # --- lifecycle ------------------------------------------------------
    def start(self) -> int:
        """Bind and listen; returns the bound port."""
        self._tcp = _TCPServer(self)
        self.port = self._tcp.server_address[1]
        return self.port

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop`; then close
        the listener and every open connection."""
        assert self._tcp is not None, "start() first"
        try:
            self._tcp.serve_forever(poll_interval=_POLL_S)
        finally:
            self._tcp.server_close()
            with self._lock:
                for sock in self._connections:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass  # the peer is already gone

    def stop(self) -> None:
        """Make :meth:`serve_forever` return; blocks until it has."""
        if self._tcp is not None:
            self._tcp.shutdown()

    # --- the serving loop ----------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._connections.add(sock)
        try:
            while True:
                try:
                    msg = wire.recv_message(sock, self._lock)
                except (wire.WireError, OSError):
                    break
                if msg is None:
                    break
                with self._lock:
                    self.frames_in += 1
                    reply = self._reply_for(msg)
                    if self._fail_next_replies > 0:
                        self._fail_next_replies -= 1
                        break  # crash: executed, never replied
                    # Counted before the send, so a client holding the
                    # reply never sees it uncounted.
                    self.frames_out += 1
                    self.bytes_out += len(reply)
                try:
                    sock.sendall(reply)
                except OSError:
                    break
                if self._shutdown_after_reply:
                    self.stop()
                    break
        finally:
            with self._lock:
                self._connections.discard(sock)

    def _reply_for(self, msg: wire.Message) -> bytes:
        self.bytes_in += msg.nbytes
        if msg.op == PING_OP:
            return wire.pack_frame(
                wire.REPLY, msg.seq, self.name, msg.src, msg.op, None
            )
        try:
            if msg.kind == wire.COMPOUND:
                self.compound_batches += 1
                outcomes = self.registry.run_compound(
                    [(c["target"], c["op"], c["args"], c["kwargs"])
                     for c in msg.payload["calls"]],
                    fail_fast=msg.payload["fail_fast"],
                )
                self.ops_served += sum(1 for status, _ in outcomes if status == OK)
                kind = wire.COMPOUND_REPLY
                value = [{"status": status, "value": result}
                         for status, result in outcomes]
            else:
                kind = wire.REPLY
                value = self.registry.call(
                    msg.payload["target"], msg.op,
                    msg.payload["args"], msg.payload["kwargs"],
                )
                self.ops_served += 1
        except Exception as exc:
            value = exc
            kind = wire.ERROR
        try:
            return wire.pack_frame(
                kind, msg.seq, self.name, msg.src, msg.op, value
            )
        except wire.WireEncodeError as exc:
            # The op returned something outside the wire type system;
            # surface that as the error rather than killing the stream.
            return wire.pack_frame(
                wire.ERROR, msg.seq, self.name, msg.src, msg.op, exc
            )


class _TCPServer(socketserver.ThreadingTCPServer):
    """The listener behind a :class:`SocketServer`: one daemon thread per
    connection, each running :meth:`SocketServer._serve_connection`."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True

    def __init__(self, owner: SocketServer) -> None:
        self.owner = owner
        super().__init__((owner.host, owner.port), None)

    def finish_request(self, request, client_address) -> None:
        self.owner._serve_connection(request)


class ServerThread:
    """Run a :class:`SocketServer`'s ``serve_forever`` in a daemon thread
    — the in-process harness tests and benchmarks use; a real
    deployment serves from its own OS process (``repro.serve``)."""

    def __init__(self, server: SocketServer) -> None:
        self.server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-socket-server",
            daemon=True,
        )

    def start(self) -> int:
        """Start serving; returns the bound port."""
        port = self.server.start()
        self._thread.start()
        return port

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            self.server.stop()
        self._thread.join(timeout=timeout)


class SocketTransport(Transport):
    """Client half of the real-socket backend.

    A blocking TCP connection: each ``invoke`` writes one request frame
    and reads the matching reply.  The connection is established lazily
    and re-established after any failure, so a healed server is
    reachable again on the next call.

    Failures map onto the transient-error taxonomy: a failed connect is
    :class:`~repro.ipc.network.NetworkPartitionError`, a failed request
    write or a connection that dies (or answers garbage) before the
    reply is :class:`~repro.errors.NodeCrashedError`, and no reply
    within ``reply_timeout_s`` is
    :class:`~repro.errors.MessageDroppedError`.  With a
    :class:`~repro.ipc.retry.RetryPolicy` installed, the send phase
    (connect + write — the server never saw the op) is retried; a
    failure while waiting for the reply means the op may have executed,
    so the whole exchange is retried only for ops declared idempotent.
    Backoff here is wall-clock — there is no virtual clock spanning two
    processes.
    """

    def __init__(
        self,
        host: str,
        port: int,
        src: str = "client",
        dst: str = "server",
        connect_timeout_s: float = 5.0,
        reply_timeout_s: float = 30.0,
        retry_policy=None,
    ) -> None:
        self.host = host
        self.port = port
        self.src = src
        self.dst = dst
        self.connect_timeout_s = connect_timeout_s
        self.reply_timeout_s = reply_timeout_s
        self.retry_policy = retry_policy
        self.messages = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.retries = 0
        self.reconnects = 0
        self._seq = 0
        self._sock: Optional[socket.socket] = None

    # --- connection management ------------------------------------------
    def _disconnect(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise NetworkPartitionError(
                f"connect to {self.host}:{self.port} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.reply_timeout_s)
        self.reconnects += 1
        self._sock = sock
        return sock

    def _send(self, kind: int, op: str, payload: Any) -> None:
        """The send phase: connect if needed and write one request
        frame.  A failure here means the server never saw the request."""
        sock = self._sock if self._sock is not None else self._connect()
        self._seq += 1
        frame = wire.pack_frame(kind, self._seq, self.src, self.dst, op, payload)
        try:
            sock.sendall(frame)
        except OSError as exc:
            self._disconnect()
            raise NodeCrashedError(
                f"request write to {self.dst!r} failed: {exc}"
            ) from exc
        self.messages += 1
        self.bytes_out += len(frame)

    def _receive(self, op: str) -> wire.Message:
        """Read the reply to the request just sent."""
        try:
            msg = wire.recv_message(self._sock)
        except socket.timeout as exc:
            self._disconnect()
            raise MessageDroppedError(
                f"no reply from {self.dst!r} within "
                f"{self.reply_timeout_s}s (op {op!r})"
            ) from exc
        except (wire.WireError, OSError) as exc:
            self._disconnect()
            raise NodeCrashedError(
                f"connection to {self.dst!r} died awaiting reply: {exc}"
            ) from exc
        if msg is None:
            self._disconnect()
            raise NodeCrashedError(
                f"server {self.dst!r} closed the connection mid-invoke "
                f"(op {op!r})"
            )
        if msg.seq != self._seq:
            self._disconnect()
            raise wire.WireError(
                f"reply seq {msg.seq} does not match request seq {self._seq}"
            )
        self.bytes_in += msg.nbytes
        return msg

    def _exchange(self, kind: int, op: str, payload: Any) -> wire.Message:
        self._send(kind, op, payload)
        return self._receive(op)

    def _call(self, kind: int, op: str, payload: Any,
              idempotent: bool) -> wire.Message:
        """One exchange.  Under a retry policy the send phase is always
        retried, the whole exchange only for idempotent ops."""
        policy = self.retry_policy
        if policy is None:
            return self._exchange(kind, op, payload)
        if idempotent:
            return policy.run(
                lambda: self._exchange(kind, op, payload), self._backoff
            )
        policy.run(lambda: self._send(kind, op, payload), self._backoff)
        return self._receive(op)

    def _backoff(self, backoff_us: float) -> None:
        self.retries += 1
        time.sleep(backoff_us / 1e6)

    # --- Transport surface ----------------------------------------------
    def send(self, src, dst, nbytes: int) -> None:
        """One real round trip carrying ``nbytes`` of payload: a ping
        the server answers without touching any export (``src``/``dst``
        are fixed by the connection and ignored)."""
        self._call(wire.REQUEST, PING_OP, b"\x00" * nbytes, idempotent=True)

    def invoke(self, target, op, args=(), kwargs=None, idempotent=False):
        msg = self._call(
            wire.REQUEST, op,
            {"target": target, "args": list(args), "kwargs": kwargs or {}},
            idempotent,
        )
        if msg.kind == wire.ERROR:
            raise msg.payload
        return msg.payload

    def invoke_compound(self, calls, fail_fast=True):
        payload = {
            "fail_fast": fail_fast,
            "calls": [
                {"target": target, "op": op, "args": list(args),
                 "kwargs": kwargs or {}}
                for target, op, args, kwargs in calls
            ],
        }
        msg = self._call(wire.COMPOUND, wire.COMPOUND_OP, payload, False)
        if msg.kind == wire.ERROR:
            raise msg.payload
        return [(entry["status"], entry["value"]) for entry in msg.payload]

    def describe(self) -> str:
        return f"SocketTransport({self.host}:{self.port})"


class RemoteStub:
    """Client-side handle to one exported object.

    Attribute access yields bound, batchable operations::

        fs = transport.bind("fs", idempotent=("stat", "pread"))
        fs.mkdir("logs")                 # one frame (or direct call)
        batch = CompoundInvocation(None)
        batch.add(fs.stat, "logs")       # queued ...
        batch.commit()                   # ... one compound frame
    """

    def __init__(self, transport: Transport, target: str,
                 idempotent: Iterable[str] = ()) -> None:
        self._transport = transport
        self._target = target
        self._idempotent = frozenset(idempotent)

    def __getattr__(self, op: str) -> "StubOperation":
        if op.startswith("_"):
            raise AttributeError(op)
        return StubOperation(self, op)

    def __repr__(self) -> str:
        return (
            f"<RemoteStub {self._target!r} via {self._transport.describe()}>"
        )


class StubOperation:
    """One bound stub operation — callable, and recognised by
    :class:`~repro.ipc.compound.CompoundInvocation` for batching."""

    __slots__ = ("_stub", "_op", "__name__")

    def __init__(self, stub: RemoteStub, op: str) -> None:
        self._stub = stub
        self._op = op
        self.__name__ = op

    @property
    def _wire_call(self) -> Tuple[Transport, str, str, bool]:
        stub = self._stub
        return (
            stub._transport, stub._target, self._op,
            self._op in stub._idempotent,
        )

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        transport, target, op, idempotent = self._wire_call
        return transport.invoke(target, op, args, kwargs, idempotent)
