"""The real socket transport: framing, round trips, compound batches,
failure mapping, retries, and simulated/socket backend parity."""

import socket
import threading

import pytest

from repro.errors import (
    MessageDroppedError,
    NodeCrashedError,
    StorageError,
    TransientNetworkError,
    UnixError,
)
from repro.ipc import CompoundInvocation
from repro.ipc.network import NetworkPartitionError
from repro.ipc.retry import RetryPolicy
from repro.ipc import wire
from repro.ipc.transport import (
    ServerThread,
    SimulatedTransport,
    SocketServer,
    SocketTransport,
)
from repro.serve import Control, FileService, build_service
from repro.world import World


# --- harness ----------------------------------------------------------------

class ServedWorld:
    """One FileService world behind an in-process socket server."""

    def __init__(self, stack="sfs"):
        self.world, self.node, self.service = build_service(stack)
        self.server = self.node.serve()
        self.node.expose("fs", self.service)
        self.node.expose("control", Control(self.world, self.server))
        self.thread = ServerThread(self.server)
        self.port = self.thread.start()

    def client(self, **kwargs):
        kwargs.setdefault("dst", self.node.name)
        kwargs.setdefault("connect_timeout_s", 2.0)
        kwargs.setdefault("reply_timeout_s", 5.0)
        return SocketTransport("127.0.0.1", self.port, **kwargs)

    def stop(self):
        self.thread.stop()


@pytest.fixture
def served():
    harness = ServedWorld()
    yield harness
    harness.stop()


def closed_port() -> int:
    """A localhost port with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def raw_server(*handlers):
    """A scripted peer: listens on a localhost port and hands the n-th
    accepted connection to ``handlers[n]``.  Returns the port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            for handle in handlers:
                conn, _ = listener.accept()
                with conn:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    handle(conn)

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()[1]


def reply_to(conn, value="pong"):
    """Read one request from ``conn``; return the full reply frame."""
    msg = wire.recv_message(conn)
    return wire.pack_frame(wire.REPLY, msg.seq, "raw", msg.src, msg.op, value)


# --- wire format ------------------------------------------------------------

class TestWireCodec:
    def test_value_round_trip(self):
        values = [
            None, True, False, 0, -1, 2**62, -(2**70), 3.25, "héllo",
            b"\x00\xffbytes", [1, [2, 3]], ("a", None), {"k": {"n": 1}},
            [{"mixed": (b"x", 1.5, False)}],
        ]
        for value in values:
            assert wire.decode_value(wire.encode_value(value)) == value

    def test_tuple_list_distinction_survives(self):
        assert wire.decode_value(wire.encode_value((1, 2))) == (1, 2)
        assert isinstance(wire.decode_value(wire.encode_value([1, 2])), list)

    def test_file_attributes_struct(self):
        from repro.fs.attributes import FileAttributes
        from repro.storage.inode import FileType

        attrs = FileAttributes(
            size=77, atime_us=1, mtime_us=2, ctime_us=3,
            ftype=FileType.DIRECTORY, nlink=2,
        )
        back = wire.decode_value(wire.encode_value(attrs))
        assert back == attrs and isinstance(back.ftype, FileType)

    def test_exception_round_trip(self):
        exc = wire.decode_value(wire.encode_value(UnixError("ENOENT", "gone")))
        assert isinstance(exc, UnixError)
        assert exc.code == "ENOENT" and "gone" in str(exc)
        exc = wire.decode_value(wire.encode_value(NodeCrashedError("down")))
        assert isinstance(exc, NodeCrashedError)

    def test_unknown_exception_decodes_as_remote_error(self):
        fields = {"type": "SomethingWeird", "message": "boom"}
        exc = wire.exception_from_fields(fields)
        assert isinstance(exc, wire.RemoteError)
        assert exc.remote_type == "SomethingWeird"

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value(object())
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value({1: "non-string key"})

    def test_frame_round_trip(self):
        frame = wire.pack_frame(
            wire.REQUEST, 7, "client", "server", "stat",
            {"target": "fs", "args": ["a"], "kwargs": {}},
        )
        msg = wire.unpack_body(frame[4:])
        assert (msg.kind, msg.seq, msg.src, msg.dst, msg.op) == (
            wire.REQUEST, 7, "client", "server", "stat"
        )
        assert msg.payload["args"] == ["a"]

    def test_corrupt_frames_raise(self):
        frame = wire.pack_frame(wire.REPLY, 1, "a", "b", "op", None)
        with pytest.raises(wire.WireError):
            wire.unpack_body(frame[4:-1])          # truncated
        with pytest.raises(wire.WireError):
            wire.unpack_body(b"XX" + frame[6:])    # bad magic
        with pytest.raises(wire.WireError):
            wire.decode_value(b"\xfe")             # unknown tag


# --- round trips ------------------------------------------------------------

class TestSocketRoundTrip:
    def test_invoke_round_trip(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.mkdir("d")
            assert fs.write_file("d/x", b"payload") == 7
            assert fs.read_file("d/x") == b"payload"
            assert fs.listdir("") == ["d"]
            attrs = fs.stat("d/x")
            assert attrs.size == 7
        finally:
            client.close()

    def test_remote_errors_surface_typed(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            with pytest.raises(UnixError) as excinfo:
                fs.stat("missing")
            assert excinfo.value.code == "ENOENT"
        finally:
            client.close()

    def test_overlong_name_is_typed_and_leaks_nothing(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.mkdir("d")
            with pytest.raises(StorageError):
                fs.write_file("d/" + "x" * 300, b"hi")
            assert fs.listdir("d") == []
        finally:
            client.close()
        (volume,) = served.world._volumes
        assert volume.fsck() == []

    def test_ping_send_surface(self, served):
        client = served.client()
        try:
            client.send(None, None, 1024)  # raw round trip, 1 KB payload
            assert client.messages == 1
            assert client.bytes_out > 1024
        finally:
            client.close()

    def test_compound_batch_one_frame(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.mkdir("d")
            for name in ("a", "b", "c"):
                fs.write_file(f"d/{name}", name.encode())
            frames = client.messages
            batch = CompoundInvocation()
            batch.add(fs.stat, "d/a")
            batch.add(fs.stat, "d/b")
            batch.add(fs.stat, "d/c")
            result = batch.commit()
            assert client.messages - frames == 1
            assert served.server.compound_batches == 1
            assert [a.size for a in result.values()] == [1, 1, 1]
        finally:
            client.close()

    def test_compound_fail_fast_demux(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.write_file("ok", b"fine")
            batch = CompoundInvocation()
            batch.add(fs.stat, "ok")
            batch.add(fs.stat, "missing")
            batch.add(fs.stat, "ok")
            result = batch.commit()
            assert not result.ok and result.failed_index == 1
            assert result[0].size == 4
            assert isinstance(result.error.cause, UnixError)
            from repro.ipc import CompoundSubOpError

            with pytest.raises(CompoundSubOpError):
                result[2]  # skipped: raises the aborting failure
        finally:
            client.close()


# --- failure mapping and retries --------------------------------------------

class TestFailureMapping:
    def test_connect_refused_is_partition(self):
        client = SocketTransport(
            "127.0.0.1", closed_port(), connect_timeout_s=0.5
        )
        try:
            with pytest.raises(NetworkPartitionError):
                client.bind("fs").stat("x")
        finally:
            client.close()

    def test_connect_error_is_transient(self):
        client = SocketTransport(
            "127.0.0.1", closed_port(), connect_timeout_s=0.5
        )
        try:
            with pytest.raises(TransientNetworkError):
                client.invoke("fs", "stat", ("x",))
        finally:
            client.close()

    def test_server_crash_mid_invoke(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.write_file("f", b"data")
            served.server.fail_next_reply()
            # The op executes server-side but the reply never arrives.
            with pytest.raises(NodeCrashedError):
                fs.stat("f")
            # The transport reconnects on the next call.
            assert fs.stat("f").size == 4
        finally:
            client.close()

    def test_idempotent_retry_covers_crash(self, served):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = served.client(retry_policy=policy)
        try:
            fs = client.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
            fs.write_file("f", b"data")
            served.server.fail_next_reply()
            # stat is declared idempotent: the lost reply is retried
            # through a fresh connection and succeeds.
            assert fs.stat("f").size == 4
            assert client.retries == 1
        finally:
            client.close()

    def test_mutating_op_not_retried_on_lost_reply(self, served):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = served.client(retry_policy=policy)
        try:
            fs = client.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
            served.server.fail_next_reply()
            # write_file executed server-side; resending could double-
            # apply, so the crash surfaces instead.
            with pytest.raises(NodeCrashedError):
                fs.write_file("f", b"data")
            assert client.retries == 0
        finally:
            client.close()

    def test_send_phase_retry_after_refused(self):
        # Nothing listens yet: with a policy the connect failures back
        # off and surface only after the attempts are exhausted.
        policy = RetryPolicy(
            max_attempts=3, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = SocketTransport(
            "127.0.0.1", closed_port(),
            connect_timeout_s=0.2, retry_policy=policy,
        )
        try:
            with pytest.raises(NetworkPartitionError):
                client.invoke("fs", "listdir", ())
            assert client.retries == 2  # 3 attempts = 2 retries
        finally:
            client.close()


class TestBlockingWire:
    def test_silent_server_is_dropped_message(self):
        def never_reply(conn):
            wire.recv_message(conn)
            conn.recv(1)  # hold the connection until the client gives up

        client = SocketTransport(
            "127.0.0.1", raw_server(never_reply), reply_timeout_s=0.2
        )
        try:
            with pytest.raises(MessageDroppedError):
                client.invoke("c", "ping", ())
        finally:
            client.close()

    def test_reply_trickled_one_byte_per_send(self):
        def trickle(conn):
            for byte in reply_to(conn, {"data": b"x" * 300, "n": 7}):
                conn.send(bytes([byte]))

        client = SocketTransport("127.0.0.1", raw_server(trickle))
        try:
            assert client.invoke("c", "get", ()) == {"data": b"x" * 300, "n": 7}
        finally:
            client.close()

    def test_reply_cut_mid_body_then_reconnect(self):
        def cut(conn):
            frame = reply_to(conn, b"y" * 100)
            conn.sendall(frame[: len(frame) // 2])

        def whole(conn):
            conn.sendall(reply_to(conn, b"y" * 100))

        client = SocketTransport("127.0.0.1", raw_server(cut, whole))
        try:
            with pytest.raises(NodeCrashedError):
                client.invoke("c", "get", ())
            assert client.invoke("c", "get", ()) == b"y" * 100
            assert client.reconnects == 2
        finally:
            client.close()

    def test_two_connections_interleave(self, served):
        clients = [served.client(), served.client()]
        errors = []

        def work(index, client):
            fs = client.bind("fs")
            try:
                for round_ in range(40):
                    body = f"{index}:{round_}".encode()
                    fs.write_file(f"f{index}", body)
                    assert fs.read_file(f"f{index}") == body
            except Exception as exc:  # reported below, not lost in a thread
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(index, client))
            for index, client in enumerate(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()
        assert errors == []
        assert sum(client.messages for client in clients) == 160
        assert served.server.frames_in == served.server.frames_out == 160

    def test_malformed_compound_gets_error_reply(self, served):
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.sendall(wire.pack_frame(
                wire.COMPOUND, 1, "raw", "server", wire.COMPOUND_OP, {}
            ))
            reply = wire.recv_message(sock)
            assert reply.kind == wire.ERROR and reply.seq == 1
            # The handler survived: the same connection still serves.
            sock.sendall(wire.pack_frame(
                wire.REQUEST, 2, "raw", "server", "ping",
                {"target": "control", "args": [], "kwargs": {}},
            ))
            reply = wire.recv_message(sock)
            assert (reply.kind, reply.payload) == (wire.REPLY, "pong")


# --- backend parity ---------------------------------------------------------

def run_script(fs, control):
    """A scripted op sequence; returns every outcome (values and typed
    errors) so two backends can be compared verbatim."""
    out = []
    out.append(control.ping())
    out.append(fs.mkdir("dir"))
    out.append(fs.write_file("dir/a", b"alpha"))
    out.append(fs.write_file("dir/b", b"bee"))
    out.append(fs.read_file("dir/a"))
    out.append(fs.listdir(""))
    out.append(fs.listdir("dir"))
    out.append(fs.stat("dir/a"))
    try:
        fs.stat("nope")
    except UnixError as exc:
        out.append(("error", type(exc).__name__, exc.code))
    batch = CompoundInvocation()
    batch.add(fs.stat, "dir/a")
    batch.add(fs.stat, "nope")
    batch.add(fs.stat, "dir/b")
    result = batch.commit()
    out.append(result[0])
    out.append(("failed_index", result.failed_index))
    out.append(fs.unlink("dir/b"))
    out.append(fs.listdir("dir"))
    return out


class TestBackendParity:
    def test_simulated_and_socket_backends_agree(self, served):
        # Socket backend: a served world driven over TCP.
        client = served.client()
        try:
            socket_out = run_script(
                client.bind("fs"), client.bind("control")
            )
        finally:
            client.close()

        # Simulated backend: an identical world driven through the
        # in-process transport — same stub code path, no sockets.
        world, node, service = build_service("sfs")
        node.expose("fs", service)
        node.expose("control", Control(world))
        simulated = SimulatedTransport(node.exports)
        sim_out = run_script(
            simulated.bind("fs"), simulated.bind("control")
        )
        assert sim_out == socket_out


class TestServerThread:
    def test_port_zero_assigns_port(self):
        server = SocketServer({"c": Control(World())})
        thread = ServerThread(server)
        port = thread.start()
        try:
            assert port > 0
            client = SocketTransport("127.0.0.1", port)
            assert client.bind("c").ping() == "pong"
            client.close()
        finally:
            thread.stop()

    def test_stop_closes_open_connections(self):
        server = SocketServer({"c": Control(World())})
        thread = ServerThread(server)
        client = SocketTransport("127.0.0.1", thread.start(),
                                 connect_timeout_s=0.5)
        try:
            assert client.bind("c").ping() == "pong"
            thread.stop()
            # A stopped server serves nothing: the live connection is
            # closed under the client, and the listener is gone.
            with pytest.raises(NodeCrashedError):
                client.bind("c").ping()
            with pytest.raises(NetworkPartitionError):
                client.bind("c").ping()
        finally:
            client.close()

    def test_unknown_export_and_private_ops_rejected(self):
        from repro.errors import InvocationError, NameNotFoundError

        server = SocketServer({"c": Control(World())})
        thread = ServerThread(server)
        port = thread.start()
        client = SocketTransport("127.0.0.1", port)
        try:
            with pytest.raises(NameNotFoundError):
                client.invoke("nope", "ping", ())
            with pytest.raises(InvocationError):
                client.invoke("c", "_world", ())
            with pytest.raises(InvocationError):
                client.invoke("c", "no_such_op", ())
        finally:
            client.close()
            thread.stop()
