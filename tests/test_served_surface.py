"""The served ``fs`` surface is exactly the ops docs/SERVING.md lists.

``FileService`` inherits every public ``Posix`` method, so a new public
method there is a new wire op; this pins the surface on both stub
backends so that such a change is deliberate."""

import pathlib
import re

import pytest

from repro.errors import InvocationError
from repro.ipc.transport import ServerThread, SimulatedTransport, SocketTransport
from repro.serve import FileService, build_service
from repro.unix.posixlike import O_RDWR

SERVING_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "SERVING.md"


def documented_ops():
    """The backticked names in SERVING.md's ``fs`` bullet."""
    text = SERVING_MD.read_text()
    bullet = text[text.index("* `fs` —"):text.index("* `control` —")]
    names = set(re.findall(r"`(\w+)`", bullet))
    return names - {"fs", "FileService", "Posix"}


def exercise(invoke):
    """Call every op once with real arguments; returns the ops called."""
    called = []

    def call(op, *args):
        called.append(op)
        return invoke(op, *args)

    assert call("mkdir", "d") is None
    assert call("write_file", "d/a", b"abc") == 3
    assert call("read_file", "d/a") == b"abc"
    fd = call("open", "d/a", O_RDWR)
    assert call("write", fd, b"xy") == 2
    assert call("lseek", fd, 0, 0) == 0
    assert call("read", fd, 3) == b"xyc"
    assert call("pwrite", fd, b"Z", 2) == 1
    assert call("pread", fd, 3, 0) == b"xyZ"
    call("ftruncate", fd, 2)
    call("fsync", fd)
    assert call("fstat", fd).size == 2
    assert call("open_fds") == 1
    call("close", fd)
    assert call("stat", "d/a").size == 2
    call("rename", "d/a", "d/b")
    assert call("listdir", "d") == ["b"]
    call("unlink", "d/b")
    return set(called)


@pytest.fixture(params=["simulated", "socket"])
def transport(request):
    world, node, service = build_service("sfs")
    node.expose("fs", service)
    if request.param == "simulated":
        yield SimulatedTransport(node.exports)
        return
    thread = ServerThread(node.serve())
    client = SocketTransport(
        "127.0.0.1", thread.start(), dst=node.name,
        connect_timeout_s=2.0, reply_timeout_s=5.0,
    )
    yield client
    client.close()
    thread.stop()


def test_documented_ops_are_the_public_callables():
    _, _, service = build_service("sfs")
    public = {
        name for name in dir(service)
        if not name.startswith("_") and callable(getattr(service, name))
    }
    assert len(documented_ops()) == 18
    assert public == documented_ops()
    assert set(FileService.IDEMPOTENT_OPS) <= public


def test_every_documented_op_is_invokable(transport):
    called = exercise(
        lambda op, *args: transport.invoke("fs", op, args)
    )
    assert called == documented_ops()


@pytest.mark.parametrize(
    "op", ["root", "domain", "_fds", "_split_path", "IDEMPOTENT_OPS"]
)
def test_state_and_private_names_are_not_invokable(transport, op):
    with pytest.raises(InvocationError, match="not invokable|no operation"):
        transport.invoke("fs", op)
