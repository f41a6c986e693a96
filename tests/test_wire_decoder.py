"""The wire decoder is total: any byte string either decodes to a
:class:`~repro.ipc.wire.Message` (or value) or raises
:class:`~repro.ipc.wire.WireError` — never a stray ``TypeError``,
``UnicodeDecodeError`` or ``RecursionError``."""

import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnixError
from repro.fs.attributes import FileAttributes
from repro.ipc import wire
from repro.storage.inode import FileType

ATTRS = FileAttributes(
    size=4096, atime_us=1, mtime_us=2, ctime_us=3,
    ftype=FileType.REGULAR, nlink=1,
)

#: Real frames of every kind, carrying every value tag.
FRAMES = [
    wire.pack_frame(
        wire.REQUEST, 1, "client", "server", "pwrite",
        {"target": "fs", "args": [3, b"\x00\xff" * 8, 4096], "kwargs": {}},
    ),
    wire.pack_frame(
        wire.COMPOUND, 2, "client", "server", wire.COMPOUND_OP,
        {"fail_fast": True, "calls": [
            {"target": "fs", "op": "stat", "args": ["d/a"], "kwargs": {}},
            {"target": "fs", "op": "listdir", "args": [], "kwargs": {"path": "d"}},
        ]},
    ),
    wire.pack_frame(wire.REPLY, 3, "server", "client", "stat", ATTRS),
    wire.pack_frame(
        wire.ERROR, 4, "server", "client", "stat", UnixError("ENOENT", "gone"),
    ),
    wire.pack_frame(
        wire.COMPOUND_REPLY, 5, "server", "client", wire.COMPOUND_OP,
        [{"status": "ok", "value": (1.5, -(2**70), None, True, False)},
         {"status": "error", "value": KeyError("k")},
         {"status": "skipped", "value": None}],
    ),
]

_position = st.integers(min_value=0, max_value=2**16)
_mutation = st.one_of(
    st.tuples(st.just("flip"), _position, st.integers(1, 255)),
    st.tuples(st.just("insert"), _position, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _position, st.integers(1, 8)),
    st.tuples(st.just("truncate"), _position, st.none()),
)


def mutate(frame: bytes, mutations) -> bytes:
    data = bytearray(frame)
    for kind, position, arg in mutations:
        at = position % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= arg
        elif kind == "insert":
            data[at:at] = arg
        elif kind == "delete":
            del data[at:at + arg]
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FRAMES),
    st.lists(_mutation, min_size=1, max_size=4),
)
def test_mutated_frames_yield_message_or_wire_error(frame, mutations):
    data = mutate(frame, mutations)
    # The body decoder alone (length prefix skipped) ...
    try:
        assert isinstance(wire.unpack_body(data[4:]), wire.Message)
    except wire.WireError:
        pass
    # ... and the frame reader, length prefix and EOF rules included.
    reader, writer = socket.socketpair()
    with reader, writer:
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        try:
            message = wire.recv_message(reader)
        except wire.WireError:
            return
        assert message is None if not data else isinstance(message, wire.Message)


def test_unmutated_frames_decode():
    for frame in FRAMES:
        assert isinstance(wire.unpack_body(frame[4:]), wire.Message)


class TestMalformedValues:
    def test_deep_nesting_is_rejected(self):
        deep = b"\x08\x00\x00\x00\x01" * 100_000 + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode_value(deep)

    def test_nesting_at_the_cap_round_trips(self):
        value = None
        for _ in range(wire.MAX_DEPTH):
            value = [value]
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_encoder_refuses_what_the_decoder_rejects(self):
        value = None
        for _ in range(wire.MAX_DEPTH + 1):
            value = [value]
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value(value)

    def test_bad_utf8(self):
        with pytest.raises(wire.WireError):
            wire.decode_value(b"\x06\x00\x00\x00\x02\xc3\x28")

    def test_struct_with_wrong_fields(self):
        bad_ftype = {"size": 1, "atime_us": 1, "mtime_us": 1, "ctime_us": 1,
                     "ftype": 99, "nlink": 1}
        for fields in ({"size": 1}, [1, 2], bad_ftype):
            raw = bytearray(b"\x0b")
            wire._encode_str("FileAttributes", raw)
            wire._encode(fields, raw)
            with pytest.raises(wire.WireError):
                wire.decode_value(bytes(raw))

    def test_exception_envelope_with_wrong_fields(self):
        for fields in ("ValueError", {"message": "m"}, {"type": 3, "message": "m"},
                       {"type": "KeyError", "message": 7},
                       {"type": "UnixError", "message": "m", "code": 2}):
            raw = bytearray(b"\x0c")
            wire._encode(fields, raw)
            with pytest.raises(wire.WireError):
                wire.decode_value(bytes(raw))

