"""Wire format for the real socket transport.

The simulated network (:mod:`repro.ipc.network`) moves *costs*, not
bytes; :class:`~repro.ipc.transport.SocketTransport` moves actual bytes
between OS processes, and this module defines the bytes it moves.

Framing is length-prefixed binary, in the spirit of ONC RPC record
marking or the Lustre LNet headers: every message on a connection is ::

    u32   body length (big-endian)
    body:
      2s  magic  b"SW"
      u8  protocol version (1)
      u8  kind   (REQUEST / REPLY / ERROR / COMPOUND / COMPOUND_REPLY)
      u32 sequence number (echoed by the reply)
      u16-prefixed utf-8  src   (sending node name)
      u16-prefixed utf-8  dst   (receiving node name)
      u16-prefixed utf-8  op    (operation name; "*compound*" for batches)
      encoded value       payload

Payload values use a small tag-byte binary encoding covering exactly the
types Spring operations carry across machines: None, bools, ints,
floats, strings, bytes, lists/tuples, string-keyed dicts, registered
value structs (e.g. :class:`~repro.fs.attributes.FileAttributes`), and
exceptions.  Anything else is a :class:`WireEncodeError` — the wire is a
typed contract, not a pickle: unpickling attacker-controlled bytes would
execute code, while this decoder only ever builds plain data.

The decoder is total: any bytes decode to a value or raise
:class:`WireError` (bad UTF-8, wrong-shaped struct or exception fields
and nesting past :data:`MAX_DEPTH` included).

Exceptions cross the wire by *registered class name* (every
:class:`~repro.errors.SpringError` subclass plus a whitelist of
builtins) and are re-raised client-side as the same type; unknown server
exceptions decode as :class:`RemoteError` carrying the original class
name and message.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import struct
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro import errors as _errors
from repro.errors import InvocationError, SpringError

MAGIC = b"SW"
VERSION = 1

#: Frame kinds.
REQUEST = 1
REPLY = 2
ERROR = 3
COMPOUND = 4
COMPOUND_REPLY = 5

#: The header op name carried by compound batches (illegal as a real
#: operation name — leading "*" never survives the export-name check).
COMPOUND_OP = "*compound*"

#: Upper bound on one frame body; a peer announcing more is treated as
#: corrupt rather than trusted to allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: Deepest container nesting a value may have; deeper payloads are
#: refused on encode and rejected on decode (no recursion blow-ups).
MAX_DEPTH = 64

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!2sBBI")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

# Value tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_TUPLE = 0x09
_T_DICT = 0x0A
_T_STRUCT = 0x0B
_T_EXC = 0x0C


class WireError(SpringError):
    """The byte stream violated the framing or encoding contract."""


class WireEncodeError(WireError):
    """A value outside the wire type system was asked to cross it."""


class RemoteError(InvocationError):
    """A server-side exception of a type this process doesn't know.

    Carries the remote class name so callers can still dispatch on it.
    """

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message


# --- value structs ----------------------------------------------------------
# Registered value types cross the wire as (name, field dict) and are
# rebuilt by their registered decoder — the typed alternative to pickle.

_STRUCTS: Dict[str, Tuple[type, Callable[[Any], dict], Callable[[dict], Any]]] = {}


def register_struct(
    name: str,
    cls: type,
    to_fields: Callable[[Any], dict],
    from_fields: Callable[[dict], Any],
) -> None:
    """Teach the wire a value type (idempotent per name)."""
    _STRUCTS[name] = (cls, to_fields, from_fields)


def _register_builtin_structs() -> None:
    from repro.fs.attributes import FileAttributes
    from repro.storage.inode import FileType

    register_struct(
        "FileAttributes",
        FileAttributes,
        lambda a: {
            "size": a.size,
            "atime_us": a.atime_us,
            "mtime_us": a.mtime_us,
            "ctime_us": a.ctime_us,
            "ftype": int(a.ftype),
            "nlink": a.nlink,
        },
        lambda f: FileAttributes(
            size=f["size"],
            atime_us=f["atime_us"],
            mtime_us=f["mtime_us"],
            ctime_us=f["ctime_us"],
            ftype=FileType(f["ftype"]),
            nlink=f["nlink"],
        ),
    )


# --- exception registry -----------------------------------------------------

_SAFE_BUILTIN_EXCS = (
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "NotImplementedError",
    "ArithmeticError",
    "ZeroDivisionError",
)


def _exception_registry() -> Dict[str, Type[BaseException]]:
    registry: Dict[str, Type[BaseException]] = {}
    for name in dir(_errors):
        obj = getattr(_errors, name)
        if isinstance(obj, type) and issubclass(obj, SpringError):
            registry[name] = obj
    # NetworkPartitionError lives in repro.ipc.network, not repro.errors.
    from repro.ipc.network import NetworkPartitionError

    registry["NetworkPartitionError"] = NetworkPartitionError
    for name in _SAFE_BUILTIN_EXCS:
        registry[name] = getattr(builtins, name)
    return registry


_EXC_REGISTRY: Optional[Dict[str, Type[BaseException]]] = None


def _exc_registry() -> Dict[str, Type[BaseException]]:
    global _EXC_REGISTRY
    if _EXC_REGISTRY is None:
        _EXC_REGISTRY = _exception_registry()
    return _EXC_REGISTRY


def exception_to_fields(exc: BaseException) -> dict:
    fields = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, _errors.UnixError):
        fields["code"] = exc.code
    return fields


def exception_from_fields(fields: dict) -> BaseException:
    name = fields["type"]
    message = fields["message"]
    code = fields.get("code", "EIO")
    if not all(type(field) is str for field in (name, message, code)):
        raise TypeError("exception type, message and code must be strings")
    cls = _exc_registry().get(name)
    if cls is None:
        return RemoteError(name, message)
    if cls is _errors.UnixError:
        # UnixError renders as "[CODE] message"; strip the prefix its
        # __init__ will re-add so the round trip is stable.
        prefix = f"[{code}] "
        if message.startswith(prefix):
            message = message[len(prefix):]
        elif message == code:
            message = ""
        return _errors.UnixError(code, message)
    if cls is KeyError:
        # str(KeyError("x")) is "'x'"; rebuild from the repr'd key so
        # a re-encode round-trips instead of growing quotes.
        return KeyError(message.strip("'"))
    return cls(message)


# --- value encoding ---------------------------------------------------------

def encode_value(value: Any) -> bytes:
    """Encode one payload value into wire bytes."""
    buf = bytearray()
    _encode(value, buf)
    return bytes(buf)


def _encode_str(text: str, buf: bytearray) -> None:
    raw = text.encode("utf-8")
    buf += _U32.pack(len(raw))
    buf += raw


def _encode(value: Any, buf: bytearray, depth: int = 0) -> None:
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            buf.append(_T_INT)
            buf += _I64.pack(value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            buf.append(_T_BIGINT)
            buf += _U32.pack(len(raw))
            buf += raw
    elif type(value) is float:
        buf.append(_T_FLOAT)
        buf += _F64.pack(value)
    elif type(value) is str:
        buf.append(_T_STR)
        _encode_str(value, buf)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        buf.append(_T_BYTES)
        buf += _U32.pack(len(raw))
        buf += raw
    elif type(value) is list or type(value) is tuple:
        _check_depth(depth, WireEncodeError)
        buf.append(_T_LIST if type(value) is list else _T_TUPLE)
        buf += _U32.pack(len(value))
        for item in value:
            _encode(item, buf, depth + 1)
    elif type(value) is dict:
        _check_depth(depth, WireEncodeError)
        buf.append(_T_DICT)
        buf += _U32.pack(len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise WireEncodeError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            _encode_str(key, buf)
            _encode(item, buf, depth + 1)
    elif isinstance(value, BaseException):
        buf.append(_T_EXC)
        _encode(exception_to_fields(value), buf, depth)
    else:
        if not _STRUCTS:
            _register_builtin_structs()
        for name, (cls, to_fields, _) in _STRUCTS.items():
            if type(value) is cls:
                buf.append(_T_STRUCT)
                _encode_str(name, buf)
                _encode(to_fields(value), buf, depth)
                return
        # Enums (e.g. FileType) degrade to their value.
        ivalue = getattr(value, "value", None)
        if isinstance(value, int) and type(ivalue) is int:
            _encode(ivalue, buf, depth)
            return
        raise WireEncodeError(
            f"type {type(value).__name__} cannot cross the wire"
        )


def _check_depth(depth: int, error: type) -> None:
    if depth >= MAX_DEPTH:
        raise error(f"value nested deeper than MAX_DEPTH={MAX_DEPTH}")


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated frame body")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        return _utf8(self.take(self.u32()))

    def short_text(self) -> str:
        return _utf8(self.take(self.u16()))


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in frame: {exc.reason}") from None


def decode_value(data: bytes) -> Any:
    reader = _Reader(data)
    value = _decode(reader)
    if reader.pos != len(data):
        raise WireError(f"{len(data) - reader.pos} trailing bytes in value")
    return value


def _decode(r: _Reader, depth: int = 0) -> Any:
    tag = r.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(r.take(8))[0]
    if tag == _T_BIGINT:
        return int.from_bytes(r.take(r.u32()), "big", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        return r.text()
    if tag == _T_BYTES:
        return r.take(r.u32())
    if tag == _T_LIST or tag == _T_TUPLE or tag == _T_DICT:
        _check_depth(depth, WireError)
        depth += 1
        if tag == _T_DICT:
            return {r.text(): _decode(r, depth) for _ in range(r.u32())}
        items = [_decode(r, depth) for _ in range(r.u32())]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_STRUCT:
        if not _STRUCTS:
            _register_builtin_structs()
        name = r.text()
        entry = _STRUCTS.get(name)
        if entry is None:
            raise WireError(f"unknown wire struct {name!r}")
        build = entry[2]
    elif tag == _T_EXC:
        build = exception_from_fields
    else:
        raise WireError(f"unknown value tag 0x{tag:02x}")
    fields = _decode(r, depth)
    try:
        return build(fields)
    except Exception as exc:  # fields of the wrong shape: a bad frame
        raise WireError(
            f"malformed fields under tag 0x{tag:02x}: "
            f"{type(exc).__name__}: {exc}"
        ) from None


# --- framing ----------------------------------------------------------------

@dataclasses.dataclass
class Message:
    """One decoded frame."""

    kind: int
    seq: int
    src: str
    dst: str
    op: str
    payload: Any
    #: Size of the frame as read off the wire (length prefix included);
    #: 0 for messages built locally rather than received.
    nbytes: int = 0


def pack_frame(
    kind: int, seq: int, src: str, dst: str, op: str, payload: Any
) -> bytes:
    # The length prefix is reserved up front and filled in last, so the
    # frame is built in one buffer and copied out once.
    frame = bytearray(_LEN.size)
    frame += _HEAD.pack(MAGIC, VERSION, kind, seq)
    for text in (src, dst, op):
        raw = text.encode("utf-8")
        frame += _U16.pack(len(raw))
        frame += raw
    _encode(payload, frame)
    length = len(frame) - _LEN.size
    if length > MAX_FRAME:
        raise WireEncodeError(f"frame body {length} exceeds MAX_FRAME")
    _LEN.pack_into(frame, 0, length)
    return bytes(frame)


def unpack_body(body: bytes) -> Message:
    if len(body) < _HEAD.size:
        raise WireError("frame body shorter than header")
    magic, version, kind, seq = _HEAD.unpack_from(body)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    reader = _Reader(body)
    reader.pos = _HEAD.size
    src = reader.short_text()
    dst = reader.short_text()
    op = reader.short_text()
    payload = _decode(reader)
    if reader.pos != len(body):
        raise WireError(f"{len(body) - reader.pos} trailing bytes in frame")
    return Message(kind, seq, src, dst, op, payload)


_NO_LOCK = contextlib.nullcontext()


def recv_message(sock, lock=_NO_LOCK) -> Optional[Message]:
    """Read one frame from a blocking socket; None on clean EOF at a
    frame boundary.  EOF inside a frame is a :class:`WireError`; socket
    errors and timeouts propagate as :class:`OSError`.  The body is
    decoded holding ``lock`` (a server's dispatch lock), the wait for
    its bytes is not."""
    prefix = _recv_exactly(sock, _LEN.size)
    if not prefix:
        return None  # clean close between frames
    if len(prefix) < _LEN.size:
        raise WireError("connection closed inside a length prefix")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(f"announced frame body {length} exceeds MAX_FRAME")
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise WireError("connection closed inside a frame body")
    with lock:
        message = unpack_body(body)
    message.nbytes = _LEN.size + length
    return message


def _recv_exactly(sock, n: int) -> bytes:
    """``n`` bytes from ``sock``, or fewer if the peer closed first."""
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            break
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)
