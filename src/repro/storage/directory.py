"""Directory file format and its resident (parsed) form.

Directory contents are stored in the directory file's data blocks as a
packed sequence of variable-length entries, sorted by name:

    u32 ino | u16 name_len | name bytes (utf-8, 1..255 bytes)

A zero ino ends the list (the zero padding at the tail of the last
block); no live entry ever carries ino 0.

The file is rewritten whole on every change — truncate, then write the
packed entries — which keeps the on-disk form trivially consistent.
Parsing and packing a whole directory per operation, however, costs
CPU linear in its size, so the volume keeps each directory resident as
a :class:`Directory`: a name -> ino map plus the encoded entries in
name order.  A change then touches one entry (a ``bisect`` insert or
delete) and the rewrite is a single ``b"".join``.  :func:`encode_entry`
is the one encoder, shared by :func:`pack_entries` and the resident
form, so both produce the same bytes.
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, List

from repro.errors import StorageError

_ENTRY_HEAD = struct.Struct("<IH")
MAX_NAME_LEN = 255


def encode_name(name: str) -> bytes:
    """A name's on-disk bytes; raises :class:`StorageError` unless it is
    1..255 bytes of UTF-8."""
    try:
        encoded = name.encode("utf-8")
    except UnicodeEncodeError:
        raise StorageError(f"bad directory entry name {name!r}") from None
    if not 0 < len(encoded) <= MAX_NAME_LEN:
        raise StorageError(f"bad directory entry name {name!r}")
    return encoded


def encode_entry(name: str, ino: int) -> bytes:
    """One packed directory entry (validated)."""
    encoded = encode_name(name)
    if ino == 0:
        raise StorageError("directory entry with ino 0")
    return _ENTRY_HEAD.pack(ino, len(encoded)) + encoded


def pack_entries(entries: Dict[str, int]) -> bytes:
    """Serialize a name -> ino mapping, sorted for determinism."""
    return b"".join(encode_entry(name, ino) for name, ino in sorted(entries.items()))


def unpack_entries(raw: bytes) -> Dict[str, int]:
    """Parse directory file contents back into a name -> ino mapping."""
    entries: Dict[str, int] = {}
    position = 0
    while position + _ENTRY_HEAD.size <= len(raw):
        ino, name_len = _ENTRY_HEAD.unpack_from(raw, position)
        if ino == 0:
            break  # zero padding at the tail of the last block
        position += _ENTRY_HEAD.size
        if position + name_len > len(raw):
            raise StorageError("truncated directory entry")
        name = raw[position : position + name_len].decode("utf-8")
        position += name_len
        if name in entries:
            raise StorageError(f"duplicate directory entry {name!r}")
        entries[name] = ino
    return entries


class Directory:
    """One directory, resident: ``inos`` maps name -> ino, ``names`` is
    the sorted name list and ``_packed`` the encoded entry for each
    name, in the same order.  Callers check for duplicates and absence
    (``name in inos``) before :meth:`add` and :meth:`remove`."""

    __slots__ = ("inos", "names", "_packed")

    def __init__(self, entries: Dict[str, int]) -> None:
        self.inos = dict(entries)
        self.names: List[str] = sorted(entries)
        self._packed = [encode_entry(name, entries[name]) for name in self.names]

    @classmethod
    def parse(cls, raw: bytes) -> "Directory":
        return cls(unpack_entries(raw))

    def add(self, name: str, ino: int) -> None:
        entry = encode_entry(name, ino)
        index = bisect.bisect_left(self.names, name)
        self.names.insert(index, name)
        self._packed.insert(index, entry)
        self.inos[name] = ino

    def remove(self, name: str) -> int:
        index = bisect.bisect_left(self.names, name)
        del self.names[index]
        del self._packed[index]
        return self.inos.pop(name)

    def pack(self) -> bytes:
        return b"".join(self._packed)
