"""POSIX-style facade over a Spring file system stack.

Spring runs UNIX binaries through an emulation layer (paper sec. 3.1,
citing [11]); this module is the equivalent surface for examples,
benchmarks, and tests: ``open/read/write/lseek/close/stat`` over any
naming context that exports files — which, by the stacking architecture,
means over *any* stack.

All calls execute on behalf of the facade's client domain, so the
benchmarks' invocation accounting is identical whether a workload uses
the facade or raw objects.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.errors import (
    FileNotFoundError_,
    FsError,
    NameNotFoundError,
    SpringError,
    UnixError,
)
from repro.ipc.domain import Domain
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights

from repro.fs.attributes import FileAttributes
from repro.fs.file import File

# Open flags (values mirror the classic octal constants).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


@dataclasses.dataclass
class OpenFile:
    file: File
    flags: int
    position: int = 0

    @property
    def readable(self) -> bool:
        return (self.flags & 0o3) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & 0o3) in (O_WRONLY, O_RDWR)


class Posix:
    """One process's UNIX-like view of a file system tree."""

    def __init__(self, root: NamingContext, domain: Domain) -> None:
        self.root = root
        self.domain = domain
        self._fds: Dict[int, OpenFile] = {}
        self._next_fd = 3  # leave 0-2 for the traditional trio

    # ------------------------------------------------------------ resolution
    @staticmethod
    def _split_path(path: str):
        """``(parent path, leaf)``; the parent path is "" at the root."""
        path = path.strip("/")
        if not path:
            raise UnixError("EINVAL", "empty path")
        parent_path, _, leaf = path.rpartition("/")
        return parent_path, leaf

    def _split_parent(self, path: str):
        parent_path, leaf = self._split_path(path)
        parent = self.root.resolve(parent_path) if parent_path else self.root
        context = narrow(parent, NamingContext)
        if context is None:
            raise UnixError("ENOTDIR", path)
        return context, leaf

    def _resolve_file(self, path: str) -> File:
        try:
            obj = self.root.resolve(path.strip("/"))
        except (NameNotFoundError, FileNotFoundError_):
            raise UnixError("ENOENT", path)
        f = narrow(obj, File)
        if f is None:
            raise UnixError("EISDIR", path)
        return f

    # ------------------------------------------------------------- syscalls
    def open(self, path: str, flags: int = O_RDONLY) -> int:
        with self.domain.activate():
            try:
                f = self._resolve_file(path)
            except UnixError as exc:
                if exc.code != "ENOENT" or not flags & O_CREAT:
                    raise
                context, leaf = self._split_parent(path)
                try:
                    f = context.create_file(leaf)
                except AttributeError:
                    raise UnixError("EROFS", f"{path}: context cannot create files")
            access = (
                AccessRights.READ_WRITE
                if (flags & 0o3) in (O_WRONLY, O_RDWR)
                else AccessRights.READ_ONLY
            )
            f.check_access(access)
            if flags & O_TRUNC and (flags & 0o3) != O_RDONLY:
                f.set_length(0)
            entry = OpenFile(f, flags)
            if flags & O_APPEND:
                entry.position = f.get_length()
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = entry
        return fd

    def _entry(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise UnixError("EBADF", str(fd))

    def read(self, fd: int, size: int) -> bytes:
        entry = self._entry(fd)
        if not entry.readable:
            raise UnixError("EBADF", "fd not open for reading")
        with self.domain.activate():
            data = entry.file.read(entry.position, size)
        entry.position += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        with self.domain.activate():
            if entry.flags & O_APPEND:
                entry.position = entry.file.get_length()
            written = entry.file.write(entry.position, data)
        entry.position += written
        return written

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        entry = self._entry(fd)
        if not entry.readable:
            raise UnixError("EBADF", "fd not open for reading")
        with self.domain.activate():
            return entry.file.read(offset, size)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        with self.domain.activate():
            return entry.file.write(offset, data)

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        entry = self._entry(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = entry.position + offset
        elif whence == SEEK_END:
            with self.domain.activate():
                new = entry.file.get_length() + offset
        else:
            raise UnixError("EINVAL", f"whence {whence}")
        if new < 0:
            raise UnixError("EINVAL", "negative seek")
        entry.position = new
        return new

    def fstat(self, fd: int) -> FileAttributes:
        entry = self._entry(fd)
        with self.domain.activate():
            return entry.file.get_attributes()

    def stat(self, path: str) -> FileAttributes:
        with self.domain.activate():
            return self._resolve_file(path).get_attributes()

    def ftruncate(self, fd: int, length: int) -> None:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        with self.domain.activate():
            entry.file.set_length(length)

    def fsync(self, fd: int) -> None:
        entry = self._entry(fd)
        with self.domain.activate():
            entry.file.sync()

    def close(self, fd: int) -> None:
        self._entry(fd)
        del self._fds[fd]

    # ------------------------------------------------------- directory calls
    def mkdir(self, path: str):
        with self.domain.activate():
            context, leaf = self._split_parent(path)
            try:
                return context.create_dir(leaf)
            except AttributeError:
                raise UnixError("EROFS", f"{path}: context cannot create dirs")

    def unlink(self, path: str) -> None:
        with self.domain.activate():
            context, leaf = self._split_parent(path)
            try:
                context.unbind(leaf)
            except (NameNotFoundError, FileNotFoundError_):
                raise UnixError("ENOENT", path)

    def listdir(self, path: str = "") -> List[str]:
        with self.domain.activate():
            if path.strip("/"):
                obj = self.root.resolve(path.strip("/"))
            else:
                obj = self.root
            context = narrow(obj, NamingContext)
            if context is None:
                raise UnixError("ENOTDIR", path)
            return sorted(context.list_names())

    def rename(self, old: str, new: str) -> None:
        with self.domain.activate():
            # "Same directory" is decided on the parent path: two
            # resolutions of one directory need not return one object.
            old_parent, old_leaf = self._split_path(old)
            new_parent, new_leaf = self._split_path(new)
            if old_parent != new_parent:
                raise UnixError("EXDEV", "cross-directory rename unsupported here")
            context = self._split_parent(old)[0]
            try:
                context.rename(old_leaf, new_leaf)
            except AttributeError:
                raise UnixError("EROFS", "context cannot rename")
            except (NameNotFoundError, FileNotFoundError_):
                raise UnixError("ENOENT", old)

    def open_fds(self) -> int:
        return len(self._fds)
