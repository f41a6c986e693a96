"""Seeded op streams for the served workloads, with their output checks.

A workload owns a ``random.Random(seed)`` and a client-side model of
what the server should hold.  :meth:`Workload.next_op` returns
``(kind, call, check)``: ``call()`` performs the op through the remote
``fs`` stub (one or two request frames) and ``check(result)`` returns
a description of how the reply disagrees with the model, or None after
applying the op to the model.  Generation and checking happen outside the timed
call, and the model only changes on success, so the stream stays in
step with the server whichever ops fail.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import UnixError
from repro.unix.posixlike import O_RDONLY, O_RDWR

Op = Tuple[str, Callable[[], object], Callable[[object], Optional[str]]]


class Workload:
    def __init__(self, spec: dict, seed: int, fs) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.fs = fs
        self._kinds = list(spec["mix"])
        self._cum_weights = []
        total = 0
        for kind in self._kinds:
            total += spec["mix"][kind]
            self._cum_weights.append(total)
        #: Bytes the client asked the server to write (for write
        #: amplification).
        self.user_bytes = 0

    def pick_kind(self) -> str:
        return self.rng.choices(self._kinds, cum_weights=self._cum_weights)[0]

    def next_op(self) -> Op:
        return getattr(self, "op_" + self.pick_kind())()

    def populate(self) -> None:
        raise NotImplementedError

    def warmup_ops(self) -> Iterator[Op]:
        raise NotImplementedError


class FileSetWorkload(Workload):
    """Page-aligned I/O over a fixed set of open files (sfs-hot-read,
    dfs-mixed-rw).  ``shadow`` holds what every file should contain."""

    def populate(self) -> None:
        spec, fs = self.spec, self.fs
        self.io = spec["io_bytes"]
        self.pages = spec["file_bytes"] // self.io
        self.paths = [f"w/f{i:02d}" for i in range(spec["files"])]
        self.shadow = [
            bytearray(self.rng.randbytes(spec["file_bytes"]))
            for _ in self.paths
        ]
        fs.mkdir("w")
        for path, data in zip(self.paths, self.shadow):
            fs.write_file(path, bytes(data))
        self.fds = [fs.open(path, O_RDWR) for path in self.paths]

    def warmup_ops(self) -> Iterator[Op]:
        for f in range(len(self.paths)):
            for page in range(self.pages):
                yield self._pread(f, page * self.io)

    def _pick(self) -> Tuple[int, int]:
        return (self.rng.randrange(len(self.paths)),
                self.rng.randrange(self.pages) * self.io)

    def _pread(self, f: int, offset: int) -> Op:
        fd, size, expected = self.fds[f], self.io, bytes(
            self.shadow[f][offset:offset + self.io])

        def check(data) -> Optional[str]:
            if data != expected:
                return f"pread {self.paths[f]}@{offset}: wrong bytes"
            return None

        return "pread", lambda: self.fs.pread(fd, size, offset), check

    def op_pread(self) -> Op:
        return self._pread(*self._pick())

    def op_pwrite(self) -> Op:
        f, offset = self._pick()
        fd, data = self.fds[f], self.rng.randbytes(self.io)
        self.user_bytes += len(data)

        def check(written) -> Optional[str]:
            if written != len(data):
                return f"pwrite {self.paths[f]} returned {written!r}"
            self.shadow[f][offset:offset + len(data)] = data
            return None

        return "pwrite", lambda: self.fs.pwrite(fd, data, offset), check

    def op_fstat(self) -> Op:
        f = self.rng.randrange(len(self.paths))
        fd, size = self.fds[f], len(self.shadow[f])

        def check(attrs) -> Optional[str]:
            if attrs.size != size:
                return f"fstat {self.paths[f]}: size {attrs.size}"
            return None

        return "fstat", lambda: self.fs.fstat(fd), check

    def op_open_close(self) -> Op:
        path = self.paths[self.rng.randrange(len(self.paths))]

        def call():
            fd = self.fs.open(path, O_RDONLY)
            self.fs.close(fd)
            return fd

        def check(fd) -> Optional[str]:
            if not isinstance(fd, int) or fd < 3:
                return f"open {path} gave fd {fd!r}"
            return None

        return "open_close", call, check

    def op_fsync(self) -> Op:
        f = self.rng.randrange(len(self.paths))
        fd = self.fds[f]

        def check(result) -> Optional[str]:
            if result is not None:
                return f"fsync {self.paths[f]} returned {result!r}"
            return None

        return "fsync", lambda: self.fs.fsync(fd), check


class MetaWorkload(Workload):
    """Namespace churn in one subdirectory (sfs-meta).

    ``live`` lists the names the directory should hold, ``where`` maps a
    name to its index in ``live`` so removal is O(1).  A create makes a
    new name while fewer than ``live_files`` names are live and
    overwrites a live one otherwise, so the directory size stays at or
    just below ``live_files`` throughout the run, whatever the seed.
    """

    def populate(self) -> None:
        spec, fs = self.spec, self.fs
        self.dir = spec["directory"]
        self.size = spec["file_bytes"]
        self.names = [f"n{i:04d}" for i in range(spec["names"])]
        self.live: List[str] = []
        self.where: Dict[str, int] = {}
        fs.mkdir(self.dir)
        for index in self.rng.sample(range(len(self.names)), spec["live_files"]):
            name = self.names[index]
            fs.write_file(self._path(name), self.rng.randbytes(self.size))
            self._add(name)

    def warmup_ops(self) -> Iterator[Op]:
        for _ in range(self.spec["warmup_ops"]):
            yield self.next_op()

    def _path(self, name: str) -> str:
        return f"{self.dir}/{name}"

    def _add(self, name: str) -> None:
        if name not in self.where:
            self.where[name] = len(self.live)
            self.live.append(name)

    def _remove(self, name: str) -> None:
        index = self.where.pop(name)
        last = self.live.pop()
        if last != name:
            self.live[index] = last
            self.where[last] = index

    def _random_live(self) -> str:
        return self.live[self.rng.randrange(len(self.live))]

    def _random_free(self) -> str:
        while True:
            name = self.names[self.rng.randrange(len(self.names))]
            if name not in self.where:
                return name

    def next_op(self) -> Op:
        kind = self.pick_kind()
        if not self.live and kind != "create":
            kind = "create"
        return getattr(self, "op_" + kind)()

    def op_create(self) -> Op:
        if len(self.live) < self.spec["live_files"]:
            name = self._random_free()
        else:
            name = self._random_live()
        path, data = self._path(name), self.rng.randbytes(self.size)
        self.user_bytes += len(data)

        def check(written) -> Optional[str]:
            if written != len(data):
                return f"write_file {path} returned {written!r}"
            self._add(name)
            return None

        return "create", lambda: self.fs.write_file(path, data), check

    def op_stat(self) -> Op:
        path = self._path(self._random_live())

        def check(attrs) -> Optional[str]:
            if attrs.size != self.size:
                return f"stat {path}: size {attrs.size}"
            return None

        return "stat", lambda: self.fs.stat(path), check

    def op_listdir(self) -> Op:
        def check(listing) -> Optional[str]:
            if listing != sorted(self.live):
                return (f"listdir {self.dir}: {len(listing)} names, "
                        f"model has {len(self.live)}")
            return None

        return "listdir", lambda: self.fs.listdir(self.dir), check

    def op_unlink(self) -> Op:
        name = self._random_live()
        path = self._path(name)

        def check(result) -> Optional[str]:
            if result is not None:
                return f"unlink {path} returned {result!r}"
            self._remove(name)
            return None

        return "unlink", lambda: self.fs.unlink(path), check


def subdir_rename_raises_exdev(fs) -> bool:
    """Probe the known ``Posix.rename`` defect: a same-directory rename
    inside a subdirectory raises EXDEV, because the two parents are
    resolved separately and compared by identity.  The probe works in a
    directory of its own, outside every workload's files."""
    fs.mkdir("probe")
    fs.write_file("probe/a", b"probe")
    try:
        fs.rename("probe/a", "probe/b")
    except UnixError as exc:
        if exc.code != "EXDEV":
            raise
        return True
    if fs.listdir("probe") != ["b"]:
        raise AssertionError("rename probe/a -> probe/b lost the file")
    return False


def make_workload(spec: dict, seed: int, fs) -> Workload:
    cls = MetaWorkload if "directory" in spec else FileSetWorkload
    return cls(spec, seed, fs)
