"""MIRRORFS — a mirroring (replication) layer stacked on TWO file systems.

This is Figure 3's fs4: "the implementation of fs4 uses two underlying
file systems to implement its function (e.g. ... fs4 is a mirroring file
system)".  It demonstrates the multi-underlying form of ``stack_on``
("the stack_on operation can be called more than once", sec. 4.4) and
replication, another of the introduction's motivating extensions.

Policy: writes and creates go to every replica; reads are served from
the primary (first-stacked) replica, falling over to the secondary on a
storage error.  ``scrub`` compares replicas and reports divergence —
failure-injection tests drive both paths.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.errors import FsError, StorageError
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.attributes import FileAttributes
from repro.fs.base import BaseLayer
from repro.fs.file import File


class MirrorFileState:
    def __init__(self, layer: "MirrorFs", replicas: List[File]) -> None:
        self.layer = layer
        self.replicas = replicas
        self.source_key: Hashable = (
            "mirrorfs",
            layer.oid,
            tuple(r.source_key for r in replicas),
        )


class MirrorFile(File):
    """An open handle to a mirrored file."""

    def __init__(self, layer: "MirrorFs", state: MirrorFileState) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        self.state = state
        self.source_key = state.source_key
        layer.world.charge.fs_open_state()

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        if requested_access.writable:
            raise FsError(
                "mirrorfs supports read-only mappings; write through the "
                "file interface so both replicas stay in step"
            )
        # Read-only mappings can share the primary replica's cache.
        return self.state.replicas[0].bind(
            cache_manager, requested_access, offset, length
        )

    @operation
    def get_length(self) -> int:
        return self.layer._primary_call(self.state, "get_length")

    @operation
    def set_length(self, length: int) -> None:
        for replica in self.state.replicas:
            replica.set_length(length)

    @operation
    def read(self, offset: int, size: int) -> bytes:
        return self.layer.file_read(self.state, offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.layer.file_write(self.state, offset, data)

    @operation
    def get_attributes(self) -> FileAttributes:
        self.layer.world.charge.fs_attr_copy()
        return self.layer._primary_call(self.state, "get_attributes")

    @operation
    def check_access(self, access: AccessRights) -> None:
        self.layer.world.charge.fs_access_check()

    @operation
    def sync(self) -> None:
        for replica in self.state.replicas:
            replica.sync()


class MirrorDirectory(NamingContext):
    def __init__(self, layer: "MirrorFs", under_contexts: List[NamingContext]):
        super().__init__(layer.domain)
        self.layer = layer
        self.under_contexts = under_contexts

    @operation
    def resolve(self, name: str) -> object:
        return self.layer.wrap_resolved(
            [context.resolve(name) for context in self.under_contexts]
        )

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("mirrorfs directories hold files; use create_file")

    @operation
    def unbind(self, name: str) -> object:
        results = [context.unbind(name) for context in self.under_contexts]
        return results[0]

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("mirrorfs does not support rebind")

    @operation
    def list_bindings(self):
        return self.under_contexts[0].list_bindings()

    @operation
    def list_names(self):
        return self.under_contexts[0].list_names()

    @operation
    def create_file(self, name: str) -> File:
        return self.layer.wrap_resolved(
            [context.create_file(name) for context in self.under_contexts]
        )

    @operation
    def create_dir(self, name: str) -> "MirrorDirectory":
        return MirrorDirectory(
            self.layer,
            [context.create_dir(name) for context in self.under_contexts],
        )


class MirrorFs(BaseLayer):
    """Two-way (or N-way) mirroring layer."""

    max_under = 2

    def __init__(self, domain) -> None:
        super().__init__(domain)
        self._states: Dict[Hashable, MirrorFileState] = {}
        self.failovers = 0

    def fs_type(self) -> str:
        return "mirrorfs"

    def _require_replicas(self) -> List[object]:
        if len(self._under) < 2:
            raise FsError("mirrorfs needs stack_on() called for two replicas")
        return self._under

    # --- naming face -----------------------------------------------------
    @operation
    def resolve(self, name: str) -> object:
        return self.wrap_resolved(
            [under.resolve(name) for under in self._require_replicas()]
        )

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("mirrorfs holds files; use create_file")

    @operation
    def unbind(self, name: str) -> object:
        results = [under.unbind(name) for under in self._require_replicas()]
        return results[0]

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("mirrorfs does not support rebind")

    @operation
    def list_bindings(self):
        return self._require_replicas()[0].list_bindings()

    @operation
    def list_names(self):
        return self._require_replicas()[0].list_names()

    @operation
    def create_file(self, name: str) -> File:
        return self.wrap_resolved(
            [under.create_file(name) for under in self._require_replicas()]
        )

    @operation
    def create_dir(self, name: str) -> MirrorDirectory:
        return MirrorDirectory(
            self, [under.create_dir(name) for under in self._require_replicas()]
        )

    def wrap_resolved(self, objs: List[object]) -> object:
        files = [narrow(obj, File) for obj in objs]
        if all(f is not None for f in files):
            for f in files:
                f.check_access(AccessRights.READ_ONLY)
            key = ("mirrorfs", self.oid, tuple(f.source_key for f in files))
            state = self._states.get(key)
            if state is None:
                state = MirrorFileState(self, files)
                self._states[key] = state
            return MirrorFile(self, state)
        contexts = [narrow(obj, NamingContext) for obj in objs]
        if all(c is not None for c in contexts):
            return MirrorDirectory(self, contexts)
        raise FsError("replicas disagree about the object's type")

    # --- data path ------------------------------------------------------------
    def _primary_call(self, state: MirrorFileState, op: str, *args):
        """Invoke on the primary, failing over to later replicas on
        storage errors."""
        last_error: Optional[Exception] = None
        for index, replica in enumerate(state.replicas):
            try:
                return getattr(replica, op)(*args)
            except StorageError as exc:
                last_error = exc
                if index + 1 < len(state.replicas):
                    self.failovers += 1
                    self.world.counters.inc("mirrorfs.failover")
        raise FsError(f"all replicas failed: {last_error}")

    def file_read(self, state: MirrorFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        return self._primary_call(state, "read", offset, size)

    def file_write(self, state: MirrorFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        written = 0
        for replica in state.replicas:
            written = replica.write(offset, data)
        return written

    # --- maintenance -----------------------------------------------------------
    @operation
    def scrub(self, name: str) -> List[str]:
        """Compare replicas of one file; returns a list of divergence
        descriptions (empty = replicas identical)."""
        problems: List[str] = []
        replicas = [under.resolve(name) for under in self._require_replicas()]
        lengths = [r.get_length() for r in replicas]
        if len(set(lengths)) > 1:
            problems.append(f"length mismatch: {lengths}")
        size = min(lengths)
        chunk = 64 * 1024
        for offset in range(0, size, chunk):
            contents = [r.read(offset, min(chunk, size - offset)) for r in replicas]
            if len(set(contents)) > 1:
                problems.append(f"data mismatch in [{offset}, {offset + chunk})")
        return problems

    @operation
    def repair(self, name: str) -> None:
        """Copy the primary replica's content over the others."""
        replicas = [under.resolve(name) for under in self._require_replicas()]
        primary = replicas[0]
        size = primary.get_length()
        data = primary.read(0, size)
        for replica in replicas[1:]:
            replica.set_length(size)
            if size:
                replica.write(0, data)

    def _sync_impl(self) -> None:
        pass
