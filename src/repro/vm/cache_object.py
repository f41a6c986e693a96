"""Cache object interfaces (paper Appendix A).

Cache objects are implemented by cache managers — the VMM is one, and
any pager may act as a cache manager to another pager (paper sec. 4.2) —
and are invoked by pagers to perform coherency actions.

The data-returning operations (`flush_back`, `deny_writes`,
`write_back`) return only the *modified* blocks, as a mapping of page
index to page data (the paper's ``produce data memory`` out-parameter).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.ipc.object import SpringObject
from repro.types import AccessRights

if TYPE_CHECKING:
    from repro.fs.attributes import FileAttributes


class CacheObject(SpringObject, abc.ABC):
    """One cache manager's end of a pager-cache channel."""

    @abc.abstractmethod
    def flush_back(self, offset: int, size: int) -> Dict[int, bytes]:
        """Remove data from the cache and send modified blocks to the
        pager."""

    @abc.abstractmethod
    def deny_writes(self, offset: int, size: int) -> Dict[int, bytes]:
        """Downgrade read-write blocks to read-only and return modified
        blocks to the pager."""

    @abc.abstractmethod
    def write_back(self, offset: int, size: int) -> Dict[int, bytes]:
        """Return modified blocks to the pager.  Data is retained in the
        cache in the same mode as before the call."""

    @abc.abstractmethod
    def delete_range(self, offset: int, size: int) -> None:
        """Remove data from the cache — no data is returned."""

    # The next three complete the paper's interface, but no pager in
    # this system drives them: the VMM's cache object implements them,
    # file-system layers' cache objects do not.
    def zero_fill(self, offset: int, size: int) -> None:
        """Indicate that a particular range of the cache is zero-filled."""
        raise NotImplementedError(f"{type(self).__name__}.zero_fill")

    def populate(
        self, offset: int, size: int, access: AccessRights, data: bytes
    ) -> None:
        """Introduce data into the cache."""
        raise NotImplementedError(f"{type(self).__name__}.populate")

    def destroy_cache(self) -> None:
        """Tear down the cache; the channel is dead afterwards."""
        raise NotImplementedError(f"{type(self).__name__}.destroy_cache")

    def held_blocks(self) -> Optional[Dict[int, Tuple[bool, bool]]]:
        """Report the pages this cache currently holds, as
        ``{page index: (writable, dirty)}`` — the client's half of
        server crash recovery: a recovering pager that lost its holder
        table asks each surviving channel to re-declare its holds.
        The default returns None ("cannot report"); such a channel is
        treated as holding nothing after a crash."""
        return None


class FsCache(CacheObject):
    """Cache object subclass exported by file systems (paper sec. 4.3).

    A pager that successfully narrows a received cache object to
    ``fs_cache`` knows it is talking to a file system and engages it in
    the file-attribute coherency protocol; otherwise it assumes a simple
    cache manager such as a VMM.
    """

    @abc.abstractmethod
    def invalidate_attributes(self) -> None:
        """Drop any cached attributes; the next use must re-fetch."""

    @abc.abstractmethod
    def write_back_attributes(self) -> Optional["FileAttributes"]:
        """Return locally modified attributes (or None if clean), keeping
        the cached copy."""
