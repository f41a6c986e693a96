"""Location-independent object invocation.

Spring's stub technology "automatically chooses the optimal path
(procedure calls or cross-domain calls)" (paper sec. 6.4), and the same
invocation works across machines.  We reproduce that with the
:func:`operation` decorator: every operation on a :class:`SpringObject`
compares the calling domain (tracked in a thread-local stack) with the
server domain and charges the virtual clock with the right path cost:

* same domain            -> two local procedure calls
* same node, other domain -> one cross-domain call
* other node              -> one network round trip, sized by the bytes
                             actually carried in arguments and result

Code runs "inside" a domain via ``with domain.activate():``.  Invocations
made with no active domain (common in unit tests that don't care about
costs) are treated as originating in the server's own domain and charge
nothing; benchmarks always activate a client domain.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Any, Callable, List, Optional, TypeVar

from repro.errors import RevokedObjectError

_tls = threading.local()

#: Counter keys for the five invocation paths, interned once — the
#: wrapper below runs on every simulated invocation, so it must not
#: rebuild (and re-hash fresh copies of) these strings per call.
#: ``network_batched`` is a network-path invocation absorbed into a
#: compound batch (see :mod:`repro.ipc.compound`): it rides a shared
#: round trip instead of paying its own.
_INVOKE_KEYS = {
    path: sys.intern(f"invoke.{path}")
    for path in ("direct", "local", "cross_domain", "network", "network_batched")
}


def _stack() -> List[Any]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_domain() -> Optional[Any]:
    """The domain on whose behalf the current code is executing, or None."""
    stack = _stack()
    return stack[-1] if stack else None


def _caller_stack() -> List[Any]:
    stack = getattr(_tls, "callers", None)
    if stack is None:
        stack = []
        _tls.callers = stack
    return stack


def calling_domain() -> Optional[Any]:
    """The domain that invoked the operation currently executing — what
    ACL checks must authenticate (the *client*, not the server whose
    domain is active while the operation body runs)."""
    stack = _caller_stack()
    return stack[-1] if stack else None


def push_domain(domain: Any) -> None:
    _stack().append(domain)


def pop_domain() -> None:
    _stack().pop()


# --- compound-invocation regions ------------------------------------------
# A region (see repro.ipc.compound.CompoundRegion) absorbs the network
# hops issued by the domain that opened it, coalescing them into one
# round trip per destination node.  The stack lives here so the hot
# wrapper below needs no import of the compound module.

def _region_stack() -> List[Any]:
    stack = getattr(_tls, "regions", None)
    if stack is None:
        stack = []
        _tls.regions = stack
    return stack


def push_compound_region(region: Any) -> None:
    _region_stack().append(region)


def pop_compound_region() -> None:
    _region_stack().pop()


def _absorbing_region(caller: Any, server: Any) -> Optional[Any]:
    """Innermost active region willing to absorb a ``caller`` -> ``server``
    network hop, or None."""
    for region in reversed(_region_stack()):
        if region.absorbs(caller, server):
            return region
    return None


def bytes_in(value: Any) -> int:
    """Bytes-like payload carried inside ``value``, recursing through
    containers (dicts of pages, lists of (offset, data) pairs).  Scalars
    and object references are free — the round-trip cost already covers a
    small control message."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, dict):
        return sum(bytes_in(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(bytes_in(v) for v in value)
    return 0


def _payload_bytes(args: tuple, kwargs: dict) -> int:
    return sum(bytes_in(v) for v in args) + sum(bytes_in(v) for v in kwargs.values())


def _note_retry(world, target, dst_node, attempt: int, backoff_us: float,
                exc: BaseException) -> None:
    """Telemetry for one retried send: ``invoke.retries`` and — when the
    target belongs to a file system layer — ``<layer>.retries``, so the
    per-layer fault-tolerance breakdown sees it."""
    world.counters.inc("invoke.retries")
    layer = getattr(target, "layer", None)
    if layer is not None:
        world.counters.inc(layer.fs_type() + ".retries")
    world.trace(
        "retry",
        "backoff",
        attempt=attempt,
        backoff_us=backoff_us,
        dst=dst_node.name,
        error=type(exc).__name__,
    )


F = TypeVar("F", bound=Callable[..., Any])


def operation(fn: F) -> F:
    """Mark a method as a Spring interface operation.

    The wrapper charges the invocation-path cost, records the call on the
    world's counters, and runs the method body with the server's domain
    active (so nested invocations are charged relative to the server).
    """

    op_key = sys.intern(f"op.{fn.__name__}")

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if self._revoked:
            raise RevokedObjectError(
                f"{type(self).__name__}.{fn.__name__} on revoked object {self.oid}"
            )
        server = self.domain
        world = server.world
        # Inlined _stack()/_caller_stack(): the wrapper runs on every
        # simulated invocation, so the thread-local lookups happen once
        # here instead of per helper call.
        try:
            domain_stack = _tls.stack
        except AttributeError:
            domain_stack = _tls.stack = []
        try:
            caller_stack = _tls.callers
        except AttributeError:
            caller_stack = _tls.callers = []
        caller = domain_stack[-1] if domain_stack else None
        if caller is None:
            # No active domain: zero-cost local semantics (see module doc).
            path = "direct"
        elif caller is server:
            path = "local"
            world.charge.local_call()
        elif caller.node is server.node:
            path = "cross_domain"
            world.charge.cross_domain_call()
        else:
            request_bytes = _payload_bytes(args, kwargs)
            region = (
                _absorbing_region(caller, server) if _region_stack() else None
            )
            if region is not None:
                # Batched: the round trip is shared with the other ops of
                # the compound; only the payload bytes are accumulated.
                path = "network_batched"
                region.absorb(caller.node, server.node, request_bytes)
            else:
                path = "network"
                policy = world.retry_policy
                if policy is None:
                    world.network.transfer(
                        caller.node, server.node, request_bytes
                    )
                else:
                    # Retrying the send is always safe: a transfer
                    # failure means the op body never ran server-side.
                    src, dst = caller.node, server.node
                    policy.run(
                        lambda: world.network.transfer(src, dst, request_bytes),
                        lambda us: world.clock.advance(us, "retry_backoff"),
                        functools.partial(_note_retry, world, self, dst),
                    )
        inc = world.counters.inc
        inc(_INVOKE_KEYS[path])
        inc(op_key)
        if world.tracer is not None:
            world.trace(
                "invoke",
                f"{type(self).__name__}.{fn.__name__}",
                path=path,
                server=f"{server.node.name}/{server.name}",
                caller=(
                    f"{caller.node.name}/{caller.name}" if caller else "-"
                ),
            )
        domain_stack.append(server)
        caller_stack.append(caller)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            domain_stack.pop()
            caller_stack.pop()
        if caller is not None and caller.node is not server.node:
            reply_bytes = bytes_in(result)
            if reply_bytes:
                world.network.payload(server.node, caller.node, reply_bytes)
        return result

    wrapper._is_operation = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
