"""Invocation retry with timeout and capped exponential backoff.

Production distributed file systems treat a dropped message or a
bouncing server as a delay, not an error (cf. Lustre's recovery design):
the client backs off, the link heals or the node recovers, and the
request goes through.  A :class:`RetryPolicy` installed on the world
(:meth:`repro.world.World.enable_retries`) gives the invocation layer
exactly that behaviour for *transient* network failures
(:class:`~repro.errors.TransientNetworkError`: partitions, crashed
nodes, dropped messages).

:meth:`RetryPolicy.run` is the one retry loop; each caller supplies
what an attempt is, how to wait, and its own telemetry.  Safety is the
caller's choice of attempt: the invocation layer retries only the
request *send* (a ``Network.transfer`` failure means the op body never
ran server-side), the compound layer re-runs only sub-operations that
never executed (:meth:`repro.ipc.compound.CompoundInvocation.commit`),
and the socket client resends the whole exchange only for ops declared
idempotent (:class:`repro.ipc.transport.SocketTransport`).

Simulated callers back off on the *virtual* clock (category
``retry_backoff``), which is also what lets a retry succeed: scheduled
heal/recover events fire when the clock passes their time, so "back off
800us" can carry the caller across a fault window deterministically.
The socket client sleeps in wall time.

Off by default: ``world.retry_policy`` is None and every failure
surfaces exactly as before.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Tuple, Type

from repro.errors import TransientNetworkError


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry knobs for transient cross-node failures.

    ``max_attempts`` counts every try including the first; the backoff
    before retry *n* (0-based) is ``base_backoff_us * factor**n`` capped
    at ``max_backoff_us``; ``timeout_us`` bounds the total virtual time
    spent backing off for one logical operation — whichever limit is hit
    first stops the retrying and the last error surfaces unchanged.
    """

    max_attempts: int = 8
    base_backoff_us: float = 100.0
    backoff_factor: float = 2.0
    max_backoff_us: float = 10_000.0
    timeout_us: float = 100_000.0
    retry_on: Tuple[Type[BaseException], ...] = (TransientNetworkError,)

    def backoff_us(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (0-based)."""
        return min(
            self.base_backoff_us * self.backoff_factor**attempt,
            self.max_backoff_us,
        )

    def should_retry(
        self, attempt: int, waited_us: float, exc: BaseException
    ) -> bool:
        """May retry number ``attempt`` happen, having already waited
        ``waited_us`` in backoff, after failure ``exc``?"""
        if not isinstance(exc, self.retry_on):
            return False
        if attempt + 1 >= self.max_attempts:
            return False
        return waited_us + self.backoff_us(attempt) <= self.timeout_us

    def run(
        self,
        attempt: Callable[[], Any],
        wait: Callable[[float], Any],
        on_retry: Optional[Callable[[int, float, BaseException], Any]] = None,
    ) -> Any:
        """Call ``attempt()`` until it returns, retrying the failures this
        policy allows.

        Before retry number ``n`` (0-based), ``on_retry(n, backoff_us,
        exc)`` records the caller's telemetry and ``wait(backoff_us)``
        backs off.  A failure the policy does not retry — wrong type, or
        past the attempt/timeout limits — propagates unchanged.
        """
        n = 0
        waited_us = 0.0
        while True:
            try:
                return attempt()
            except self.retry_on as exc:
                if not self.should_retry(n, waited_us, exc):
                    raise
                backoff = self.backoff_us(n)
                if on_retry is not None:
                    on_retry(n, backoff, exc)
                wait(backoff)
                waited_us += backoff
                n += 1
