"""Per-tenant admission control (DESIGN.md §12–§13).

Cloud warehouses bound each tenant's concurrency: a tenant may hold at
most ``max_in_flight`` executing statements plus ``max_queued`` waiting
ones; anything beyond is rejected at submission ("503, retry later",
``shed_reason="tenant_limit"``) instead of growing the queue without
bound.  These caps are the one overload mechanism: they alone bound the
backlog, and a request's deadline is enforced at dequeue by the server.
Rejections are counted per tenant — load shedding must be observable,
not silent.

Queued requests are tracked by request id, so a request that times out
at dequeue *and* is abandoned by the client releases its slot exactly
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..obs import lockwitness

__all__ = ["AdmissionController", "TenantState"]


@dataclass
class TenantState:
    """Live occupancy + monotonic counters of one tenant.

    Mutated only by :class:`AdmissionController` under its lock
    (caller holds ``_lock``); snapshots handed out by
    :meth:`AdmissionController.tenant_stats` are copies.
    """

    queued: int = 0
    in_flight: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0

    @property
    def outstanding(self) -> int:
        return self.queued + self.in_flight


class AdmissionController:
    """Bounds queued + in-flight requests per tenant.

    Args:
        max_in_flight: concurrently *executing* statements per tenant.
        max_queued: statements per tenant allowed to wait beyond that.

    The request lifecycle drives three transitions, all serialized on
    one internal lock: :meth:`try_admit` (queued++, or reject),
    :meth:`try_start` (queued → in_flight, refused at the per-tenant
    execution cap), :meth:`on_finish` (in_flight--, completed++).  A
    rejected request touches nothing but the rejection counters.
    """

    def __init__(self, max_in_flight: int = 4, max_queued: int = 16) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queued = max_queued
        self._lock = lockwitness.named_lock("AdmissionController._lock")
        self._tenants: Dict[str, TenantState] = {}
        self._queued_ids: Dict[int, str] = {}

    def _state(self, tenant: str) -> TenantState:
        """Caller holds ``_lock``."""
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState()
            self._tenants[tenant] = state
        return state

    # -- request lifecycle -----------------------------------------------------

    def try_admit(self, tenant: str, request_id: int) -> bool:
        """Admit one request into the tenant's queue, or reject it.

        A tenant is full when its outstanding requests (executing plus
        waiting) have reached ``max_in_flight + max_queued``; below
        that, the request is counted as queued (the server moves it to
        in-flight at dispatch).  The queue slot is tracked by
        ``request_id`` so its release is idempotent.
        """
        with self._lock:
            state = self._state(tenant)
            if state.outstanding >= self.max_in_flight + self.max_queued:
                state.rejected += 1
                return False
            state.queued += 1
            state.admitted += 1
            self._queued_ids[request_id] = tenant
            return True

    def try_start(self, tenant: str, request_id: int) -> bool:
        """Atomically move one queued request to in-flight.

        Refuses when the tenant is already executing ``max_in_flight``
        statements — the server leaves the request queued and tries the
        next tenant's work (per-tenant concurrency isolation: one noisy
        tenant cannot occupy the whole worker pool).
        """
        with self._lock:
            state = self._state(tenant)
            if state.in_flight >= self.max_in_flight:
                return False
            state.queued -= 1
            state.in_flight += 1
            self._queued_ids.pop(request_id, None)
            return True

    def on_finish(self, tenant: str) -> None:
        """An executing request reached a terminal state: its slot is
        released and it counts as completed."""
        with self._lock:
            state = self._state(tenant)
            state.in_flight -= 1
            state.completed += 1

    def on_abandon(self, tenant: str, request_id: int) -> None:
        """A queued request died without executing (timeout/shutdown).

        Idempotent per request id: the slot is released only if the id
        is still registered as queued, so a request that times out at
        dequeue *and* is abandoned by the client cannot double-release.
        """
        with self._lock:
            if self._queued_ids.pop(request_id, None) is None:
                return
            state = self._state(tenant)
            state.queued -= 1
            state.completed += 1

    # -- introspection ---------------------------------------------------------

    def tenant_stats(self, tenant: str) -> TenantState:
        """A point-in-time copy of one tenant's state."""
        with self._lock:
            state = self._state(tenant)
            return TenantState(**vars(state))

    def tenants(self) -> Dict[str, TenantState]:
        """Point-in-time copies of every tenant's state."""
        with self._lock:
            return {
                name: TenantState(**vars(state))
                for name, state in self._tenants.items()
            }

    @property
    def total_rejected(self) -> int:
        with self._lock:
            return sum(s.rejected for s in self._tenants.values())

    @property
    def total_outstanding(self) -> int:
        with self._lock:
            return sum(s.outstanding for s in self._tenants.values())
