"""Per-tenant admission control and overload shedding (DESIGN.md §12–§13).

Cloud warehouses bound each tenant's concurrency: a tenant may hold at
most ``max_in_flight`` executing statements plus ``max_queued`` waiting
ones; anything beyond is rejected at submission ("503, retry later")
instead of growing the queue without bound.  Rejections are counted
per tenant — load shedding must be observable, not silent.

PR 8 adds *adaptive* overload control on top of the static caps:

* **Queue-depth shedding** — when the server's global queue reaches
  ``shed_queue_depth``, new work is rejected before admission so the
  backlog stays bounded.  ``priority_tenants`` ride out the pressure:
  they are only shed at twice the threshold.
* **Deadline-aware shedding** — an EWMA of observed service times
  (``observe_service_time``) estimates how long a request would wait
  behind the current queue; when the estimate already exceeds the
  request's deadline, the request is shed immediately rather than
  admitted just to time out at dequeue.
* **Idempotent release** — queued requests are tracked by request id,
  so a request that times out at dequeue *and* is abandoned by the
  client releases its slot exactly once.

Every shed is counted by reason (``SHED_REASONS``) for the
``repro_resilience_*`` metric family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from ..obs import lockwitness

__all__ = ["AdmissionController", "TenantState", "SHED_REASONS"]

#: Stable shed-reason vocabulary (metric label values; never reorder).
SHED_REASONS = ("queue_full", "deadline_unmeetable", "tenant_limit")

#: EWMA smoothing factor for observed service times (DESIGN.md §13).
_SERVICE_TIME_ALPHA = 0.2


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
    """Bounds queued + in-flight requests per tenant, sheds overload.

    Args:
        max_in_flight: concurrently *executing* statements per tenant.
        max_queued: statements per tenant allowed to wait beyond that.
        shed_queue_depth: global server-queue depth at which new work is
            shed (``None`` disables queue-depth shedding).  Priority
            tenants are shed only at twice this threshold.
        priority_tenants: tenants whose work survives queue-pressure
            shedding longest (hot tenants per the ROADMAP).

    The request lifecycle drives three transitions, all serialized on
    one internal lock: :meth:`try_admit` (queued++, or reject),
    :meth:`try_start` (queued → in_flight, refused at the per-tenant
    execution cap), :meth:`on_finish` (in_flight--).  A rejected
    request touches nothing but the rejection counters.
    """

    def __init__(
        self,
        max_in_flight: int = 4,
        max_queued: int = 16,
        shed_queue_depth: Optional[int] = None,
        priority_tenants: Iterable[str] = (),
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if shed_queue_depth is not None and shed_queue_depth < 1:
            raise ValueError("shed_queue_depth must be >= 1 or None")
        self.max_in_flight = max_in_flight
        self.max_queued = max_queued
        self.shed_queue_depth = shed_queue_depth
        self.priority_tenants: FrozenSet[str] = frozenset(priority_tenants)
        self._lock = lockwitness.named_lock("AdmissionController._lock")
        self._tenants: Dict[str, TenantState] = {}
        self._queued_ids: Dict[int, str] = {}
        self._sheds: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self._service_time_ewma: Optional[float] = None

    def _state(self, tenant: str) -> TenantState:
        """Caller holds ``_lock``."""
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState()
            self._tenants[tenant] = state
        return state

    # -- overload shedding -----------------------------------------------------

    def observe_service_time(self, seconds: float) -> None:
        """Feed one completed request's service time into the EWMA."""
        if seconds < 0:
            return
        with self._lock:
            if self._service_time_ewma is None:
                self._service_time_ewma = seconds
            else:
                self._service_time_ewma = (
                    _SERVICE_TIME_ALPHA * seconds
                    + (1.0 - _SERVICE_TIME_ALPHA) * self._service_time_ewma
                )

    def estimated_wait(self, queue_depth: int, workers: int) -> Optional[float]:
        """Estimated queue wait + service time at the given backlog.

        ``None`` until at least one service time has been observed
        (never shed on a guess).
        """
        with self._lock:
            est = self._service_time_ewma
        if est is None:
            return None
        return (queue_depth / max(1, workers)) * est + est

    def should_shed(
        self,
        tenant: str,
        deadline_seconds: Optional[float],
        queue_depth: int,
        workers: int,
    ) -> Optional[str]:
        """Decide whether to shed a request *before* admission.

        Returns the shed reason (an element of :data:`SHED_REASONS`)
        and counts it, or ``None`` to proceed to :meth:`try_admit`.
        """
        depth_cap = self.shed_queue_depth
        if depth_cap is not None:
            if tenant in self.priority_tenants:
                depth_cap *= 2
            if queue_depth >= depth_cap:
                self._count_shed("queue_full", tenant)
                return "queue_full"
        if deadline_seconds is not None:
            wait = self.estimated_wait(queue_depth, workers)
            if wait is not None and wait > deadline_seconds:
                self._count_shed("deadline_unmeetable", tenant)
                return "deadline_unmeetable"
        return None

    def _count_shed(self, reason: str, tenant: str) -> None:
        with self._lock:
            self._sheds[reason] += 1
            self._state(tenant).rejected += 1

    def sheds(self) -> Dict[str, int]:
        """Point-in-time shed counts per reason (all reasons present)."""
        with self._lock:
            return dict(self._sheds)

    @property
    def total_sheds(self) -> int:
        with self._lock:
            return sum(self._sheds.values())

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
                self._sheds["tenant_limit"] += 1
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
        """An executing request reached a terminal state."""
        with self._lock:
            self._state(tenant).in_flight -= 1

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

    def on_complete(self, tenant: str) -> None:
        """Count one terminal response (any status but REJECTED)."""
        with self._lock:
            self._state(tenant).completed += 1

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

    def register_metrics(self, registry) -> None:
        """Publish shed counters on a :class:`MetricsRegistry`.

        One ``repro_resilience_sheds_total`` series per reason in
        :data:`SHED_REASONS` — the label set is fixed at registration
        so scrapes are stable from the first request.
        """
        for reason in SHED_REASONS:
            registry.counter(
                "repro_resilience_sheds_total",
                "Requests shed before admission, by reason.",
                labels={"reason": reason},
                fn=lambda r=reason: self.sheds()[r],
            )
        registry.gauge(
            "repro_resilience_service_time_ewma_seconds",
            "EWMA of observed request service times feeding the "
            "deadline-aware shed decision.",
            fn=lambda: self._service_time_ewma or 0.0,
        )
