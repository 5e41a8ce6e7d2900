"""Concurrent multi-client serving over one shared engine (DESIGN.md §12–§13).

The serving layer turns the single-session :class:`~repro.engine.QueryEngine`
into a multi-client front end: a bounded worker pool executes statements
from many clients concurrently, per-tenant admission control rejects
load past configured queue/in-flight limits (the one overload
mechanism), deadlines are honored at dispatch, and DML serializes
against concurrent SELECTs through a shared/exclusive statement lock.

Failure survival needs nothing from this layer.  A dead cluster node's
tombstone sends its slices cache-off, and whoever killed it replaces it
with ``ClusterCaches.fail_node``.  A cache-process restart is three
calls on the engine's caches and store: detach the old caches and close
the old store, open a fresh :class:`~repro.persist.CacheStore` over the
same directory, and hand the engine a cache hydrated from it with
``QueryEngine.set_predicate_cache``.
"""

from .admission import AdmissionController, TenantState
from .envelope import Request, RequestStatus, Response
from .server import QueryServer, ReadWriteLock

__all__ = [
    "AdmissionController",
    "QueryServer",
    "ReadWriteLock",
    "Request",
    "RequestStatus",
    "Response",
    "TenantState",
]
