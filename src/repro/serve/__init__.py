"""Concurrent multi-client serving over one shared engine (DESIGN.md §12–§13).

The serving layer turns the single-session :class:`~repro.engine.QueryEngine`
into a multi-client front end: a bounded worker pool executes statements
from many clients concurrently, per-tenant admission control rejects
load past configured queue/in-flight limits (the one overload
mechanism), deadlines are honored at dispatch, and DML serializes
against concurrent SELECTs through a shared/exclusive statement lock.

A :class:`RecoveryOrchestrator` stages mid-write cache crashes and
drives warm restarts.  A dead cluster node needs nothing from this
layer: its tombstone sends its slices cache-off, and whoever killed it
replaces it with ``ClusterCaches.fail_node``.
"""

from .admission import AdmissionController, TenantState
from .envelope import Request, RequestStatus, Response
from .recovery import RecoveryOrchestrator, RecoveryReport
from .server import QueryServer, ReadWriteLock

__all__ = [
    "AdmissionController",
    "QueryServer",
    "ReadWriteLock",
    "RecoveryOrchestrator",
    "RecoveryReport",
    "Request",
    "RequestStatus",
    "Response",
    "TenantState",
]
