"""Concurrent multi-client serving over one shared engine (DESIGN.md §12–§13).

The serving layer turns the single-session :class:`~repro.engine.QueryEngine`
into a multi-client front end: a bounded worker pool executes statements
from many clients concurrently, per-tenant admission control rejects
load past configured queue/in-flight limits (the one overload
mechanism), deadlines are honored at dispatch, and DML serializes
against concurrent SELECTs through a shared/exclusive statement lock.

The resilience control plane lives here too: a
:class:`ClusterHealthMonitor` heartbeats cluster nodes on each tick and
replaces dead ones, and a :class:`RecoveryOrchestrator` stages
mid-write crashes and drives warm restarts.
"""

from .admission import AdmissionController, TenantState
from .envelope import Request, RequestStatus, Response
from .health import ClusterHealthMonitor, NodeState
from .recovery import RecoveryOrchestrator, RecoveryReport
from .server import QueryServer, ReadWriteLock

__all__ = [
    "AdmissionController",
    "ClusterHealthMonitor",
    "NodeState",
    "QueryServer",
    "ReadWriteLock",
    "RecoveryOrchestrator",
    "RecoveryReport",
    "Request",
    "RequestStatus",
    "Response",
    "TenantState",
]
