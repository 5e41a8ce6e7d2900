"""Request/response envelopes for the serving layer (DESIGN.md §12).

A :class:`Request` is what a client hands the server: one SQL
statement, the tenant it bills to, and an optional deadline.  A
:class:`Response` is what the client's future resolves to — always,
for every accepted *or rejected* request: errors, rejections, and
deadline misses are all materialized as statuses, never raised across
the serving boundary.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Request", "RequestStatus", "Response"]

# Request ids are handed out process-wide; itertools.count.__next__ is
# atomic under the GIL, so concurrent submitters never share an id.
_REQUEST_IDS = itertools.count(1)


class RequestStatus(enum.Enum):
    """Terminal state of one request's journey through the server."""

    #: Executed; ``result`` holds the engine's QueryResult.
    OK = "ok"
    #: Refused at the door by admission control (or a closed server);
    #: the statement never reached the queue.
    REJECTED = "rejected"
    #: Dequeued after its deadline had already passed; never executed.
    TIMED_OUT = "timed_out"
    #: Executed and raised; ``error`` holds the message.
    ERROR = "error"


@dataclass(frozen=True)
class Request:
    """One client statement submitted to a :class:`~repro.serve.QueryServer`.

    Args:
        sql: the statement to execute.
        tenant: admission-control bucket (and metrics label).
        deadline_seconds: latency budget measured from submission; a
            request still queued when its budget lapses is failed with
            :attr:`RequestStatus.TIMED_OUT` instead of executing late.
    """

    sql: str
    tenant: str = "default"
    deadline_seconds: Optional[float] = None
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))


@dataclass
class Response:
    """Terminal outcome of one request (the future's resolved value)."""

    request: Request
    status: RequestStatus
    #: The engine result (OK only).
    result: Optional[object] = None
    #: Human-readable failure description (ERROR/REJECTED/TIMED_OUT).
    error: Optional[str] = None
    #: Seconds spent waiting in the queue before execution/timeout.
    queued_seconds: float = 0.0
    #: Submission-to-completion seconds (queue wait + execution).
    total_seconds: float = 0.0
    #: Why a REJECTED request was shed: ``"tenant_limit"`` (over its
    #: admission caps) or ``"server_closed"``; ``None`` for every other
    #: status.
    shed_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK
