"""The multi-client serving front end (DESIGN.md §12).

:class:`QueryServer` runs many clients' statements concurrently over
one shared :class:`~repro.engine.QueryEngine`:

* a bounded worker pool executes statements pulled from a FIFO queue;
* :class:`~repro.serve.admission.AdmissionController` bounds each
  tenant's outstanding work (max in-flight + queue depth) and counts
  rejections;
* requests carry deadlines, re-checked at dequeue — a statement whose
  latency budget lapsed while queued is failed, not executed late;
* SELECTs run concurrently under a shared read lock while DML
  (insert/update/delete/vacuum/analyze) takes the exclusive side —
  table mutation and the MVCC single-writer model stay serialized
  while the read path scales out;
* :meth:`drain` / :meth:`shutdown` stop intake first, then let queued
  work finish (or abandon it), then join the workers.

Every terminal outcome — success, engine error, rejection, deadline
miss — resolves the client's future with a
:class:`~repro.serve.envelope.Response`; nothing ever raises across
the serving boundary, and workers cannot die to an engine exception.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, List, Optional

from ..obs import lockwitness
from .admission import AdmissionController
from .envelope import Request, RequestStatus, Response

__all__ = ["QueryServer", "ReadWriteLock"]

# Statements whose first keyword mutates table or catalog state take
# the write lock; everything else shares the read side.
_WRITE_KEYWORDS = frozenset({"insert", "update", "delete", "vacuum", "analyze"})


class ReadWriteLock:
    """A writer-preferring shared/exclusive lock.

    Many readers may hold the lock together; a writer waits for them to
    drain and excludes everyone.  Pending writers block *new* readers
    (preference), so a DML statement is not starved by a steady SELECT
    stream.  Not re-entrant on either side.
    """

    def __init__(self) -> None:
        self._cv = lockwitness.named_condition("ReadWriteLock._cv")
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cv:
            while self._writer_active or self._writers_waiting:
                self._cv.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cv:
            self._readers -= 1
            if self._readers == 0:
                self._cv.notify_all()

    def acquire_write(self) -> None:
        with self._cv:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cv.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cv:
            self._writer_active = False
            self._cv.notify_all()


class _Pending:
    """One admitted request waiting in the server's queue."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: Request, future: Future, enqueued_at: float) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


class QueryServer:
    """Concurrent statement execution over one shared engine.

    Args:
        engine: the shared :class:`~repro.engine.QueryEngine`.  With a
            tracer attached, every ``Response.result.trace`` is that
            request's own span tree (a span stack belongs to one
            statement, obs/trace.py).
        max_workers: worker threads executing statements (the global
            concurrency bound; per-tenant bounds come from
            ``admission``).
        admission: per-tenant limits; defaults to an
            :class:`AdmissionController` sized so a single default
            tenant can keep the whole pool busy.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; the
            server registers request/rejection/timeout counters
            (per-tenant labels created on first sight), queue/latency
            histograms, and occupancy gauges.

    Locking discipline (DESIGN.md §12): the queue and lifecycle flags
    are guarded by ``_cv``'s lock; admission state by the controller's
    own lock; engine-level shared state by the read/write statement
    lock; everything below (cache, storage, counters) by the layers'
    internal locks.  Mutation outside those regions is rejected by
    checker rule RP007.
    """

    def __init__(
        self,
        engine,
        max_workers: int = 8,
        admission: Optional[AdmissionController] = None,
        metrics=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.engine = engine
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_in_flight=max_workers, max_queued=4 * max_workers)
        )
        self._cv = lockwitness.named_condition("QueryServer._cv")
        self._queue: Deque[_Pending] = deque()
        self._accepting = True
        self._stopping = False
        self._active = 0  # statements currently executing (all tenants)
        self._statement_lock = ReadWriteLock()
        self._metrics = metrics
        self._m_latency = None
        if metrics is not None:
            self._register_metrics(metrics)
        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- observability ---------------------------------------------------------

    def _register_metrics(self, registry) -> None:
        """Caller is __init__ (single-threaded); instruments themselves
        are internally locked."""
        self._m_latency = registry.histogram(
            "repro_serving_latency_seconds",
            "Submission-to-completion latency per request",
        )
        self._m_queue_wait = registry.histogram(
            "repro_serving_queue_seconds", "Queue wait before execution"
        )
        registry.gauge(
            "repro_serving_queue_depth",
            "Requests waiting in the server queue",
            fn=lambda: len(self._queue),
        )
        registry.gauge(
            "repro_serving_active",
            "Statements currently executing",
            fn=lambda: self._active,
        )
        registry.gauge(
            "repro_serving_rejected",
            "Requests rejected by admission control (all tenants)",
            fn=lambda: self.admission.total_rejected,
        )

    def _tenant_counter(self, name: str, help_text: str, tenant: str):
        if self._metrics is None:
            return None
        return self._metrics.counter(name, help_text, labels={"tenant": tenant})

    def _count_terminal(self, response: Response) -> None:
        if self._metrics is None:
            return
        counter = self._tenant_counter(
            f"repro_serving_{response.status.value}_total",
            f"Requests finishing with status {response.status.value}",
            response.request.tenant,
        )
        counter.inc()
        if self._m_latency is not None and response.status is not RequestStatus.REJECTED:
            self._m_latency.observe(response.total_seconds)

    # -- intake ----------------------------------------------------------------

    def submit(self, request: Request) -> "Future[Response]":
        """Queue one request; returns a future resolving to a Response.

        Rejections (admission control, closed server) resolve the
        future immediately — the caller always gets a Response, never
        an exception, and never blocks on a full tenant.
        """
        future: "Future[Response]" = Future()
        now = time.monotonic()
        with self._cv:
            accepting = self._accepting
            queue_depth = len(self._queue)
        if not accepting:
            return self._reject_closed(request, future)
        shed_reason = self.admission.should_shed(
            request.tenant,
            request.deadline_seconds,
            queue_depth,
            len(self._workers),
        )
        if shed_reason is not None:
            response = Response(
                request,
                RequestStatus.REJECTED,
                error=f"shed before admission ({shed_reason})",
                shed_reason=shed_reason,
            )
            self._count_terminal(response)
            future.set_result(response)
            return future
        if not self.admission.try_admit(request.tenant, request.request_id):
            response = Response(
                request,
                RequestStatus.REJECTED,
                error=f"tenant {request.tenant!r} is over its admission limits",
                shed_reason="tenant_limit",
            )
            self._count_terminal(response)
            future.set_result(response)
            return future
        pending = _Pending(request, future, now)
        with self._cv:
            # Re-checked where the request becomes visible to workers: a
            # shutdown that completed since the first look has joined
            # them, and nobody would ever dequeue it.
            accepting = self._accepting
            if accepting:
                self._queue.append(pending)
                self._cv.notify()
        if not accepting:
            self.admission.on_abandon(request.tenant, request.request_id)
            return self._reject_closed(request, future)
        return future

    def _reject_closed(
        self, request: Request, future: "Future[Response]"
    ) -> "Future[Response]":
        response = Response(
            request,
            RequestStatus.REJECTED,
            error="server is not accepting requests",
            shed_reason="server_closed",
        )
        self._count_terminal(response)
        future.set_result(response)
        return future

    def execute(self, sql: str, tenant: str = "default") -> Response:
        """Submit one statement and wait for its response (convenience)."""
        return self.submit(Request(sql, tenant=tenant)).result()

    # -- the worker side -------------------------------------------------------

    def _next_pending(self) -> Optional[_Pending]:
        """Pop the next dispatchable request, handling expiries in place.

        Runs on a worker thread.  Scans the FIFO for the first request
        whose tenant has execution capacity; expired requests are
        completed as TIMED_OUT during the scan.  Returns None when the
        server is stopping and the queue is empty (worker exits), or
        after completing an expiry (so the worker re-enters and expiry
        responses are never delayed behind an execution).
        """
        with self._cv:
            while True:
                now = time.monotonic()
                for index, pending in enumerate(self._queue):
                    request = pending.request
                    deadline = request.deadline_seconds
                    if (
                        deadline is not None
                        and now - pending.enqueued_at > deadline
                    ):
                        del self._queue[index]
                        self.admission.on_abandon(request.tenant, request.request_id)
                        response = Response(
                            request,
                            RequestStatus.TIMED_OUT,
                            error=(
                                f"deadline of {deadline}s passed after "
                                f"{now - pending.enqueued_at:.3f}s in queue"
                            ),
                            queued_seconds=now - pending.enqueued_at,
                            total_seconds=now - pending.enqueued_at,
                        )
                        self._count_terminal(response)
                        pending.future.set_result(response)
                        self._cv.notify_all()
                        break  # rescan: indices shifted
                    if self.admission.try_start(request.tenant, request.request_id):
                        del self._queue[index]
                        self._active += 1
                        return pending
                else:
                    if self._stopping and not self._queue:
                        return None
                    self._cv.wait(timeout=0.05)

    def _worker_loop(self) -> None:
        while True:
            pending = self._next_pending()
            if pending is None:
                return
            self._run_statement(pending)

    def _run_statement(self, pending: _Pending) -> None:
        """Execute one dequeued statement and resolve its future.

        Runs on a worker thread; engine/table state is guarded by the
        statement read/write lock, everything below by the layers'
        internal locks (caller holds no other lock).
        """
        request = pending.request
        started = time.monotonic()
        queued_seconds = started - pending.enqueued_at
        exclusive = _is_write_statement(request.sql)
        if exclusive:
            self._statement_lock.acquire_write()
        else:
            self._statement_lock.acquire_read()
        try:
            result = self.engine.execute(request.sql)
            status, error = RequestStatus.OK, None
        except Exception as exc:  # noqa: BLE001 - the boundary materializes errors
            result = None
            status, error = RequestStatus.ERROR, f"{type(exc).__name__}: {exc}"
        finally:
            if exclusive:
                self._statement_lock.release_write()
            else:
                self._statement_lock.release_read()
        now = time.monotonic()
        response = Response(
            request,
            status,
            result=result,
            error=error,
            queued_seconds=queued_seconds,
            total_seconds=now - pending.enqueued_at,
        )
        self.admission.on_finish(request.tenant)
        self.admission.on_complete(request.tenant)
        self.admission.observe_service_time(now - started)
        if self._m_latency is not None:
            self._m_queue_wait.observe(queued_seconds)
        self._count_terminal(response)
        with self._cv:
            self._active -= 1
            self._cv.notify_all()
        pending.future.set_result(response)

    # -- lifecycle -------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def active_statements(self) -> int:
        return self._active

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until queued + executing work hits zero.

        Intake stays open (a drain is a checkpoint, not a shutdown);
        returns False if ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queue or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(timeout=remaining)
            return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop intake, finish (or abandon) queued work, join workers.

        With ``drain=True`` (graceful) queued statements still execute;
        with ``drain=False`` they are completed as REJECTED without
        executing.  Idempotent.
        """
        with self._cv:
            self._accepting = False
            abandoned: List[_Pending] = []
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._cv.notify_all()
        for pending in abandoned:
            self.admission.on_abandon(
                pending.request.tenant, pending.request.request_id
            )
            response = Response(
                pending.request,
                RequestStatus.REJECTED,
                error="server shut down before execution",
                shed_reason="server_closed",
            )
            self._count_terminal(response)
            pending.future.set_result(response)
        if drain:
            self.drain(timeout=timeout)
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _is_write_statement(sql: str) -> bool:
    """True when the statement's first keyword mutates shared state."""
    stripped = sql.lstrip()
    first = stripped.split(None, 1)[0].lower() if stripped else ""
    return first in _WRITE_KEYWORDS
