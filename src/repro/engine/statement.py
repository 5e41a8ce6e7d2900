"""What one statement carries through the engine, as one explicit value.

Nothing a statement owns is ambient — bound to a thread or copied onto
a shared object — so any thread may run any part of any statement.
"""

from __future__ import annotations

from typing import Optional

from ..core.cache import PredicateCache
from ..obs.trace import Tracer
from ..storage.rms import ManagedStorage
from . import parallel
from .counters import QueryCounters

__all__ = ["StatementContext"]


class StatementContext:
    """One SELECT / DELETE / UPDATE: built once where it starts, handed
    down every call (executor operators, ``execute_scan``, slice tasks).

    Args:
        txid: MVCC visibility snapshot of the statement's reads.
        rms: the storage it reads; ``storage`` becomes its private
            :class:`~repro.storage.rms.QueryStorageContext`, passed
            wherever a read takes its ``rms``.
        cache: the ``PredicateCache`` or ``ClusterCaches`` router as the
            engine held it at statement start; None scans cache-off.
        trace: the statement's own span stack
            (:meth:`Tracer.for_statement`), or None when untraced.
        workers: slice-scan worker threads; ``0`` runs slice tasks
            inline, ``None`` reads ``REPRO_PARALLEL``, once, here.

    Single writer per field: the coordinating thread owns ``counters``
    and ``trace`` (slice tasks count into their own ``QueryCounters``
    and only read the trace's clock); ``storage`` is written under the
    storage lock.
    """

    __slots__ = ("txid", "counters", "storage", "cache", "trace", "workers")

    def __init__(
        self,
        txid: int,
        rms: ManagedStorage,
        cache: Optional[PredicateCache] = None,
        trace: Optional[Tracer] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.txid = txid
        self.counters = QueryCounters()
        self.storage = rms.query_context()
        self.cache = cache
        self.trace = trace
        self.workers = (
            parallel.configured_workers() if workers is None else max(0, int(workers))
        )

    def close(self) -> QueryCounters:
        """Fold the storage sink into the counters; the statement's totals."""
        self.counters.add_storage(self.storage.stats)
        return self.counters
