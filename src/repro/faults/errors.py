"""Fault taxonomy for the resilience layer.

The failure classes a warehouse sees from cloud object storage and its
own compute nodes:

* :class:`TransientStorageError` — a fetch failed outright (connection
  reset, 500/503, throttling).  Retryable by definition.  A fetch whose
  payload fails its checksum (bit flip in transit, truncated body) is
  retried the same way and counted as a corrupt block; when the fetch
  loop runs out of attempts on either, it raises this error.
* :class:`RetryBudgetExceeded` — the statement's retry budget ran out
  before the read could be retried.  Like an exhausted
  :class:`TransientStorageError`, it surfaces to the query: the fetch
  loop is the one place a failing read is retried.
* :class:`NodeDownError` — a cluster compute node stopped answering
  (crashed process).  Raised by a dead node's cache tombstone; the scan
  path degrades to cache-off scans for that node's slices until
  ``ClusterCaches.fail_node`` replaces it (DESIGN.md §13).
"""

from __future__ import annotations

__all__ = [
    "StorageFault",
    "TransientStorageError",
    "RetryBudgetExceeded",
    "NodeDownError",
]


class StorageFault(Exception):
    """Base class for injected or detected storage-layer faults."""


class TransientStorageError(StorageFault):
    """A remote read failed; the operation is safe to retry."""


class RetryBudgetExceeded(StorageFault):
    """Retries were exhausted; the read cannot be served."""


class NodeDownError(StorageFault):
    """A cluster node is unreachable; callers scan without its cache."""
