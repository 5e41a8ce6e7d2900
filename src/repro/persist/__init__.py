"""Persistent cache store & warm start: snapshot + journal subsystem.

The paper's predicate cache is volatile and per-compute-cluster — every
restart, resize, or node replacement starts cold and must relearn its
entries from query repetition (the hit-rate ramp of Fig. 13).  This
package makes the learned state durable:

* :mod:`~repro.persist.records` — transfer records between live cache
  objects and bytes (bit-identical reconstruction).
* :mod:`~repro.persist.format` — the versioned binary snapshot format
  (magic + version + per-section CRC32) and the framed journal records.
* :mod:`~repro.persist.store` — :class:`CacheStore`: atomic snapshot
  rotation, append-only journaling with crash injection points,
  compaction, and the recovery path (load → replay → revalidate →
  hydrate).

Warm start is wired into :class:`~repro.core.cache.PredicateCache`
(``attach_store`` write-through hooks) and
:class:`~repro.cluster.ClusterCaches` (replacement nodes in
``fail_node`` and re-sharded nodes in ``resize`` hydrate from the
store).  See DESIGN.md §9.
"""

from .records import EntryRecord, collect_records, key_digest
from .store import CacheStore, LoadResult

__all__ = [
    "CacheStore",
    "EntryRecord",
    "LoadResult",
    "collect_records",
    "key_digest",
]
