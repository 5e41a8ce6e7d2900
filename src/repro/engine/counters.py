"""Per-query execution counters.

These counters are the reproduction's primary results: the paper's
Table 4 reports *runtime*, *rows scanned*, and *blocks accessed* — the
latter two are exact counts here, and runtime is derived from them via
the :class:`~repro.engine.cost.CostModel` (plus measured wall time).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    from ..storage.rms import StorageStats

__all__ = ["QueryCounters"]


@dataclass
class QueryCounters:
    """Counters accumulated while executing one query."""

    rows_scanned: int = 0
    rows_qualifying: int = 0
    rows_joined: int = 0
    rows_output: int = 0
    blocks_accessed: int = 0
    remote_fetches: int = 0
    bytes_fetched: int = 0
    blocks_pruned_zonemap: int = 0
    rows_skipped_cache: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bloom_probes: int = 0
    bloom_positives: int = 0
    # Reuse-lattice counters (zero unless enable_reuse is configured).
    reuse_composed_serves: int = 0
    reuse_subsumed_serves: int = 0
    reuse_recheck_rows: int = 0
    reuse_skipped_rows: int = 0
    # Resilience counters (zero unless fault injection is armed).
    storage_faults: int = 0
    corrupt_blocks: int = 0
    storage_retries: int = 0
    retry_giveups: int = 0
    degraded_scans: int = 0
    backoff_seconds: float = 0.0
    result_cache_hit: bool = False
    wall_seconds: float = 0.0
    model_seconds: float = 0.0

    def merge(self, other: "QueryCounters") -> None:
        """Accumulate another counter set (sub-plan into query totals).

        Every numeric field sums, *including* ``wall_seconds`` and
        ``model_seconds``: a sub-plan's measured time is part of the
        enclosing query's total, so merging two timed sub-plans yields
        their combined time.  (Callers that re-measure the whole query
        overwrite ``wall_seconds`` afterwards — ``execute_plan`` does.)
        ``result_cache_hit`` ORs: a merged result is cache-served if any
        merged part was.
        """
        self.rows_scanned += other.rows_scanned
        self.rows_qualifying += other.rows_qualifying
        self.rows_joined += other.rows_joined
        self.rows_output += other.rows_output
        self.blocks_accessed += other.blocks_accessed
        self.remote_fetches += other.remote_fetches
        self.bytes_fetched += other.bytes_fetched
        self.blocks_pruned_zonemap += other.blocks_pruned_zonemap
        self.rows_skipped_cache += other.rows_skipped_cache
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.bloom_probes += other.bloom_probes
        self.bloom_positives += other.bloom_positives
        self.reuse_composed_serves += other.reuse_composed_serves
        self.reuse_subsumed_serves += other.reuse_subsumed_serves
        self.reuse_recheck_rows += other.reuse_recheck_rows
        self.reuse_skipped_rows += other.reuse_skipped_rows
        self.storage_faults += other.storage_faults
        self.corrupt_blocks += other.corrupt_blocks
        self.storage_retries += other.storage_retries
        self.retry_giveups += other.retry_giveups
        self.degraded_scans += other.degraded_scans
        self.backoff_seconds += other.backoff_seconds
        self.result_cache_hit = self.result_cache_hit or other.result_cache_hit
        self.wall_seconds += other.wall_seconds
        self.model_seconds += other.model_seconds

    def add_storage(self, stats: "StorageStats") -> None:
        """Fold one statement's storage sink in (block traffic, resilience)."""
        self.blocks_accessed += stats.blocks_accessed
        self.remote_fetches += stats.remote_fetches
        self.bytes_fetched += stats.bytes_fetched
        self.storage_faults += stats.transient_errors
        self.corrupt_blocks += stats.corrupt_blocks
        self.storage_retries += stats.retries
        self.retry_giveups += stats.retry_giveups
        self.backoff_seconds += stats.backoff_model_seconds

    def snapshot(self) -> Tuple[float, ...]:
        """Current values as a flat tuple (for before/after deltas).

        Deliberately not a ``QueryCounters`` copy: tracing snapshots run
        twice per slice per traced scan — per worker in parallel mode —
        and a plain tuple skips dataclass construction entirely.  The
        field order is :data:`_FIELD_NAMES` (dataclass declaration
        order); only :meth:`delta` should interpret it.
        """
        return _SNAPSHOT(self)

    def delta(self, before: Tuple[float, ...]) -> Dict[str, float]:
        """Non-zero numeric changes since a :meth:`snapshot` tuple
        (span attributes)."""
        out: Dict[str, float] = {}
        for name, previous in zip(_FIELD_NAMES, before):
            if name == "result_cache_hit":
                continue
            diff = getattr(self, name) - previous
            if diff:
                out[name] = diff
        return out

    def as_dict(self) -> Dict[str, float]:
        return dict(vars(self))


#: Dataclass field order — derived, so it cannot drift from the class.
_FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(QueryCounters))
_SNAPSHOT = attrgetter(*_FIELD_NAMES)

#: Snapshot of a zero counter set; the parallel coordinator deltas each
#: worker's fresh counters against this to build span attributes.
ZERO_SNAPSHOT: Tuple[float, ...] = _SNAPSHOT(QueryCounters())
