"""Managed storage: the block-fetch layer and its cost accounting.

Redshift compute nodes download column blocks from Redshift Managed
Storage (RMS, backed by S3) and cache them on local SSD (§4.2.1).  The
reproduction models this as a *residency* LRU of block keys in front of
the sealed blocks: the first access to a block is a *remote fetch*
(slow, counted), later accesses are *local hits* (fast, counted) until
the block is evicted (LRU by capacity) or invalidated (vacuum/reseal).
The storage decides only whether a read is local or remote: it counts,
and it hands no values to anyone.  The reader owns the values and
decodes them itself: a column fills the rows of its ``(blocks,
rows_per_block)`` decoded array
(:meth:`~repro.storage.column.DecodedBlocks.fill`) before it reads, the
lake scanner decodes its row group's chunks after the read.  The rules
(DESIGN.md §11):

* **A reader fills before it reads.**  Rows never depend on residency:
  a hit and a miss take the same row, written before the storage is
  asked.
* **A block decodes once per build.**  A re-fetch after eviction counts
  a remote fetch and decodes nothing.
* **Capacity bounds residency, not decoded memory.**  Evicting a key
  makes its next read remote; the row stays where it was written.

Under an attached :class:`~repro.faults.FaultInjector` a read round
decodes its misses by the batch, one codec call per group of blocks
that share a codec, a length and a decoded dtype
(:func:`~repro.storage.compression.decode_blocks`), only to verify
them, and each fetched block runs its attempt loop, in key order, over
its decoded row: every attempt is decided by ``FaultInjector.decide``,
keyed by the block, the injector's count of that block's fetches and
the attempt, so which fetches fault depends on what was read, never on
how concurrent statements interleaved.  An attempt that is not failed
verifies the row's checksum, on a corrupted copy when the attempt
corrupts; nothing keeps the rows afterwards.  A fetch that gives up
leaves the blocks before it counted and resident.

`StorageStats` is the ground truth behind the paper's "blocks accessed"
columns: every experiment reads these counters rather than timing alone,
so the reproduction's comparisons are exact even where wall-clock is not.

Concurrency model (DESIGN.md §12):

* **Every read names its reader.**  A statement reads through its own
  :class:`QueryStorageContext` (:meth:`ManagedStorage.query_context`),
  handed down the call like any other argument and into
  ``ColumnStore.read_ranges`` in the ``rms`` slot; everything outside a
  statement (vacuum, statistics, baselines, tools) passes the storage
  itself.  The context carries a private ``StorageStats`` sink mirroring
  every counter its reads touch (the engine reads a query's counters
  there instead of diffing the global stats, which concurrent queries
  would pollute) and the per-query retry budget.  Nothing is bound to a
  thread, so one thread may drive several statements.
* **A scan evicts once, at its barrier.**  Every read moves its keys to
  the most-recent end of a bounded LRU.  While a reader is scanning
  (:meth:`QueryStorageContext.begin_scan_phase` / ``end_scan_phase``)
  capacity eviction waits for the end of the scan, so a scan larger
  than the cache keeps its last ``capacity`` blocks instead of
  flooding the cache as it reads: evict-as-you-go pushes out the
  blocks a repeat of the scan reads first.  An unbounded cache keeps no
  recency order at all — nothing would read it.
* **One storage lock, held per call, not per block.**  A single
  always-on ``threading.Lock`` guards the residency LRU, the stats,
  the per-query sinks and the retry budgets; no value is written under
  it.  :meth:`ManagedStorage.read_blocks` — the one read path, called
  once per (slice, column) — takes it for one round that looks every
  key up and counts the hits, and, only if something missed, for a
  second round that counts and makes resident what was fetched.
  Verification and fault retries run *between* the rounds, so remote
  fetches overlap across concurrent statements.  Nothing marks a miss
  as in flight: two threads missing the same block between each
  other's rounds both fetch it and both count a remote fetch — the
  duplicated round trip a real node cache exhibits.  Workloads that
  need exact per-query counters keep their tables disjoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..faults import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStorageError,
    quantize_model_seconds,
)
from .compression import EncodedBlock, array_checksum, decode_blocks

__all__ = ["BlockKey", "ManagedStorage", "QueryStorageContext", "StorageStats"]

# (table, slice, column, block index) uniquely names a block.
BlockKey = Tuple[str, int, str, int]


@dataclass
class StorageStats:
    """Monotonic counters of storage traffic and read resilience.

    Snapshot-and-subtract via :meth:`delta` to measure one serial
    query; concurrent queries read their own
    :class:`QueryStorageContext` sink instead.
    """

    remote_fetches: int = 0
    local_hits: int = 0
    bytes_fetched: int = 0
    blocks_invalidated: int = 0
    # Resilience counters: all zero unless a FaultInjector is attached.
    transient_errors: int = 0
    corrupt_blocks: int = 0
    retries: int = 0
    retry_giveups: int = 0
    backoff_model_seconds: float = 0.0

    @property
    def blocks_accessed(self) -> int:
        """Total block reads (remote + local), the paper's metric."""
        return self.remote_fetches + self.local_hits

    def snapshot(self) -> "StorageStats":
        return StorageStats(**vars(self))

    def delta(self, before: "StorageStats") -> "StorageStats":
        """Counters accumulated since ``before`` was snapshotted."""
        return StorageStats(
            **{k: v - getattr(before, k) for k, v in vars(self).items()}
        )


class QueryStorageContext:
    """One statement's reader of a :class:`ManagedStorage`.

    Created by :meth:`ManagedStorage.query_context` and passed wherever
    a read takes its ``rms``: ``stats`` is its private sink,
    ``retry_budget_left`` its fault-retry allowance, and ``scanning``
    whether it is inside a scan, whose reads leave eviction to
    :meth:`end_scan_phase` (see the module doc).
    """

    __slots__ = ("storage", "stats", "retry_budget_left", "scanning")

    def __init__(self, storage: "ManagedStorage", retry_budget: Optional[int]) -> None:
        self.storage = storage
        self.stats = StorageStats()
        self.retry_budget_left = retry_budget
        self.scanning = False

    def read_blocks(
        self,
        keys: Sequence[BlockKey],
        blocks: Sequence[EncodedBlock],
    ) -> None:
        """:meth:`ManagedStorage.read_blocks`, accounted to this statement."""
        self.storage.read_blocks(keys, blocks, self)

    def begin_scan_phase(self) -> None:
        """Hold capacity eviction back until :meth:`end_scan_phase`."""
        self.scanning = True

    def end_scan_phase(self) -> None:
        """The scan's barrier: evict down to capacity, coldest first."""
        self.scanning = False
        self.storage._settle((), self)


class ManagedStorage:
    """Block residency LRU with remote-fetch accounting.

    Args:
        cache_capacity: number of blocks resident locally (LRU).
            ``None`` means unbounded (everything fits on local SSD, the
            common case for the scaled-down benchmarks).  It bounds
            residency, not decoded memory: the values live with the
            reader that decoded them.
    """

    def __init__(self, cache_capacity: Optional[int] = None) -> None:
        # The resident keys, coldest first; the values are unused.
        self._cache: "OrderedDict[BlockKey, None]" = OrderedDict()
        self.cache_capacity = cache_capacity
        self.stats = StorageStats()
        self.fault_injector: Optional[FaultInjector] = None
        self.retry_policy = RetryPolicy()
        # The reader of callers that pass the storage itself (vacuum,
        # statistics, tools): global stats only, a storage-wide retry
        # budget, never scanning.  Statements bring their own.
        self._direct = QueryStorageContext(self, None)
        # Resolved once at attach time so the per-fetch check is a
        # single attribute load ("no faults configured" costs nothing).
        self._faults_armed = False
        # One always-on lock guards the residency LRU, the global stats,
        # per-query sinks and retry budgets.  Verification and fault
        # retries run outside it (see module doc).
        self._lock = threading.Lock()

    # -- fault wiring ----------------------------------------------------------

    def attach_faults(
        self,
        injector: Optional[FaultInjector],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """Arm (or, with None, disarm) fault injection on remote fetches."""
        self.fault_injector = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        self._faults_armed = injector is not None and injector.can_fault
        self._direct.retry_budget_left = self.retry_policy.retry_budget

    # -- per-query accounting --------------------------------------------------

    def query_context(self) -> QueryStorageContext:
        """A fresh reader for one statement: private sink, own retry budget."""
        return QueryStorageContext(self, self.retry_policy.retry_budget)

    # -- the read path ---------------------------------------------------------

    def _sinks(self, reader: QueryStorageContext) -> Tuple[StorageStats, ...]:
        """The stats a count goes into (under ``_lock``): global + the reader's."""
        return (self.stats,) if reader is self._direct else (self.stats, reader.stats)

    def read_blocks(
        self,
        keys: Sequence[BlockKey],
        blocks: Sequence[EncodedBlock],
        reader: Optional[QueryStorageContext] = None,
    ) -> None:
        """Read ``blocks``: count every access and make every key resident.

        ``keys`` name distinct blocks of one slice, read in one round
        (:meth:`_read_round`).  Counters and residency end-state are
        those of reading the keys one at a time.  No value leaves the
        storage: the reader decodes what it takes (the module doc).
        ``reader`` is the statement the read belongs to: its sink is
        counted into, its budget pays for retries, and while it is
        scanning, eviction waits for its ``end_scan_phase``.
        """
        if reader is None:
            reader = self._direct
        capacity = self.cache_capacity
        # Capacity 0 (the lake scanner's) keeps nothing resident past a
        # round, so every key misses in either order: one round.
        if not reader.scanning and capacity and len(keys) > 1:
            if len(self._cache) + len(keys) > capacity:
                # A read outside a scan evicts as it inserts: a miss may
                # push out a block a later key would have hit.  Keep that order.
                for key, block in zip(keys, blocks):
                    self._read_round((key,), (block,), reader)
                return
        self._read_round(keys, blocks, reader)

    def _read_round(
        self,
        keys: Sequence[BlockKey],
        blocks: Sequence[EncodedBlock],
        reader: QueryStorageContext,
    ) -> None:
        """One lock round looks every key up and counts the hits.  Under
        an armed injector the misses then decode outside the lock, in
        one call per codec group, and run their attempt loops in key
        order over those rows, which nothing keeps.  A second round
        counts what was fetched, makes it resident and moves every key
        to the most-recent end."""
        cache = self._cache
        sinks = self._sinks(reader)
        with self._lock:
            missing = [i for i, key in enumerate(keys) if key not in cache]
            hits = len(keys) - len(missing)
            for stats in sinks:
                stats.local_hits += hits
            if not missing:
                self._settle_locked(keys, reader)
                return
        fetched = [keys[i] for i in missing]
        encoded = [blocks[i] for i in missing]
        done = len(fetched)
        try:
            if self._faults_armed:
                done = 0
                rows = {
                    position: row
                    for positions, values in decode_blocks(encoded)
                    for position, row in zip(positions, values)
                }
                for position, (key, block) in enumerate(zip(fetched, encoded)):
                    self._attempts(key, block, rows[position], reader)
                    done += 1
        finally:
            # A fetch that raised leaves the ones before it counted and resident.
            nbytes = sum([block.nbytes for block in encoded[:done]])
            with self._lock:
                for stats in sinks:
                    stats.remote_fetches += done
                    stats.bytes_fetched += nbytes
                for key in fetched[:done]:
                    cache[key] = None
                self._settle_locked(keys, reader)

    def _settle(self, keys: Sequence[BlockKey], reader: QueryStorageContext) -> None:
        with self._lock:
            self._settle_locked(keys, reader)

    def _settle_locked(
        self, keys: Sequence[BlockKey], reader: QueryStorageContext
    ) -> None:
        """Make ``keys`` most recent, in order; unless ``reader`` is
        scanning, evict the coldest keys down to capacity.  An unbounded
        cache does neither.  Caller holds ``_lock``."""
        capacity = self.cache_capacity
        if capacity is None:
            return
        cache = self._cache
        move_to_end = cache.move_to_end
        for key in keys:
            try:
                move_to_end(key)
            except KeyError:
                pass  # a fetch that raised, or evicted between the rounds
        if not reader.scanning:
            while len(cache) > capacity:
                cache.popitem(last=False)

    def _attempts(
        self,
        key: BlockKey,
        block: EncodedBlock,
        values: np.ndarray,
        reader: QueryStorageContext,
    ) -> None:
        """One fetched block's attempts under fault injection: verify,
        retry with backoff, give up.

        Every attempt consults the injector.  One that does not fail
        verifies ``values`` (the block's decoded row) against the
        block's checksum, on a corrupted copy when the attempt corrupts;
        a corrupted attempt is retried like a transient error.
        Exhausting ``max_attempts`` or the per-query retry budget raises
        (the last rung of the degradation ladder).

        Each attempt's verdict, corruption shape and jitter come from
        its own stream (:meth:`FaultInjector.decide`, keyed by the block,
        which fetch of it this is, and the attempt); model-time addends
        are quantized, so neither depends on thread interleaving.
        """
        injector = self.fault_injector
        policy = self.retry_policy
        sinks = self._sinks(reader)
        ordinal = injector.next_ordinal(key)
        attempt = 0
        while True:
            decision, stream = injector.decide(key, ordinal, attempt)
            if decision.latency_seconds:
                latency = quantize_model_seconds(decision.latency_seconds)
                with self._lock:
                    for stats in sinks:
                        stats.backoff_model_seconds += latency
            if decision.fail:
                with self._lock:
                    for stats in sinks:
                        stats.transient_errors += 1
            else:
                read = values
                if decision.corrupt:
                    read = injector.corrupt_array(values, stream)
                if block.checksum is None or array_checksum(read) == block.checksum:
                    return
                with self._lock:
                    for stats in sinks:
                        stats.corrupt_blocks += 1
            attempt += 1
            if attempt >= policy.max_attempts:
                with self._lock:
                    for stats in sinks:
                        stats.retry_giveups += 1
                raise TransientStorageError(
                    f"block {key} unreadable after {attempt} attempts"
                )
            jitter = stream.random()
            with self._lock:
                if reader.retry_budget_left is not None:
                    if reader.retry_budget_left <= 0:
                        for stats in sinks:
                            stats.retry_giveups += 1
                        raise RetryBudgetExceeded(
                            f"query retry budget exhausted fetching block {key}"
                        )
                    reader.retry_budget_left -= 1
                backoff = quantize_model_seconds(
                    policy.backoff_seconds(attempt - 1, jitter)
                )
                for stats in sinks:
                    stats.retries += 1
                    stats.backoff_model_seconds += backoff

    def invalidate_table(self, table_name: str) -> None:
        """Make no block of one table resident (rewrite / drop)."""
        with self._lock:
            stale = [k for k in self._cache if k[0] == table_name]
            for key in stale:
                del self._cache[key]
            self.stats.blocks_invalidated += len(stale)

    def clear(self) -> None:
        """Make no block resident (simulates a cold node)."""
        with self._lock:
            self._cache.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)
