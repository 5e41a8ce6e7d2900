"""Managed storage: the block-fetch layer and its cost accounting.

Redshift compute nodes download column blocks from Redshift Managed
Storage (RMS, backed by S3) and cache them on local SSD (§4.2.1).  The
reproduction models this as a decoded-block cache in front of the sealed
blocks: the first access to a block is a *remote fetch* (slow, counted),
later accesses are *local hits* (fast, counted) until the block is
evicted (LRU by capacity) or invalidated (vacuum/reseal).

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
  would pollute), the per-query retry budget and the access log of the
  scan in progress.  Nothing is bound to a thread, so a pool thread
  serves any scan and one thread may drive several statements.
* **Phased LRU settlement.**  During a phase, block accesses are
  recorded per slice instead of reordering the LRU, and capacity
  eviction waits for the barrier, where the log is replayed in
  slice-major order — so the cache end-state (and the remote/local
  split of every later query) depends only on *what* the scan read,
  never on how worker threads interleaved.  Serial scans run the same
  phased path.  The log lives on the scan's reader
  (:meth:`QueryStorageContext.begin_scan_phase` / ``end_scan_phase``);
  the scans of one statement run one after the other.  Within a scan a
  block key belongs to exactly one slice, so one phase's reads never
  race on the same key.
* **One storage lock, held per call, not per block.**  A single
  always-on ``threading.Lock`` guards the decoded-block cache, the
  stats, the per-query sinks and the phase logs.
  :meth:`ManagedStorage.read_blocks` — the one read path, called once
  per (slice, column) — takes it for one round that looks every key up,
  counts the hits and extends the slice's log, and, only if something
  missed, for a second round that counts and inserts what was fetched.
  Fetch sleeps, decode and fault retries run *between* the rounds, so
  remote fetches still overlap across workers and queries.  Nothing
  marks a miss as in flight: two threads missing the same block between
  each other's rounds both fetch it and both count a remote fetch — the
  duplicated round trip a real node cache exhibits; workloads that need
  exact per-query counters keep their tables disjoint.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStorageError,
    quantize_model_seconds,
)
from .compression import EncodedBlock, array_checksum, decode_block

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


# A scan phase is its access log, slice id -> block keys in read order
# (see module doc).  It is guarded by the owning storage's lock, not one
# of its own: concurrent phases interleave on the same decoded-block
# cache, so one lock must order them all.
_ScanPhase = Dict[int, List[BlockKey]]


class QueryStorageContext:
    """One statement's reader of a :class:`ManagedStorage`.

    Created by :meth:`ManagedStorage.query_context` and passed wherever
    a read takes its ``rms``: ``stats`` is its private sink,
    ``retry_budget_left`` its fault-retry allowance, and ``phase`` the
    access log of the scan it is running, if any (see the module doc).
    """

    __slots__ = ("storage", "stats", "retry_budget_left", "phase")

    def __init__(self, storage: "ManagedStorage", retry_budget: Optional[int]) -> None:
        self.storage = storage
        self.stats = StorageStats()
        self.retry_budget_left = retry_budget
        self.phase: Optional[_ScanPhase] = None

    def read_blocks(
        self, keys: Sequence[BlockKey], blocks: Sequence[EncodedBlock]
    ) -> List[np.ndarray]:
        """:meth:`ManagedStorage.read_blocks`, accounted to this statement."""
        return self.storage.read_blocks(keys, blocks, self)

    def begin_scan_phase(self) -> None:
        """Log reads per slice, from whichever thread, instead of moving
        the LRU, until the scan's barrier calls :meth:`end_scan_phase`."""
        self.phase = {}

    def end_scan_phase(self) -> Dict[int, int]:
        """Settle the phase's LRU effects; return per-slice access counts.

        Replays the access log in slice-major order — recency updates
        first, then capacity eviction — which is exactly the order an
        inline run of the slice tasks produces, whatever order worker
        threads actually ran in.  The returned ``{slice_id: blocks_accessed}``
        feeds the per-slice tracer spans.
        """
        phase, self.phase = self.phase, None
        logs = [phase[slice_id] for slice_id in sorted(phase)]
        self.storage._settle(chain.from_iterable(logs))
        return {keys[0][1]: len(keys) for keys in logs}


class ManagedStorage:
    """Decoded-block cache with remote-fetch accounting.

    Args:
        cache_capacity: number of decoded blocks kept locally (LRU).
            ``None`` means unbounded (everything fits on local SSD, the
            common case for the scaled-down benchmarks).

    ``fetch_delay_seconds`` (default 0.0 — no sleeps anywhere) is an
    opt-in *wall-clock* cost per remote fetch, modeling the network
    round trip to managed storage.  The parallel-scan and serving
    benchmarks use it to measure latency hiding: sleeps run outside the
    storage lock, so they overlap across workers and across concurrent
    queries the way real S3 round trips would.  It never affects
    counters or model time.
    """

    def __init__(self, cache_capacity: Optional[int] = None) -> None:
        self._cache: "OrderedDict[BlockKey, np.ndarray]" = OrderedDict()
        self.cache_capacity = cache_capacity
        self.stats = StorageStats()
        self.fault_injector: Optional[FaultInjector] = None
        self.retry_policy = RetryPolicy()
        # The reader of callers that pass the storage itself (vacuum,
        # statistics, tools): global stats only, a storage-wide retry
        # budget, never a scan phase.  Statements bring their own.
        self._direct = QueryStorageContext(self, None)
        # Resolved once at attach time so the per-fetch check is a
        # single attribute load ("no faults configured" costs nothing).
        self._faults_armed = False
        self.fetch_delay_seconds = 0.0
        # One always-on lock guards the decoded-block cache, the global
        # stats, per-query sinks, fetch ordinals, and retry budgets.
        # Decode + injected sleeps run outside it (see module doc).
        self._lock = threading.Lock()
        self._fetch_ordinals: Dict[BlockKey, int] = {}

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

    def read_block(self, key: BlockKey, block: EncodedBlock) -> np.ndarray:
        """Read one block: the one-element case of :meth:`read_blocks`."""
        return self.read_blocks((key,), (block,))[0]

    def read_blocks(
        self,
        keys: Sequence[BlockKey],
        blocks: Sequence[EncodedBlock],
        reader: Optional[QueryStorageContext] = None,
    ) -> List[np.ndarray]:
        """Read the decoded values of ``blocks``, counting every access.

        ``keys`` name distinct blocks of one slice.  One lock round looks
        them all up, counts the hits and logs the accesses; misses are
        fetched outside the lock in key order, then counted and inserted
        in a second round.  Counters, phase log and cache end-state are
        those of reading the keys one at a time.  ``reader`` is the
        statement the read belongs to: its sink is counted into, its
        budget pays for retries, its phase logs the access.
        """
        if reader is None:
            reader = self._direct
        phase = reader.phase
        cache = self._cache
        capacity = self.cache_capacity
        if phase is None and capacity is not None and len(keys) > 1:
            if len(cache) + len(keys) > capacity:
                # An unphased read evicts as it inserts: a miss may push
                # out a block a later key would have hit.  Keep that order.
                return [
                    self.read_blocks((key,), (block,), reader)[0]
                    for key, block in zip(keys, blocks)
                ]
        sinks = self._sinks(reader)
        with self._lock:
            found = [cache.get(key) for key in keys]
            missing = [i for i, values in enumerate(found) if values is None]
            hits = len(keys) - len(missing)
            for stats in sinks:
                stats.local_hits += hits
            if phase is not None:
                # LRU movement and eviction wait for the reader's end_scan_phase.
                phase.setdefault(keys[0][1], []).extend(keys)
            elif not missing:
                self._settle_locked(keys)
        if not missing:
            return found
        # Decode (and any fault machinery) runs outside the storage lock
        # so fetches genuinely overlap across workers and queries.
        fetched: List[int] = []
        try:
            for i in missing:
                found[i] = self._fetch(keys[i], blocks[i], reader)
                fetched.append(i)
        finally:
            # A fetch that raised leaves the ones before it counted.
            nbytes = sum(blocks[i].nbytes for i in fetched)
            with self._lock:
                for stats in sinks:
                    stats.remote_fetches += len(fetched)
                    stats.bytes_fetched += nbytes
                for i in fetched:
                    cache[keys[i]] = found[i]
                if phase is None:
                    self._settle_locked(keys)
        return found

    def _settle(self, keys: Iterable[BlockKey]) -> None:
        with self._lock:
            self._settle_locked(keys)

    def _settle_locked(self, keys: Iterable[BlockKey]) -> None:
        """Make ``keys`` most recent, in order; evict.  Caller holds ``_lock``."""
        cache = self._cache
        for key in keys:
            if key in cache:
                cache.move_to_end(key)
        if self.cache_capacity is not None:
            while len(cache) > self.cache_capacity:
                cache.popitem(last=False)

    def _fetch(
        self, key: BlockKey, block: EncodedBlock, reader: QueryStorageContext
    ) -> np.ndarray:
        if self.fetch_delay_seconds > 0.0:
            time.sleep(self.fetch_delay_seconds)
        if not self._faults_armed:
            return decode_block(block)
        return self._fetch_resilient(key, block, reader)

    def _fetch_resilient(
        self, key: BlockKey, block: EncodedBlock, reader: QueryStorageContext
    ) -> np.ndarray:
        """Fetch under fault injection: verify, retry with backoff, give up.

        Every attempt consults the injector; returned payloads are
        checksum-verified, so a corrupted fetch is *never* handed to a
        scan — it is retried like a transient error.  Exhausting
        ``max_attempts`` or the per-query retry budget raises (the last
        rung of the degradation ladder).

        Probability-mode verdicts come from per-attempt keyed streams
        (:meth:`FaultInjector.fetch_stream`): the fault pattern is a
        function of which fetch of which block this is, not of thread
        interleaving.  Model-time addends are quantized so the float
        accumulation is order-independent too.  Schedule-mode injectors
        keep the sequential draw their schedules index.
        """
        injector = self.fault_injector
        policy = self.retry_policy
        keyed = injector.schedule is None
        sinks = self._sinks(reader)
        with self._lock:
            ordinal = self._fetch_ordinals.get(key, 0)
            self._fetch_ordinals[key] = ordinal + 1
        attempt = 0
        while True:
            if keyed:
                stream = injector.fetch_stream(key, ordinal, attempt)
                decision = injector.draw_keyed(stream)
            else:
                stream = None
                decision = injector.draw()
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
                values = decode_block(block)
                if decision.corrupt:
                    values = injector.corrupt_array(values, stream)
                if block.checksum is None or array_checksum(values) == block.checksum:
                    return values
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
            jitter = stream.random() if stream is not None else injector.uniform()
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
        """Drop all cached blocks of one table (rewrite / drop)."""
        with self._lock:
            stale = [k for k in self._cache if k[0] == table_name]
            for key in stale:
                del self._cache[key]
            self.stats.blocks_invalidated += len(stale)

    def clear(self) -> None:
        """Drop the whole local cache (simulates a cold node)."""
        with self._lock:
            self._cache.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)
