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

* **Scan phases are thread-bound.**  The parallel scan executor
  brackets the slice fan-out with :meth:`ManagedStorage.begin_scan_phase`
  / :meth:`end_scan_phase`; the phase is bound to the *coordinating
  thread*, and its worker threads adopt it for the duration of one
  slice task (:meth:`adopt_scan_context` / :meth:`release_scan_context`).
  Concurrent queries from a serving layer each run their own phase on
  their own thread — phases no longer exclude each other globally, only
  per thread (a phase still must not nest on one thread).
* **Phased LRU settlement.**  During a phase, block accesses are
  recorded per slice instead of immediately reordering the LRU, and
  capacity eviction is deferred to the barrier, where the log is
  replayed in slice-major order — so the cache end-state (and therefore
  the remote/local fetch split of every later query) depends only on
  *what* the scan read, never on how worker threads interleaved.
  Serial scans run the same phased path, which keeps the two modes
  bit-identical by construction.  Within a scan a block key belongs to
  exactly one slice, so one phase's reads never race on the same key.
* **One storage lock.**  A single always-on ``threading.Lock`` guards
  the decoded-block cache, the stats counters, and the per-query stat
  sinks.  Decode work and fetch-latency sleeps run *outside* the lock,
  so remote fetches still overlap across workers and across queries.
  Two threads missing the same block concurrently may both fetch it
  (both count a remote fetch) — the same duplicated round trip a real
  node cache exhibits; workloads that need exact per-query counters
  keep their tables disjoint.
* **Per-query accounting.**  :meth:`begin_query` binds a
  :class:`QueryStorageContext` to the calling thread: a private
  ``StorageStats`` sink mirroring every counter the thread (and any
  worker that adopted its context) touches, plus the per-query retry
  budget.  The engine reads a query's storage counters from its
  context instead of diffing the global stats — which concurrent
  queries would pollute.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


class QueryStorageContext:
    """Per-query storage accounting, bound to the executing thread.

    Created by :meth:`ManagedStorage.begin_query`.  ``stats`` mirrors
    every storage counter the query's threads touch (its private sink —
    unpolluted by concurrent queries sharing the storage), and
    ``retry_budget_left`` is the query's fault-retry allowance.
    """

    __slots__ = ("stats", "retry_budget_left", "_prev")

    def __init__(self, retry_budget: Optional[int]) -> None:
        self.stats = StorageStats()
        self.retry_budget_left = retry_budget
        self._prev: Optional["QueryStorageContext"] = None


class _ScanPhase:
    """Deferred-eviction bookkeeping for one table scan (see module doc).

    The access log is guarded by the owning storage's lock, not a
    per-phase lock: concurrent phases from different queries interleave
    on the same decoded-block cache, so one lock must order them all.
    """

    __slots__ = ("accesses",)

    def __init__(self) -> None:
        self.accesses: Dict[int, List[BlockKey]] = {}


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
        # Fallback retry budget for callers that never bind a query
        # context (direct ManagedStorage use in tests/tools).
        self._retry_budget_left: Optional[int] = None
        # Resolved once at attach time so the per-fetch check is a
        # single attribute load ("no faults configured" costs nothing).
        self._faults_armed = False
        self.fetch_delay_seconds = 0.0
        # One always-on lock guards the decoded-block cache, the global
        # stats, per-query sinks, fetch ordinals, and retry budgets.
        # Decode + injected sleeps run outside it (see module doc).
        self._lock = threading.Lock()
        # Thread-bound execution state: .phase (the active _ScanPhase)
        # and .query (the active QueryStorageContext) of each thread.
        self._local = threading.local()
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
        self.reset_retry_budget()

    def reset_retry_budget(self) -> None:
        """Reset the fallback retry budget (no-op when unlimited).

        Queries executed through the engine get a fresh budget on their
        :class:`QueryStorageContext` instead; this fallback covers
        direct storage use with no bound query.
        """
        self._retry_budget_left = self.retry_policy.retry_budget

    # -- per-query accounting --------------------------------------------------

    def begin_query(self) -> QueryStorageContext:
        """Bind a fresh per-query storage context to this thread.

        Every storage counter the thread (and any worker adopting the
        context via :meth:`adopt_scan_context`) touches until
        :meth:`end_query` is mirrored into the context's private
        ``stats``.  Contexts save and restore the previous binding, so
        a nested bind (re-entrant engine use) is safe.
        """
        context = QueryStorageContext(self.retry_policy.retry_budget)
        context._prev = getattr(self._local, "query", None)
        self._local.query = context
        return context

    def end_query(self, context: QueryStorageContext) -> None:
        """Unbind ``context``, restoring the thread's previous binding."""
        self._local.query = context._prev

    def current_query_context(self) -> Optional[QueryStorageContext]:
        """The query context bound to the calling thread, if any."""
        return getattr(self._local, "query", None)

    # -- scan phases (deferred LRU settlement) ---------------------------------

    def begin_scan_phase(self) -> _ScanPhase:
        """Start access logging for one table scan (see module doc).

        The phase is bound to the calling (coordinator) thread; worker
        threads adopt it per task via :meth:`adopt_scan_context`.
        Phases do not nest on one thread — a scan owns its thread's
        storage view until its barrier calls :meth:`end_scan_phase`.
        """
        if getattr(self._local, "phase", None) is not None:
            raise RuntimeError("a scan phase is already active")
        phase = _ScanPhase()
        self._local.phase = phase
        return phase

    def end_scan_phase(self) -> Dict[int, int]:
        """Settle the phase's LRU effects; return per-slice access counts.

        Replays the access log in slice-major order — recency updates
        first, then capacity eviction — which is exactly the order an
        inline run of the slice tasks produces, whatever order worker
        threads actually ran in.  The returned ``{slice_id: blocks_accessed}``
        feeds the per-slice tracer spans.
        """
        phase = getattr(self._local, "phase", None)
        if phase is None:
            raise RuntimeError("no scan phase is active")
        self._local.phase = None
        counts: Dict[int, int] = {}
        with self._lock:
            for slice_id in sorted(phase.accesses):
                keys = phase.accesses[slice_id]
                counts[slice_id] = len(keys)
                for key in keys:
                    if key in self._cache:
                        self._cache.move_to_end(key)
            if self.cache_capacity is not None:
                while len(self._cache) > self.cache_capacity:
                    self._cache.popitem(last=False)
        return counts

    def adopt_scan_context(
        self,
        phase: Optional[_ScanPhase],
        query: Optional[QueryStorageContext],
    ) -> Tuple[Optional[_ScanPhase], Optional[QueryStorageContext]]:
        """Bind a coordinator's (phase, query context) onto this thread.

        Called at the top of each worker task so the worker's block
        reads land in the dispatching scan's access log and query sink.
        Returns the thread's previous bindings; pass them back to
        :meth:`release_scan_context` when the task ends — pool threads
        are shared across scans (and the inline-execution path runs the
        task on the coordinator thread itself), so save/restore is
        mandatory, not optional.
        """
        local = self._local
        previous = (
            getattr(local, "phase", None),
            getattr(local, "query", None),
        )
        local.phase = phase
        local.query = query
        return previous

    def release_scan_context(
        self,
        previous: Tuple[Optional[_ScanPhase], Optional[QueryStorageContext]],
    ) -> None:
        """Restore the bindings :meth:`adopt_scan_context` displaced."""
        self._local.phase, self._local.query = previous

    # -- the read path ---------------------------------------------------------

    def _bump(self, name: str, amount) -> None:
        """Count into the global stats and the bound query's sink.

        Caller holds ``_lock``.
        """
        stats = self.stats
        setattr(stats, name, getattr(stats, name) + amount)
        query = getattr(self._local, "query", None)
        if query is not None:
            sink = query.stats
            setattr(sink, name, getattr(sink, name) + amount)

    def read_block(self, key: BlockKey, block: EncodedBlock) -> np.ndarray:
        """Read a block's decoded values, counting the access."""
        phase = getattr(self._local, "phase", None)
        if phase is not None:
            return self._read_block_phased(phase, key, block)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._bump("local_hits", 1)
                return cached
        values = self._fetch(key, block)
        with self._lock:
            self._bump("remote_fetches", 1)
            self._bump("bytes_fetched", block.nbytes)
            self._cache[key] = values
            if (
                self.cache_capacity is not None
                and len(self._cache) > self.cache_capacity
            ):
                self._cache.popitem(last=False)
        return values

    def _read_block_phased(
        self, phase: _ScanPhase, key: BlockKey, block: EncodedBlock
    ) -> np.ndarray:
        """Phase-mode read: log the access, defer LRU movement/eviction."""
        with self._lock:
            phase.accesses.setdefault(key[1], []).append(key)
            cached = self._cache.get(key)
            if cached is not None:
                self._bump("local_hits", 1)
                return cached
        # Decode (and any fault machinery) runs outside the storage lock
        # so fetches genuinely overlap across workers and queries.
        values = self._fetch(key, block)
        with self._lock:
            self._bump("remote_fetches", 1)
            self._bump("bytes_fetched", block.nbytes)
            self._cache[key] = values
        return values

    def _fetch(self, key: BlockKey, block: EncodedBlock) -> np.ndarray:
        if self.fetch_delay_seconds > 0.0:
            time.sleep(self.fetch_delay_seconds)
        if not self._faults_armed:
            return decode_block(block)
        return self._fetch_resilient(key, block)

    def _spend_retry_locked(self) -> bool:
        """Consume one retry from the bound budget; True when exhausted.

        Caller holds ``_lock``.  The budget lives on the thread's query
        context when one is bound, else on the storage-wide fallback.
        """
        query = getattr(self._local, "query", None)
        if query is not None:
            if query.retry_budget_left is None:
                return False
            if query.retry_budget_left <= 0:
                return True
            query.retry_budget_left -= 1
            return False
        if self._retry_budget_left is None:
            return False
        if self._retry_budget_left <= 0:
            return True
        self._retry_budget_left -= 1
        return False

    def _fetch_resilient(self, key: BlockKey, block: EncodedBlock) -> np.ndarray:
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
                with self._lock:
                    self._bump(
                        "backoff_model_seconds",
                        quantize_model_seconds(decision.latency_seconds),
                    )
            if decision.fail:
                with self._lock:
                    self._bump("transient_errors", 1)
            else:
                values = decode_block(block)
                if decision.corrupt:
                    values = injector.corrupt_array(values, stream)
                if block.checksum is None or array_checksum(values) == block.checksum:
                    return values
                with self._lock:
                    self._bump("corrupt_blocks", 1)
            attempt += 1
            if attempt >= policy.max_attempts:
                with self._lock:
                    self._bump("retry_giveups", 1)
                raise TransientStorageError(
                    f"block {key} unreadable after {attempt} attempts"
                )
            jitter = stream.random() if stream is not None else injector.uniform()
            with self._lock:
                if self._spend_retry_locked():
                    self._bump("retry_giveups", 1)
                    raise RetryBudgetExceeded(
                        f"query retry budget exhausted fetching block {key}"
                    )
                self._bump("retries", 1)
                self._bump(
                    "backoff_model_seconds",
                    quantize_model_seconds(
                        policy.backoff_seconds(attempt - 1, jitter)
                    ),
                )

    def invalidate_table(self, table_name: str) -> None:
        """Drop all cached blocks of one table (vacuum / reseal)."""
        with self._lock:
            stale = [k for k in self._cache if k[0] == table_name]
            for key in stale:
                del self._cache[key]
            self._bump("blocks_invalidated", len(stale))

    def invalidate_block(self, key: BlockKey) -> None:
        """Drop one cached block (a tail block being resealed)."""
        with self._lock:
            if self._cache.pop(key, None) is not None:
                self._bump("blocks_invalidated", 1)

    def clear(self) -> None:
        """Drop the whole local cache (simulates a cold node)."""
        with self._lock:
            self._cache.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)
