"""Managed storage: the block-fetch layer and its cost accounting.

Redshift compute nodes download column blocks from Redshift Managed
Storage (RMS, backed by S3) and cache them on local SSD (§4.2.1).  The
reproduction models which blocks are local, their *residency*, with one
``int64`` stamp per block: 0 for a block not resident, otherwise the
storage clock at its last read.  The first access to a block is a
*remote fetch* (slow, counted), later accesses are *local hits* (fast,
counted) until the block is evicted (LRU by capacity: the smallest
stamps go) or invalidated (vacuum/reseal).  The storage only counts; it
hands no values to anyone.  A column, and a lake file's column, fills
the rows of its decoded array
(:meth:`~repro.storage.column.DecodedBlocks.fill`) before it reads, so
rows never depend on residency, a block decodes once per build, and
capacity bounds residency, not decoded memory (DESIGN.md §11).

A block is named by an integer: ``_ids[(table, slice, column)][b]`` is
block ``b``'s id, the array grown by doubling when a read reaches past
its end.  The name keys the registry, not the column object, because
one column is read through several storages and a lake table numbers
its chunks across files: an id names one ``BlockKey`` for the storage's
life, as the key itself did, and whoever restarts a table's block
indices makes its blocks non-resident first (:meth:`invalidate_table
<ManagedStorage.invalidate_table>`).  That rule also lets the storage
keep each block's size by id from its first fetch, so a re-fetch counts
its bytes without looking at the block.  The ``BlockKey`` tuple is
built only for the fault injector, which draws by it, and for
:meth:`ManagedStorage.resident_keys`.

Under an attached :class:`~repro.faults.FaultInjector` a read's misses
decode by the batch (:func:`~repro.storage.compression.decode_blocks`)
only to be verified, and each runs its attempt loop, in key order: every
attempt is decided by ``FaultInjector.decide``, keyed by the block, its
fetch count and the attempt, so which fetches fault never depends on
how concurrent statements interleaved.  A fetch that gives up leaves
the blocks before it counted and resident, and the columns after its
column unread.  `StorageStats` is the ground truth behind the paper's
"blocks accessed" columns.

Concurrency model (DESIGN.md §12):

* **Every read names its reader.**  A statement reads through its own
  :class:`QueryStorageContext` (:meth:`ManagedStorage.query_context`),
  passed in the ``rms`` slot like any other argument; everything outside
  a statement (vacuum, statistics, tools) passes the storage itself.
  The context carries a private ``StorageStats`` sink mirroring every
  counter its reads touch, and the per-query retry budget.  Nothing is
  bound to a thread.
* **One eviction rule.**  Every read stamps its blocks most recent, in
  the order it names them, and evicts down to capacity once, at its
  end: nothing it fetched or hit leaves before then.  A scan
  (:meth:`QueryStorageContext.begin_scan_phase` / ``end_scan_phase``)
  is one read, however many rounds it makes, so a scan larger than the
  cache keeps the blocks of its last rounds.  Eviction drops the
  ``resident - capacity`` smallest stamps in one partition; stamps are
  unique, so that is exact LRU.  An unbounded cache stamps a block only
  when it fetches it: nothing reads a recency order there.
* **One storage lock, held per round, not per block.**  A single
  ``threading.Lock`` guards the stamps, the id registry, the stats, the
  sinks and the retry budgets.  With no armed injector a read is one
  locked round and, outside a scan, its eviction one more.  Under one,
  each column's read takes it once to count the hits and, if something
  missed, once more to count and make resident what was fetched;
  verification and retries run between the rounds, so remote fetches
  overlap across statements.  Nothing marks a miss as in flight: two
  threads missing the same block between each other's rounds both
  fetch it and both count a remote fetch, as a real node cache would.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStorageError,
    quantize_model_seconds,
)
from .compression import EncodedBlock, array_checksum, decode_blocks

__all__ = [
    "BlockIndex", "BlockKey", "ColumnBlocks", "ManagedStorage", "QueryStorageContext",
    "StorageStats",
]

# (table, slice, column, block index) uniquely names a block.
BlockKey = Tuple[str, int, str, int]
# A column as a read names it: (table, slice, column), a block's key less
# its index, and its blocks by index (only a miss's is looked at).
ColumnBlocks = Tuple[
    Tuple[str, int, str], Union[Sequence[EncodedBlock], Mapping[int, EncodedBlock]]
]
# The blocks a read takes: one index array for every column it names,
# or one array per column.
BlockIndex = Union[np.ndarray, Sequence[np.ndarray]]
# One column's part of a round: the column and the blocks it reads.
_Part = Sequence[Tuple[ColumnBlocks, np.ndarray]]


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

    def read_columns(self, columns: Sequence[ColumnBlocks], index: BlockIndex) -> None:
        """:meth:`ManagedStorage.read_columns`, accounted to this statement."""
        self.storage.read_columns(columns, index, self)

    def begin_scan_phase(self) -> None:
        """Make every read until :meth:`end_scan_phase` one read."""
        self.scanning = True

    def end_scan_phase(self) -> None:
        """The scan's end: evict down to capacity, coldest first."""
        self.scanning = False
        self.storage._evict()


class ManagedStorage:
    """Block residency, one stamp per block, with remote-fetch accounting.

    Args:
        cache_capacity: number of blocks resident locally (LRU).
            ``None`` means unbounded (everything fits on local SSD, the
            common case for the scaled-down benchmarks).  It bounds
            residency, not decoded memory: the values live with the
            reader that decoded them.
    """

    def __init__(self, cache_capacity: Optional[int] = None) -> None:
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
        # Residency (module doc): _ids[name][b] is block b's id,
        # _stamp[id] its stamp, 0 when not resident, _nbytes[id] its
        # size once fetched.  _clock is the next stamp; _resident counts
        # the nonzero stamps.
        self._ids: Dict[Tuple[str, int, str], np.ndarray] = {}
        self._stamp = np.zeros(0, dtype=np.int64)
        self._nbytes = np.zeros(0, dtype=np.int64)
        self._clock = 1
        self._resident = 0
        # One always-on lock guards the residency, the global stats,
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

    def read_columns(
        self,
        columns: Sequence[ColumnBlocks],
        index: BlockIndex,
        reader: Optional[QueryStorageContext] = None,
    ) -> None:
        """Read blocks ``index`` (distinct, ``int64``) of each of
        ``columns`` — one array for all of them, or ``index[i]`` of
        ``columns[i]`` — count every access and make every block
        resident.

        One round (:meth:`_round`) reads them in column-then-index order
        (key order), stamping them most recent in that order; under an
        armed injector each column is a round of its own, so a fetch that
        gives up leaves the columns after it unread.  The read then
        evicts down to capacity, given up or not (the module doc).  No
        value leaves the storage: the reader decodes what it takes.
        ``reader`` is the statement the read belongs to: its sink is
        counted into, its budget pays for retries, and while it is
        scanning, eviction waits for its ``end_scan_phase``.
        """
        reader = reader or self._direct
        if isinstance(index, np.ndarray):
            reads = [(column, index) for column in columns]
        else:
            reads = list(zip(columns, index))
        try:
            for part in [reads] if not self._faults_armed else [[read] for read in reads]:
                self._round(part, reader)
        finally:
            if not reader.scanning:
                self._evict()

    def _round(self, part: _Part, reader: QueryStorageContext) -> None:
        """One locked round gathers the blocks' stamps and counts the
        hits.  With no armed injector it counts the misses too, by their
        kept sizes, makes them resident and stamps every block: no key
        and no block list is built.  Under one (one column) the misses
        decode outside the lock, in one call per codec group, and run
        their attempt loops in key order over those rows, which nothing
        keeps; a second round counts what was fetched, makes it resident
        and stamps every block still resident."""
        sinks = self._sinks(reader)
        with self._lock:
            ids = self._ids_of(part)
            held = self._stamp[ids]
            hits = int(np.count_nonzero(held))
            for stats in sinks:
                stats.local_hits += hits
            missing = (held == 0).nonzero()[0] if hits < len(ids) else None
            if missing is None:
                self._settle_locked(ids, None, 0, 0, reader)
                return
            if not self._faults_armed:
                new = ids[missing]
                nbytes = self._nbytes_locked(new, part, missing)
                self._settle_locked(ids, new, len(new), nbytes, reader)
                return
        (((name, _), index),) = part
        encoded = _missed(part, missing)
        done = 0
        try:
            rows = {
                position: row
                for positions, values in decode_blocks(encoded)
                for position, row in zip(positions, values)
            }
            for position, b in enumerate(index[missing].tolist()):
                self._attempts(name + (b,), encoded[position], rows[position], reader)
                done += 1
        finally:
            # A fetch that raised leaves the ones before it counted and
            # resident; a block evicted between the rounds stays out, and
            # one another reader fetched between them keeps its stamp.
            with self._lock:
                fetched, live = missing[:done], self._stamp[ids] > 0
                new = ids[fetched[~live[fetched]]]
                live[fetched] = True
                nbytes = sum([block.nbytes for block in encoded[:done]])
                self._settle_locked(ids[live], new, done, nbytes, reader)

    def _ids_of(self, part: _Part) -> np.ndarray:
        """The ids of each column's blocks, in key order.  Caller holds
        ``_lock``."""
        try:
            if len(part) == 1:
                ((name, _), index), = part
                return self._ids[name][index]
            return np.concatenate([self._ids[name][index] for (name, _), index in part])
        except (KeyError, IndexError):  # a first read, or one past the end
            for (name, _), index in part:
                # Fresh ids, not resident, for twice the column's old count.
                needed = int(index.max(initial=-1)) + 1
                ids = self._ids.get(name, np.empty(0, dtype=np.int64))
                if name not in self._ids or len(ids) < needed:
                    grow = max(needed, 2 * len(ids)) - len(ids)
                    fresh = np.arange(len(self._stamp), len(self._stamp) + grow)
                    self._ids[name] = np.concatenate((ids, fresh))
                    self._stamp = np.concatenate((self._stamp, np.zeros_like(fresh)))
                    self._nbytes = np.concatenate((self._nbytes, np.full_like(fresh, -1)))
            return self._ids_of(part)

    def _nbytes_locked(self, new: np.ndarray, part: _Part, missing: np.ndarray) -> int:
        """The bytes of the fetched blocks ``new`` (the ids at positions
        ``missing`` of a read).  A block's size is looked up on its
        first fetch and kept by id, -1 until then: a table whose blocks
        are rebuilt is invalidated first, which forgets its sizes.
        Caller holds ``_lock``."""
        sizes = self._nbytes[new]
        unknown = (sizes < 0).nonzero()[0]
        if len(unknown):
            looked_up = _missed(part, missing[unknown])
            sizes[unknown] = [block.nbytes for block in looked_up]
            self._nbytes[new[unknown]] = sizes[unknown]
        return int(sizes.sum())

    def _settle_locked(
        self,
        live: np.ndarray,
        new: Optional[np.ndarray],
        fetches: int,
        nbytes: int,
        reader: QueryStorageContext,
    ) -> None:
        """Count ``fetches`` remote fetches of ``nbytes`` bytes and make
        the blocks ``new`` resident (``None``: the read fetched nothing),
        then stamp the resident blocks ``live`` most recent, in order.
        An unbounded cache stamps only ``new``.  Caller holds
        ``_lock``."""
        if new is not None:
            for stats in self._sinks(reader):
                stats.remote_fetches += fetches
                stats.bytes_fetched += nbytes
            self._resident += len(new)
        stamped = live if self.cache_capacity is not None else new
        if stamped is not None:
            self._stamp[stamped] = np.arange(self._clock, self._clock + len(stamped))
            self._clock += len(stamped)

    def _evict(self) -> None:
        """The end of a read or a scan: drop the coldest blocks down to
        capacity, the smallest stamps, in one partition."""
        capacity = self.cache_capacity
        with self._lock:
            excess = 0 if capacity is None else self._resident - capacity
            if excess > 0:
                live = (self._stamp > 0).nonzero()[0]
                self._stamp[live[self._stamp[live].argpartition(excess - 1)[:excess]]] = 0
                self._resident -= excess

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
                self._count(sinks, "backoff_model_seconds", latency)
            if decision.fail:
                self._count(sinks, "transient_errors")
            else:
                read = values
                if decision.corrupt:
                    read = injector.corrupt_array(values, stream)
                if block.checksum is None or array_checksum(read) == block.checksum:
                    return
                self._count(sinks, "corrupt_blocks")
            attempt += 1
            if attempt >= policy.max_attempts:
                self._count(sinks, "retry_giveups")
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

    def _count(
        self, sinks: Tuple[StorageStats, ...], name: str, amount: float = 1
    ) -> None:
        """Add ``amount`` to counter ``name`` of each of ``sinks``."""
        with self._lock:
            for stats in sinks:
                setattr(stats, name, getattr(stats, name) + amount)

    def invalidate_table(self, table_name: str) -> None:
        """Make no block of one table resident (rewrite / drop)."""
        with self._lock:
            for name, ids in self._ids.items():
                if name[0] == table_name:
                    self._nbytes[ids] = -1
                    stale = ids[self._stamp[ids] > 0]
                    self._stamp[stale] = 0
                    self._resident -= len(stale)
                    self.stats.blocks_invalidated += len(stale)

    def clear(self) -> None:
        """Make no block resident (simulates a cold node)."""
        with self._lock:
            self._stamp[:] = 0
            self._resident = 0

    @property
    def cached_blocks(self) -> int:
        return self._resident

    def resident_keys(self) -> List[BlockKey]:
        """The resident blocks' keys, coldest first: the LRU order when
        bounded, the fetch order when not.  A view for tests and
        debugging; no read builds it."""
        with self._lock:
            stamps = {
                name + (b,): stamp
                for name, ids in self._ids.items()
                for b, stamp in enumerate(self._stamp[ids].tolist())
                if stamp
            }
        return sorted(stamps, key=stamps.__getitem__)


def _missed(part: _Part, missing: np.ndarray) -> List[EncodedBlock]:
    """The blocks at positions ``missing`` of a round, in key order."""
    if len(part) == 1:
        ((_, blocks), index), = part
        return [blocks[b] for b in index[missing].tolist()]
    starts = np.cumsum([0] + [len(index) for _, index in part])
    which = np.searchsorted(starts, missing, side="right") - 1
    missed = []
    for c, at in zip(which.tolist(), (missing - starts[which]).tolist()):
        (_, blocks), index = part[c]
        missed.append(blocks[int(index[at])])
    return missed
