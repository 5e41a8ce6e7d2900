"""The predicate cache: an inverted index from scan keys to row ranges.

This is the paper's contribution (§4).  The cache is a per-node hash
table mapping :class:`~repro.core.keys.ScanKey` to
:class:`~repro.core.entry.CacheEntry`.  It is filled as a side product
of scanning (the engine calls :meth:`record_slice_scan` with the row
ranges the vectorized scan produced anyway), consulted before scans
(:meth:`lookup` / :meth:`select_entry`), and invalidated by:

* ``layout`` changes of the scanned table (vacuum, reorganization) —
  row numbering changed, all entries on that table are dropped;
* ``data`` changes of any *build-side* table of a join-index entry —
  the semi-join filter's contents changed (§4.4).

Plain entries survive inserts/deletes/updates on their own table —
the design's headline property (§4.3).

Locking discipline (DESIGN.md §12): one re-entrant lock serializes
every mutation — installs, LRU reordering, eviction, invalidation,
generation bumps, stats — so concurrent serving threads interleave at
whole-operation granularity and generation stamps stay consistent with
the entry table.  A slice state is an immutable value
(:mod:`repro.core.entry`): the one store of a new state into its
``slice_states`` slot, under the lock, is the whole publication, so a
scan reads a slot without the lock and works on a complete state.
Mutation outside a ``with self._lock`` block (or a helper documented as
"caller holds ``_lock``") is rejected by checker rule RP007.  Entries
enter the table through one helper (:meth:`_insert`) and leave it
through one (:meth:`_remove`), whether installed, restored, evicted or
invalidated.

Write-through (DESIGN.md §9): with a store attached, a mutator only
*captures* what it changed while it holds the lock — the entry's
metadata and a reference to the immutable slice state — onto one FIFO,
and appends them to the store after releasing the lock.  Nothing that
encodes, checksums or touches a file runs under ``_lock``; a lookup or
a repeat that changed nothing captures nothing; with no store attached
the FIFO is never touched.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .. import invariants as _inv
from ..obs import lockwitness
from .config import PredicateCacheConfig
from .entry import BitmapSliceState, CacheEntry, RangeSliceState, SliceState
from .keys import ScanKey
from .policy import AdmissionPolicy, AlwaysAdmit
from .rowrange import RangeList
from .stats import CacheStats, ReuseStats

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..persist.store import CacheStore
    from ..storage.table import Table

__all__ = ["PredicateCache", "cache_series"]


class PredicateCache:
    """Per-node predicate cache with LRU eviction.

    The cache is storage-agnostic: it never touches table data, only row
    ranges and version counters handed in by the scan path.  That is what
    lets the same class index Redshift-style native tables and external
    formats (§4.5) alike.

    Thread-safe: every public operation runs under ``_lock`` (see the
    module docstring for the discipline).  ``_lock`` and an attached
    store's I/O lock never nest: under ``_lock`` the cache only asks the
    store for plain records (``capture_state``, which takes no lock and
    touches no file); it appends them from :meth:`_drain_journal`, after
    releasing its own lock, and the store calls into a cache (hydration
    installs) holding none of its.
    """

    def __init__(
        self,
        config: Optional[PredicateCacheConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.config = config if config is not None else PredicateCacheConfig()
        self.policy = policy if policy is not None else AlwaysAdmit()
        self._entries: "OrderedDict[ScanKey, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        self.reuse_stats = ReuseStats()
        self._watched: Dict[str, object] = {}
        # Per-table invalidation generation: bumped whenever a table's
        # entries are dropped wholesale (vacuum/layout change).  Entries
        # are stamped at creation; installs with a stale stamp are
        # refused (see record_slice_scan).
        self._generations: Dict[str, int] = {}
        # Last observed layout_version (vacuum epoch) per watched table.
        # Persisted with every entry so recovery can tell whether row
        # numbering survived the restart (DESIGN.md §9).
        self._table_layouts: Dict[str, int] = {}
        # Optional durable store; when attached, install/extend/drop
        # events are written through (see repro/persist/): captured
        # under ``_lock`` onto ``_pending`` in mutation order — ``(True,
        # log_state's arguments)`` or ``(False, log_drop's)`` — and
        # appended to the store by :meth:`_drain_journal` once the lock
        # is released.
        self._store: Optional["CacheStore"] = None
        self._pending: Deque[Tuple[bool, tuple]] = deque()
        # Re-entrant: invariant validation re-enters public read
        # methods (entries, generation_of, total_nbytes) under the lock.
        self._lock = lockwitness.named_rlock("PredicateCache._lock")

    # -- the router protocol ------------------------------------------------------
    # Everything that asks "which cache serves this slice" or "which
    # caches are there" asks through these two methods; a single cache
    # is the one-node case of :class:`~repro.cluster.ClusterCaches`.

    def cache_for_slice(self, slice_id: int) -> "PredicateCache":
        """The cache owning ``slice_id``: this one, for every slice."""
        return self

    def nodes(self) -> List["PredicateCache"]:
        """The live per-node caches: just this one."""
        return [self]

    # -- wiring ------------------------------------------------------------------

    def ping(self) -> bool:
        """Liveness probe for the health monitor (DESIGN.md §13).

        A live cache answers by briefly taking and releasing its lock —
        proving the node is both reachable and not wedged.  A dead
        node's tombstone raises
        :class:`~repro.faults.NodeDownError` instead.
        """
        with self._lock:
            return True

    def watch_table(self, table: "Table") -> None:
        """Subscribe to a table's change events (idempotent)."""
        with self._lock:
            if table.name in self._watched:
                return
            self._watched[table.name] = table
            self._table_layouts[table.name] = table.layout_version
        table.on_change(self._on_table_event)

    def watched_tables(self) -> List["Table"]:
        """The table objects this cache subscribed to (resize transfer)."""
        with self._lock:
            return list(self._watched.values())

    def table_layout_of(self, table_name: str) -> int:
        """Last observed layout_version (vacuum epoch) of a table."""
        with self._lock:
            return self._table_layouts.get(table_name, 0)

    def _on_table_event(self, table: "Table", event: str) -> None:
        if event == "layout":
            with self._lock:
                self._table_layouts[table.name] = table.layout_version
            self.invalidate_table(table.name)
        elif event == "data":
            self.invalidate_build_side(table.name)

    # -- persistence ---------------------------------------------------------------

    def attach_store(self, store: "CacheStore") -> None:
        """Enable write-through to a durable cache store.

        Every install/extend journals the new slice state; every
        invalidation/eviction journals the drop — the store stays a
        faithful mirror that a replacement node can hydrate from.  A
        repeat that neither created a state nor advanced a watermark
        changed nothing and journals nothing.
        """
        self.detach_store()
        with self._lock:
            self._store = store

    def detach_store(self) -> None:
        """Stop writing through.  On return nothing of this cache's is
        in flight to the store: events still queued are discarded, and
        a drain that was mid-append has finished."""
        with self._lock:
            store, self._store = self._store, None
        if store is not None:
            with store.io_lock:
                self._pending.clear()

    def close(self) -> None:
        """Retire this cache — its node was replaced or restarted: stop
        writing through and unsubscribe from every watched table, so a
        table's change events reach only the caches still serving.
        ``_watched`` is kept: :meth:`watch_table` from a scan still in
        flight on the retired cache stays a no-op instead of
        re-subscribing it.  Idempotent."""
        self.detach_store()
        for table in self.watched_tables():
            table.off_change(self._on_table_event)

    def _capture_state(
        self, entry: CacheEntry, slice_id: int, state: SliceState
    ) -> None:
        """Queue an install/extend for the journal: the entry's metadata
        as of now and the slice's (immutable) state.  Caller holds
        ``_lock``."""
        if self._store is not None:
            layout = self._table_layouts.get(entry.key.table, 0)
            self._pending.append(
                (True, self._store.capture_state(entry, slice_id, state, layout))
            )

    def _drain_journal(self) -> None:
        """Append every queued event to the store, oldest first.

        Every public mutator that queued something calls this after its
        ``with self._lock`` block, so encoding, checksumming, the write
        and any compaction run with no cache lock held — and a call that
        queued nothing (a hit, a miss, a repeat) never waits for another
        thread's append.  An event leaves the queue only
        once the store is done with it, and both happen under the
        store's I/O lock: records reach the journal in mutation order
        whichever thread drains them, and an empty queue means
        everything this thread queued is appended (or was refused by a
        wedged store, or discarded by :meth:`detach_store`).
        """
        if not self._pending:
            return
        attached_store = self._store
        if attached_store is None:
            return
        with attached_store.io_lock:
            while self._pending and self._store is attached_store:
                is_state, args = self._pending[0]
                try:
                    if is_state:
                        attached_store.log_state(*args)
                    else:
                        attached_store.log_drop(*args)
                finally:
                    self._pending.popleft()

    @property
    def store(self) -> Optional["CacheStore"]:
        """The attached write-through store, if any."""
        with self._lock:
            return self._store

    def install_restored(
        self,
        key: ScanKey,
        num_slices: int,
        build_versions: Mapping[str, int],
        slice_states: Mapping[int, SliceState],
        stats: Tuple[int, int, int] = (0, 0, 0),
        table_layout: Optional[int] = None,
        provenance: str = "scan",
        source_digests: Tuple[int, ...] = (),
    ) -> CacheEntry:
        """Install a warm-start entry recovered from a store.

        The entry is stamped with *this* cache's current generation for
        its table (revalidation already proved the row numbering is
        live), so subsequent scans may extend it like any other entry.
        Derived entries keep their recorded provenance across restarts.
        Does not write through — hydration must not re-journal what the
        store just replayed.  The states are installed as handed in, so
        each is checked first, always: one that breaks its representation
        invariants (a damaged file that still passed its CRC) raises
        before the cache is touched.
        """
        for state in slice_states.values():
            _inv.check_slice_state(state)
        with self._lock:
            entry = CacheEntry(
                key, num_slices, build_versions, provenance, source_digests
            )
            for slice_id, state in slice_states.items():
                entry.slice_states[slice_id] = state
            entry.hits, entry.rows_qualifying, entry.rows_considered = (
                int(stats[0]), int(stats[1]), int(stats[2]),
            )
            if table_layout is not None:
                self._table_layouts.setdefault(key.table, int(table_layout))
            self._insert(entry)
        self._drain_journal()
        return entry

    # -- lookups -------------------------------------------------------------------

    def lookup(
        self,
        key: ScanKey,
        current_versions: Optional[Mapping[str, int]] = None,
    ) -> Optional[CacheEntry]:
        """Find a live entry for ``key``; counts a lookup.  The one-key
        case of :meth:`select_entry`."""
        return self.select_entry((key,), current_versions)

    def select_entry(
        self,
        keys: Iterable[ScanKey],
        current_versions: Optional[Mapping[str, int]] = None,
    ) -> Optional[CacheEntry]:
        """Pick the most selective live entry among candidate keys.

        The scan path offers both the join-extended key and the plain
        base key; per §4.4 we "choose the most selective matching
        entry".  Counts a single lookup (hit if any key matched).
        ``current_versions`` maps build-side table names to their
        current ``data_version``; entries whose recorded versions
        mismatch are dropped as stale (defence in depth on top of
        event-driven invalidation).
        """
        return self._select(keys, current_versions, exact=True)

    def lookup_part(
        self,
        key: ScanKey,
        current_versions: Optional[Mapping[str, int]] = None,
    ) -> Optional[CacheEntry]:
        """Probe for one conjunct of a decomposed predicate (DESIGN.md §14).

        Identical liveness/staleness semantics to :meth:`lookup`, but
        accounted in :attr:`reuse_stats` rather than :attr:`stats` so the
        paper's Fig. 13 exact-match ``hit_rate`` is not diluted by the
        reuse lattice's extra probes.  Still touches the LRU and the
        entry's hit count — a conjunct serving a composition is in use.
        """
        return self._select((key,), current_versions, exact=False)

    def _select(
        self,
        keys: Iterable[ScanKey],
        current_versions: Optional[Mapping[str, int]],
        exact: bool,
    ) -> Optional[CacheEntry]:
        """The locked find-and-drain body of every probe: the most
        selective live entry among ``keys``, counted in :attr:`stats`
        (``exact``) or as a conjunct probe in :attr:`reuse_stats`.  A
        stale drop is the one thing a probe journals; only then is the
        journal drained, after the lock is released."""
        dropped = False
        with self._lock:
            best: Optional[CacheEntry] = None
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    continue
                if entry.build_versions and current_versions is not None and any(
                    current_versions.get(table_name, version) != version
                    for table_name, version in entry.build_versions.items()
                ):
                    self._drop(key)
                    self.stats.stale_rejections += 1
                    dropped = True
                    continue
                self._entries.move_to_end(key)
                if best is None or entry.selectivity < best.selectivity:
                    best = entry
            if exact:
                self.stats.lookups += 1
                if best is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
            else:
                self.reuse_stats.conjunct_lookups += 1
                if best is not None:
                    self.reuse_stats.conjunct_hits += 1
            if best is not None:
                best.hits += 1
        if dropped:
            self._drain_journal()
        return best

    def record_reuse_serve(self, basis: str) -> None:
        """Count one scan answered from derived entries ("composed"/"subsumed")."""
        with self._lock:
            if basis == "composed":
                self.reuse_stats.composed_serves += 1
            elif basis == "subsumed":
                self.reuse_stats.subsumed_serves += 1
            else:
                raise ValueError(f"unknown reuse serve basis {basis!r}")

    def record_reuse_rows(self, rechecked: int, skipped: int) -> None:
        """Fold one reuse-served scan's re-checked vs. skipped row counts."""
        with self._lock:
            self.reuse_stats.recheck_rows += int(rechecked)
            self.reuse_stats.skipped_rows += int(skipped)

    def __contains__(self, key: ScanKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- building -----------------------------------------------------------------

    def get_or_create(
        self,
        key: ScanKey,
        num_slices: int,
        build_versions: Optional[Mapping[str, int]] = None,
        provenance: str = "scan",
        source_digests: Tuple[int, ...] = (),
    ) -> CacheEntry:
        """The entry for ``key``, creating an empty one if needed.

        ``provenance``/``source_digests`` only stamp a *newly created*
        entry: an existing entry keeps its original provenance (a direct
        scan of ``x < 25`` and the decomposer's ``x < 25`` conjunct share
        one entry, first writer names it).  Derived entries are
        first-class for accounting and eviction — their payload bytes
        count against ``max_bytes`` exactly once, on the entry itself: a
        scan served by composition or subsumption reads its source
        entries' states in place and stores nothing of its own.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
            if key.is_join_key and not self.config.cache_join_keys:
                raise ValueError("join-index keys are disabled by configuration")
            entry = CacheEntry(
                key, num_slices, build_versions or {}, provenance, source_digests
            )
            self._insert(entry)
            self.stats.inserts += 1
            if provenance == "conjunct":
                self.reuse_stats.conjunct_installs += 1
        self._drain_journal()
        return entry

    def _insert(self, entry: CacheEntry) -> None:
        """The one store into ``_entries``: stamp ``entry`` with its
        table's current invalidation generation, store it under its key,
        and enforce the budgets.  Caller holds ``_lock``."""
        entry.generation = self._generations.get(entry.key.table, 0)
        self._entries[entry.key] = entry
        self._evict_if_needed()

    def generation_of(self, table_name: str) -> int:
        """Current invalidation generation of a table's entries."""
        with self._lock:
            return self._generations.get(table_name, 0)

    def record_slice_scan(
        self,
        entry: CacheEntry,
        slice_id: int,
        qualifying: RangeList,
        scanned_upto: int,
    ) -> None:
        """Record one slice's scan output into the entry.

        First call per slice creates the state; later calls replace it
        by one extended over the uncached tail (appends since the entry
        was built, §4.3.1).

        Stale installs are refused: if the entry was invalidated or
        evicted after the scan picked it up (a vacuum between lookup and
        install), or its generation stamp no longer matches the table's,
        the ranges describe row numbering that no longer exists and must
        not be (re)installed — the scan's results are still correct, only
        the cache write is dropped.  The whole check-then-install runs
        under ``_lock``, so a concurrent invalidation lands either
        before (install refused) or after (entry dropped) — never
        between the stamp check and the extension.
        """
        with self._lock:
            if (
                self._entries.get(entry.key) is not entry
                or entry.generation != self._generations.get(entry.key.table, 0)
            ):
                self.stats.stale_installs += 1
                return
            state = entry.slice_states[slice_id]
            if state is None:
                new = self._new_state(qualifying, scanned_upto)
            else:
                new = state.extended(qualifying, scanned_upto)
            if _inv.ACTIVE:
                _inv.check_slice_state(new, slice_rows=scanned_upto)
            changed = new is not state
            if changed:
                # A repeat that found nothing appended changed nothing:
                # no journal record, no budget to re-enforce.  Otherwise
                # this one store publishes the new state, which grew the
                # entry's payload; re-enforce the byte budget here, not
                # just on insert (after the capture, so a resulting
                # eviction's drop event lands after the state event).
                entry.slice_states[slice_id] = new
                if state is not None:
                    self.stats.extensions += 1
                self._capture_state(entry, slice_id, new)
                self._evict_if_needed()
        if changed:
            self._drain_journal()

    def record_entry_stats(
        self, entry: CacheEntry, rows_qualifying: int, rows_considered: int
    ) -> None:
        """Fold one slice scan's row counts into the entry's selectivity.

        Serialized on the cache lock: concurrent scan coordinators
        updating the same entry must not lose increments (the entry's
        unsynchronized ``record_scan_stats`` is for single-owner use).
        """
        with self._lock:
            entry.record_scan_stats(rows_qualifying, rows_considered)

    def _new_state(self, qualifying: RangeList, scanned_upto: int) -> SliceState:
        """Caller holds ``_lock``."""
        if self.config.variant == "range":
            return RangeSliceState(
                qualifying, scanned_upto, self.config.max_ranges_per_slice
            )
        return BitmapSliceState(
            qualifying, scanned_upto, self.config.bitmap_block_rows
        )

    # -- invalidation ---------------------------------------------------------------

    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry scanning ``table_name`` (layout changed)."""
        return self._invalidate(
            lambda live: [key for key in live if key.table == table_name],
            lambda _: (table_name,),
        )

    def invalidate_build_side(self, table_name: str) -> int:
        """Drop join-index entries whose build side includes the table."""
        return self._invalidate(
            lambda live: [
                key for key in live if table_name in key.referenced_tables()
            ]
        )

    def clear(self) -> int:
        """Drop every entry, counting invalidations.

        The admission policy forgets each key — a cleared key starts
        from scratch and can earn re-admission, instead of being
        silently blacklisted by stale observation state.
        """
        return self._invalidate(list, lambda keys: {key.table for key in keys})

    def drop_stale(self, key: ScanKey) -> bool:
        """Drop one entry detected inconsistent at scan time.

        The degraded-scan path calls this when a cached state disagrees
        with the slice it describes (e.g. its watermark exceeds the
        slice's row count after a missed invalidation).  An invalidation
        like any other: the admission policy forgets the key and the
        drop shows up in metrics.
        """
        return self._invalidate(lambda live: [key] if key in live else []) > 0

    def _invalidate(
        self,
        select: Callable[[Mapping[ScanKey, CacheEntry]], List[ScanKey]],
        bump: Callable[[List[ScanKey]], Iterable[str]] = lambda keys: (),
    ) -> int:
        """The one invalidation body: drop the live keys ``select``
        picks, after advancing the generation of each table ``bump``
        names for them (a layout change: installs stamped before it are
        refused).  Each drop counts as an invalidation and goes through
        :meth:`_drop`; returns the number dropped."""
        with self._lock:
            keys = select(self._entries)
            for table_name in bump(keys):
                self._generations[table_name] = (
                    self._generations.get(table_name, 0) + 1
                )
            for key in keys:
                self._drop(key)
            self.stats.invalidations += len(keys)
        self._drain_journal()
        return len(keys)

    def admits(self, key: ScanKey) -> bool:
        """True if an entry exists or the admission policy allows one."""
        with self._lock:
            if key in self._entries:
                return True
        return self.policy.should_admit(key)

    def _drop(self, key: ScanKey) -> None:
        """Invalidate one live entry: remove it, and make the admission
        policy forget the key.  Caller holds ``_lock``."""
        self._remove(key)
        self.policy.forget(key)

    def _remove(self, key: ScanKey) -> CacheEntry:
        """The one removal from ``_entries``: pop the live entry and
        queue its drop for the journal.  Eviction calls this directly,
        so the admission policy keeps its observations of an evicted
        key; invalidation goes through :meth:`_drop`.  Caller holds
        ``_lock``."""
        entry = self._entries.pop(key)
        if self._store is not None:
            # Only this cache's installed slice states: a cluster node
            # must not erase its peers' shares of the same entry.
            slices = [
                slice_id
                for slice_id, state in enumerate(entry.slice_states)
                if state is not None
            ]
            if slices:
                self._pending.append((False, (key, slices)))
        return entry

    # -- capacity ----------------------------------------------------------------

    def trim_to_bytes(self, budget_bytes: int) -> int:
        """Evict LRU entries until payload bytes fit ``budget_bytes``.

        The memory-pressure hook (DESIGN.md §13): under overload the
        health monitor trims the cache toward its byte budget *before*
        allocation pressure turns into an OOM kill, instead of waiting
        for the per-install enforcement in :meth:`_evict_if_needed`.
        At least one entry always survives (mirroring the byte-budget
        eviction rule).  Returns the number of payload bytes released;
        evictions are counted and written through to an attached store
        like any other drop.
        """
        with self._lock:
            released = self._evict_to(budget_bytes)
        self._drain_journal()
        return released

    def _evict_if_needed(self) -> None:
        """Enforce the configured budgets.  Caller holds ``_lock``."""
        self._evict_to(self.config.max_bytes)

    def _evict_to(self, max_bytes: Optional[int]) -> int:
        """The one eviction loop: remove least recently used entries
        while more than ``config.max_entries`` are live, or more than
        one is live and their payload exceeds ``max_bytes``.  Returns
        the payload bytes released.  Caller holds ``_lock``."""
        limit = self.config.max_entries
        # Sum the payload once and subtract per eviction — re-summing
        # every entry per loop iteration is quadratic.
        total = self.total_nbytes if max_bytes is not None else 0
        released = 0
        while (limit is not None and len(self._entries) > limit) or (
            max_bytes is not None
            and len(self._entries) > 1
            and total - released > max_bytes
        ):
            released += self._remove(next(iter(self._entries))).nbytes
            self.stats.evictions += 1
        if _inv.ACTIVE:
            _inv.check_cache(self)
        return released

    # -- observability -------------------------------------------------------------

    def register_metrics(
        self,
        registry: "MetricsRegistry",
        labels: Optional[Mapping[str, str]] = None,
        prefix: str = "repro_predicate_cache",
    ) -> None:
        """Expose this cache on a :class:`~repro.obs.MetricsRegistry`.

        All series are callback-backed reads of the stats the cache
        keeps anyway, so registration adds nothing to the scan path.
        Scrape-time reads run without the cache lock (single attribute
        loads of monotonic counters — a scrape may be one increment
        stale, never torn).  ``labels`` distinguishes multiple caches.
        """
        for kind, name, help_text, read in cache_series(prefix):
            getattr(registry, kind)(
                name, help_text, labels=labels, fn=lambda read=read: read(self)
            )
    # -- introspection -------------------------------------------------------------

    @property
    def total_nbytes(self) -> int:
        """Total payload bytes across entries (the Table 3 metric)."""
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def entries(self) -> List[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def keys(self) -> List[ScanKey]:
        with self._lock:
            return list(self._entries.keys())


def cache_series(
    prefix: str,
) -> Iterator[Tuple[str, str, str, Callable[[PredicateCache], float]]]:
    """``(kind, name, help, read)`` of every per-cache metric series.

    The one definition a bare cache registers for itself and
    :class:`~repro.cluster.ClusterCaches` registers once per node id,
    reading through its router so a replaced node reports its successor.
    """
    for field_name in vars(CacheStats()):
        yield (
            "counter",
            f"{prefix}_{field_name}_total",
            f"Predicate cache {field_name.replace('_', ' ')}",
            lambda cache, f=field_name: getattr(cache.stats, f),
        )
    yield (
        "gauge", f"{prefix}_entries", "Live predicate-cache entries",
        lambda cache: len(cache._entries),
    )
    yield (
        "gauge", f"{prefix}_nbytes",
        "Total payload bytes across entries (Table 3 metric)",
        lambda cache: cache.total_nbytes,
    )
    yield (
        "gauge", f"{prefix}_hit_rate", "Hits over lookups (Fig. 13 metric)",
        lambda cache: cache.stats.hit_rate,
    )
    # The reuse lattice's own metric family (DESIGN.md §14).  Keyed off
    # the cache-family prefix so other families ("repro_lake_cache")
    # stay distinct.
    reuse_prefix = (
        prefix.replace("predicate_cache", "reuse")
        if "predicate_cache" in prefix
        else f"{prefix}_reuse"
    )
    for field_name in vars(ReuseStats()):
        yield (
            "counter",
            f"{reuse_prefix}_{field_name}_total",
            f"Reuse lattice {field_name.replace('_', ' ')}",
            lambda cache, f=field_name: getattr(cache.reuse_stats, f),
        )
