"""The predicate cache: an inverted index from scan keys to row ranges.

This is the paper's contribution (§4).  The cache is a per-node hash
table mapping :class:`~repro.core.keys.ScanKey` to
:class:`~repro.core.entry.CacheEntry`.  It is filled as a side product
of scanning (the engine calls :meth:`record_slice_scan` with the
qualifying row ids the vectorized scan produced anyway), consulted
before scans (:meth:`lookup` / :meth:`select_entry`), and invalidated
when a scan reads — no table calls into a cache (DESIGN.md §5):

* the layout rule, :meth:`check_layout`, run by every scan before it
  probes: a scanned table whose ``layout_version`` stamp is not the
  one the cache holds for its name (a vacuum, a reorganization, a
  table re-created under that name) loses every entry on that name;
* the build-side rule, in every probe: a join-index entry whose
  recorded build-side ``data_version`` stamps are not the current
  ones is dropped, not served — the semi-join filter's contents
  changed (§4.4).

Stamps are never reused (:mod:`repro.storage.table`), so a stale entry
is never served, and it is gone after the next scan of its table or
the next probe of its key.  Plain entries survive inserts/deletes/
updates on their own table — the design's headline property (§4.3).

Locking discipline (DESIGN.md §12): one re-entrant lock serializes
every mutation — installs, LRU reordering, eviction, invalidation,
stats — so concurrent serving threads interleave at whole-operation
granularity.  The entry table is the one record of which entries are
live: an install lands only in the entry its key still maps to, so a
scan that raced an invalidation or an eviction writes nothing back.
A slice state is an immutable value
(:mod:`repro.core.entry`): the one store of a new state into its
``slice_states`` slot, under the lock, is the whole publication, so a
scan reads a slot without the lock and works on a complete state.
Mutation outside a ``with self._lock`` block (or a helper documented as
"caller holds ``_lock``") is rejected by checker rule RP007.  Entries
enter the table through one helper (:meth:`_insert`) and leave it
through one (:meth:`_remove`), whether installed, restored, evicted or
invalidated.  The side index — plain entries by the exact
single-column interval their predicate is (the subsumption matcher's
candidates) — changes only in those two helpers and the LRU touch
(:meth:`_touch`), so no lookup walks every entry (DESIGN.md §14).  The
running byte count the budget is enforced against changes only in
those two helpers and the slot store that publishes a new slice state,
so no install re-sums the payload.

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

import numpy as np

from .. import invariants as _inv
from ..obs import lockwitness
from ..predicates.ast import Bounds, Predicate
from ..predicates.interval import exact_interval, exact_interval_of_key
from .config import PredicateCacheConfig
from .entry import BitmapSliceState, CacheEntry, RangeSliceState, SliceState
from .intervals import Candidates, IntervalBucket
from .keys import ScanKey
from .policy import AdmissionPolicy, AlwaysAdmit
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
        # Side indexes over ``_entries`` (see the module docstring).
        # Plain keys whose predicate is one exact single-column
        # interval, read once at install, bucketed by (table, column)
        # (:class:`IntervalBucket`), each slot stamped from
        # ``_range_clock`` when its key is installed or touched, so the
        # stamps order a bucket as ``_entries``' LRU order does; kept
        # only with reuse on, the matcher being their one reader.
        # ``_range_columns`` names each indexed key's bucket column.
        self._ranges: Dict[Tuple[str, str], IntervalBucket] = {}
        self._range_columns: Dict[ScanKey, str] = {}
        self._range_clock = 0
        # Payload bytes of every live entry, kept by the three stores
        # that change one: ``_insert``, ``_remove`` and the slot swap
        # publishing a new slice state (``record_slice_scan``).
        self._nbytes = 0
        self.stats = CacheStats()
        self.reuse_stats = ReuseStats()
        # The layout_version stamp every live entry on a table name was
        # built under (:meth:`check_layout`).  Persisted with every
        # entry so recovery can tell whether row numbering survived the
        # restart (DESIGN.md §9).
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
        # methods (entries, total_nbytes) under the lock.
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

    # -- the layout rule -----------------------------------------------------------

    def check_layout(self, table: "Table") -> None:
        """The one layout rule, run by every scan before it probes: if
        the stamp held for ``table.name`` is not ``table.layout_version``
        — a vacuum, a reorganization, or another table under that name —
        drop every entry on the name, then hold the new stamp.

        The stamp is recorded only after the drop, so a concurrent scan
        that finds it current finds no entry of an older layout.
        """
        stamp = table.layout_version
        with self._lock:
            if self._table_layouts.get(table.name) == stamp:
                return
        self.invalidate_table(table.name)
        with self._lock:
            self._table_layouts[table.name] = stamp

    def table_layout_of(self, table_name: str) -> int:
        """The layout_version stamp held for a table (0: none yet)."""
        with self._lock:
            return self._table_layouts.get(table_name, 0)

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
        writing through.  Idempotent."""
        self.detach_store()

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
    ) -> CacheEntry:
        """Install a warm-start entry recovered from a store.

        Revalidation already proved the row numbering is live, so the
        entry replaces whatever lives under its key and subsequent scans
        extend it like any other entry; an install through the entry it
        replaced is refused as stale.  Does not write through —
        hydration must not re-journal what the store just replayed.  The
        states are installed as handed in, so each is checked first,
        always: one that breaks its representation invariants (a damaged
        file that still passed its CRC) raises before the cache is
        touched.
        """
        for state in slice_states.values():
            _inv.check_slice_state(state)
        with self._lock:
            entry = CacheEntry(key, num_slices, build_versions)
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
        mismatch are dropped as stale — the one build-side rule.
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
                self._touch(key)
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

    def range_candidates(
        self, table_name: str, column: str, wanted: Bounds
    ) -> Optional[Candidates]:
        """The live plain entries on ``table_name`` whose predicate is one
        exact interval of ``column`` that may contain ``wanted`` — the
        subsumption matcher's candidates, found by one vectorized
        comparison of the bucket's ends (:meth:`IntervalBucket.containing`)
        — in no order; None when the bucket is empty or
        reuse is off.  A read: touches neither the LRU order nor any
        count."""
        with self._lock:
            bucket = self._ranges.get((table_name, column))
            return None if bucket is None else bucket.containing(wanted)

    def record_reuse_serve(self, basis: str) -> None:
        """Count one scan answered from derived entries ("composed"/"subsumed")."""
        with self._lock:
            if basis == "composed":
                self.reuse_stats.composed_serves += 1
            elif basis == "subsumed":
                self.reuse_stats.subsumed_serves += 1
            else:
                raise ValueError(f"unknown reuse serve basis {basis!r}")

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
        predicate: Optional[Predicate] = None,
    ) -> CacheEntry:
        """The entry for ``key``, creating an empty one if needed.

        One key, one entry, however it is filled: a direct scan of
        ``x < 25`` and the decomposer's ``x < 25`` conjunct share it.
        Its payload bytes count against ``max_bytes`` exactly once, on
        the entry itself: a scan served by composition or subsumption
        reads its source entries' states in place and stores nothing of
        its own.  ``predicate`` is the one ``key`` renders (the scan
        holds it): a new plain entry's range index reads its interval
        off it instead of parsing the key.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._touch(key)
                return entry
            if key.is_join_key and not self.config.cache_join_keys:
                raise ValueError("join-index keys are disabled by configuration")
            entry = CacheEntry(key, num_slices, build_versions or {})
            self._insert(entry, predicate)
            self.stats.inserts += 1
        self._drain_journal()
        return entry

    def _insert(self, entry: CacheEntry, predicate: Optional[Predicate] = None) -> None:
        """The one store into ``_entries``: store ``entry`` under its key
        and in the side index, and enforce the byte budget.  Storing
        over a live key (a restore) keeps its LRU position in
        ``_entries`` and in its range bucket alike.  The side index
        takes the interval of ``predicate``, the one the key renders,
        or parses the key when there is none (a restore).  Caller holds
        ``_lock``."""
        key = entry.key
        replaced = self._entries.get(key)
        if replaced is not None:
            self._nbytes -= replaced.nbytes
        self._nbytes += entry.nbytes
        self._entries[key] = entry
        if self.config.enable_reuse and not key.is_join_key:
            interval = (
                exact_interval_of_key(key.predicate_key) if predicate is None
                else exact_interval(predicate)
            )
            if interval is not None:
                column, bounds = interval
                self._range_columns[key] = column
                bucket = self._ranges.get((key.table, column))
                if bucket is None:
                    bucket = self._ranges[(key.table, column)] = IntervalBucket()
                self._range_clock += 1
                bucket.put(key, entry, bounds, self._range_clock)
        self._evict_if_needed()

    def _touch(self, key: ScanKey) -> None:
        """Mark a live key most recently used, in ``_entries`` and by a
        fresh stamp in its range bucket: ordered by stamp, a bucket meets
        its keys in the order a walk of ``_entries`` would, so the
        subsumption matcher's ties still go to the least recently used
        entry.  Caller holds ``_lock``."""
        self._entries.move_to_end(key)
        column = self._range_columns.get(key)
        if column is not None:
            self._range_clock += 1
            self._ranges[(key.table, column)].touch(key, self._range_clock)

    def record_slice_scan(
        self,
        entry: CacheEntry,
        slice_id: int,
        rows: np.ndarray,
        scanned_upto: int,
        exact: bool = False,
        rejected: bool = False,
    ) -> None:
        """Record one slice's scan output — its qualifying row ids,
        ascending — into the entry, and fold its counts into the entry's
        selectivity: ``scanned_upto`` rows considered, of which the set
        holds ``len(rows)`` (``scanned_upto - len(rows)`` when
        ``rejected``).

        First call per slice creates the state; later calls replace it
        by one extended over the uncached tail (appends since the entry
        was built, §4.3.1).  The state converts ``rows`` to its payload
        only when it changes: a repeat that found no appended row
        converts nothing.  ``exact`` says that ``rows`` are the truth
        over the rows scanned, not a superset of it — the scan's own
        fully evaluated output, never a derived conjunct set; the state
        stays exact only while every set it was built from was
        (:mod:`repro.core.entry`).  ``rejected``: ``rows`` are the rows
        a derived conjunct rejected, and the set is every other row.

        Stale installs are refused: if ``entry`` is no longer the live
        object under its key — invalidated, evicted or replaced by a
        restore after the scan picked it up (a vacuum between lookup and
        install) — its rows may describe a numbering that no longer
        exists and must not be (re)installed; the scan's results are
        still correct, only the cache write is dropped.  The whole
        check-then-install runs under ``_lock``, so a concurrent
        invalidation lands either before (install refused) or after
        (entry dropped) — never between the check and the extension.
        """
        with self._lock:
            if self._entries.get(entry.key) is not entry:
                self.stats.stale_installs += 1
                return
            held = len(rows)
            entry.rows_qualifying += scanned_upto - held if rejected else held
            entry.rows_considered += scanned_upto
            state = entry.slice_states[slice_id]
            if state is None and not rejected:
                new = self._new_state(rows, scanned_upto, exact)
            else:  # a derived set's first build extends an empty state
                base = state or self._new_state(np.empty(0, np.int64), 0, False)
                new = base.extended(rows, scanned_upto, exact, rejected)
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
                self._nbytes += new.nbytes
                if state is not None:
                    self._nbytes -= state.nbytes
                    self.stats.extensions += 1
                self._capture_state(entry, slice_id, new)
                self._evict_if_needed()
        if changed:
            self._drain_journal()

    def _new_state(
        self, rows: np.ndarray, scanned_upto: int, exact: bool
    ) -> SliceState:
        """Caller holds ``_lock``."""
        if self.config.variant == "range":
            return RangeSliceState(
                rows, scanned_upto, self.config.max_ranges_per_slice, exact
            )
        return BitmapSliceState(
            rows, scanned_upto, self.config.bitmap_block_rows
        )

    # -- invalidation ---------------------------------------------------------------

    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry scanning ``table_name`` (layout changed)."""
        return self._invalidate(
            lambda live: [key for key in live if key.table == table_name]
        )

    def clear(self) -> int:
        """Drop every entry, counting invalidations.

        The admission policy forgets each key — a cleared key starts
        from scratch and can earn re-admission, instead of being
        silently blacklisted by stale observation state.
        """
        return self._invalidate(list)

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
    ) -> int:
        """The one invalidation body: drop the live keys ``select``
        picks.  Each drop counts as an invalidation and goes through
        :meth:`_drop`; returns the number dropped.  An install through a
        dropped entry is refused (:meth:`record_slice_scan`)."""
        with self._lock:
            keys = select(self._entries)
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
        """The one removal from ``_entries``: pop the live entry, take
        it out of the side index (an emptied bucket goes with it), and
        queue its drop for the journal.  Eviction calls this directly,
        so the admission policy keeps its observations of an evicted
        key; invalidation goes through :meth:`_drop`.  Caller holds
        ``_lock``."""
        entry = self._entries.pop(key)
        self._nbytes -= entry.nbytes
        column = self._range_columns.pop(key, None)
        if column is not None:
            slot = (key.table, column)
            bucket = self._ranges[slot]
            bucket.remove(key)
            if not bucket:
                del self._ranges[slot]
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

    def _evict_if_needed(self) -> None:
        """The one eviction loop: remove least recently used entries
        while more than one is live and their payload exceeds
        ``config.max_bytes``.  Caller holds ``_lock``."""
        max_bytes = self.config.max_bytes
        if max_bytes is not None:
            while len(self._entries) > 1 and self._nbytes > max_bytes:
                self._remove(next(iter(self._entries)))
                self.stats.evictions += 1
        if _inv.ACTIVE:
            _inv.check_cache(self)

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
        """Total payload bytes across entries (the Table 3 metric): the
        running count, O(1)."""
        with self._lock:
            return self._nbytes

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
