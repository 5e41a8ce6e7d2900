"""The two-step table scan with predicate-cache integration (Fig. 11).

Scan flow per data slice:

1. **Cache probe** — the scan offers its join-extended key and its plain
   key to the predicate cache and takes the most selective live entry.
2. **Range restriction** — zone maps mark the blocks whose min/max
   bounds cannot satisfy the predicate, one dropped-block mask per
   slice.  On a hit, candidate rows come from the cached states (cached
   qualifying ranges plus the uncached appended tail) and the block
   coverage leaves the rows of dropped blocks out as it places them; on
   a miss, the rows of the kept blocks and the tail are the candidates.
3. **Vectorized scan** — the predicate (and any semi-join Bloom filters)
   is evaluated on the candidate rows; cached false positives are
   eliminated here, as is MVCC visibility.
4. **Cache fill** — the qualifying row ranges (which the scan produced
   anyway) are inserted back into the cache: the join-extended entry
   always, the plain entry whenever the scan's candidate set covers it.

Step 4's coverage rule keeps entries sound: a scan restricted by a
*join* entry's candidates has not evaluated the bare predicate outside
those candidates, so it must not write the plain entry.  A scan
restricted by the *plain* entry covers every join-qualifying row (the
join result is a subset of the predicate result), so it may write both.

A scan serves from cache entries only: each slice's candidates come
from the states its *source entries* hold for that slice — one entry
on an exact hit, none on a miss.  With ``enable_reuse`` on (DESIGN.md
§14), a full-key miss additionally consults the reuse lattice
(:mod:`repro.reuse`), which names the live entries of the predicate's
cached conjuncts — or of a cached wider range on the same column — as
the sources; the slice intersects their candidate sets, a superset of
the truth, so step 3's re-evaluation keeps the result bit-identical to
a cache-off scan.  Served or not, the scan derives per-conjunct
qualifying sets on the way
(each padded with the complement of the candidate set, so they stay
supersets under *any* serving basis) and installs them at the same
coordinator barrier as every other entry.

:func:`execute_scan` is three coordinator steps around the four above:

* **plan** (:func:`_plan_scan`) — step 1, once per cache node.  The
  cache is always asked through the router protocol
  ``cache.cache_for_slice(slice_id)``: a :class:`ClusterCaches` answers
  the slice's owning node (§4.6), a bare ``PredicateCache`` answers
  itself — it *is* the one-node router.  A node that is down (the
  router answers ``None``, or its tombstone raises ``NodeDownError``)
  gets a null context, and so does every slice when caching is off.
  A source state whose watermark outruns its slice drops every source
  entry of that node, whose slices then scan in full.
* **run** (:func:`_run_slices`) — steps 2–3, one :func:`_scan_slice`
  task per slice handed to ``parallel.ParallelScanExecutor``; with zero
  workers the same tasks run inline on the coordinator.  Each task
  counts into its own ``QueryCounters`` and times its own span window.
* **install** (:func:`_install`) — step 4 at the barrier, in slice
  order whatever order the tasks finished in: entry installs, reuse
  re-check accounting, and one admission-policy observation per node.

Worker code touches only per-task state plus the internally-synchronized
storage read path; checker rule RP006 rejects shared-state mutation
inside the worker functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cache import PredicateCache
from ..core.entry import CacheEntry
from ..core.keys import ScanKey, SemiJoinDescriptor
from ..core.rowrange import RangeList
from ..faults.errors import NodeDownError
from ..obs.trace import optional_span
from ..predicates.ast import Predicate, TruePredicate
from ..reuse import Decomposition, ReusePlan, decompose, plan_reuse
from ..storage.rms import QueryStorageContext
from ..storage.slice import DataSlice
from ..storage.table import Table
from . import parallel
from .bloom import BloomFilter
from .counters import ZERO_SNAPSHOT, QueryCounters
from .hashing import stable_int_keys
from .statement import StatementContext

__all__ = ["SemiJoinFilter", "ScanResult", "execute_scan"]


@dataclass
class SemiJoinFilter:
    """A runtime semi-join filter pushed into a probe-side scan."""

    probe_column: str
    bloom: BloomFilter
    descriptor: Optional[SemiJoinDescriptor]
    build_versions: Dict[str, int] = field(default_factory=dict)


@dataclass
class ScanResult:
    """Qualifying rows of one scan, per slice, plus gather support."""

    table: Table
    per_slice: List[RangeList]
    #: The scanning statement's storage reader: ``gather`` reads through
    #: it, so late reads are billed to the same statement.
    reader: QueryStorageContext
    #: Per-slice output columns materialized by the scan itself (the
    #: ``gather_columns`` of :func:`execute_scan`).  Reading them inside
    #: the slice tasks lets a parallel scan overlap the gather fetches
    #: too; ``gather`` falls back to storage for anything not here.
    prefetched: Optional[List[Dict[str, np.ndarray]]] = None

    @cached_property
    def num_rows(self) -> int:
        return sum(r.num_rows for r in self.per_slice)

    def gather(self, columns: Sequence[str]) -> Dict[str, np.ndarray]:
        """Materialize the given columns of all qualifying rows.

        Reads go through managed storage (block accesses are counted) —
        this is step (6) of Fig. 11, loading and decompressing only the
        required columns of qualifying rows.  Columns the slice scans
        already materialized (``prefetched``) are assembled without
        touching storage again.  The virtual column ``"__rows__"``
        yields a zero array of the right length without touching
        storage (used by ``count(*)``-only plans).
        """
        if list(columns) == ["__rows__"]:
            return {"__rows__": np.zeros(self.num_rows, dtype=np.int8)}
        out: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        for slice_id, (s, qualifying) in enumerate(
            zip(self.table.slices, self.per_slice)
        ):
            if not qualifying:
                continue
            ready = self.prefetched[slice_id] if self.prefetched else {}
            for name in columns:
                if name in ready:
                    out[name].append(ready[name])
                else:
                    out[name].append(
                        s.columns[name].read_ranges(qualifying, self.reader)
                    )
        result: Dict[str, np.ndarray] = {}
        for name in columns:
            pieces = out[name]
            if not pieces:
                result[name] = s_empty(self.table, name)
            else:
                result[name] = np.concatenate(pieces)
        return result


def s_empty(table: Table, column: str) -> np.ndarray:
    dtype = table.schema.dtype_of(column).numpy_dtype
    return np.empty(0, dtype=dtype)


def execute_scan(
    table: Table,
    predicate: Predicate,
    statement: StatementContext,
    semijoins: Sequence[SemiJoinFilter] = (),
    current_versions: Optional[Mapping[str, int]] = None,
    gather_columns: Sequence[str] = (),
) -> ScanResult:
    """Run the two-step scan over every slice of ``table``.

    Args:
        table: the relation to scan.
        predicate: the pushed-down filter (``TruePredicate`` for none).
        statement: the scanning statement — its visibility snapshot,
            the counters to accumulate into, the storage reader every
            block read goes through, the cache (None disables caching
            entirely) and the worker count (results and surfaced
            counters are bit-identical across worker counts).  A traced
            statement records ``cache-lookup`` and per-slice
            ``scan[slice]`` spans with counter and block-fetch deltas.
        semijoins: Bloom filters pushed down from hash joins (§4.4).
        current_versions: data versions of semi-join build tables, for
            stale-entry rejection.
        gather_columns: output columns the caller will gather from the
            result.  The slice tasks materialize them for their
            qualifying rows — the same reads ``ScanResult.gather``
            would issue, moved inside the (possibly parallel) scan so
            their fetch latency overlaps across slices too.

    Returns:
        Per-slice qualifying row ranges (post predicate, semi-join
        filters, and visibility).
    """
    plan = _plan_scan(table, predicate, semijoins, current_versions, statement)
    # Degradation ladder, rung 2: one count per table scan however many
    # slices lost their node, plus one per stale entry dropped.
    statement.counters.degraded_scans += (
        min(1, plan.degraded_slices) + plan.stale_drops
    )
    results = _run_slices(
        table, predicate, semijoins, plan, list(gather_columns), statement
    )
    _install(table, predicate, plan, results, statement.counters)
    return ScanResult(
        table,
        [qualifying for qualifying, _, _, _ in results],
        statement.storage,
        [materialized for _, _, materialized, _ in results],
    )


@dataclass
class ScanPlan:
    """What the coordinator decided before any slice runs: built once by
    :func:`_plan_scan`, read by the slice runner and the install barrier."""

    plain_key: ScanKey
    #: The join-extended key, when every semi-join filter is describable.
    join_key: Optional[ScanKey]
    #: Columns the vectorized scan reads (predicate + probe columns).
    scan_columns: List[str]
    #: Per-slice cache context; ``None`` scans that slice cache-off
    #: (caching disabled, or the slice's node is down).
    contexts: List[Optional["_SliceCacheContext"]] = field(default_factory=list)
    #: The distinct contexts, one per live cache node.  Each carries the
    #: node's serving basis and receives one policy observation.
    node_contexts: List["_SliceCacheContext"] = field(default_factory=list)
    #: Slices routed cache-off because their node is down.
    degraded_slices: int = 0
    #: Entries dropped because their state outran the slice they describe.
    stale_drops: int = 0


def _plan_scan(
    table: Table,
    predicate: Predicate,
    semijoins: Sequence[SemiJoinFilter],
    current_versions: Optional[Mapping[str, int]],
    statement: StatementContext,
) -> ScanPlan:
    """Derive the scan's keys and resolve one cache context per slice."""
    cache = statement.cache
    predicate_key = predicate.cache_key()
    if cache is not None and cache.config.normalize_keys:
        from ..predicates.normalize import normalize

        predicate_key = normalize(predicate).cache_key()
    plain_key = ScanKey(table.name, predicate_key)
    join_key: Optional[ScanKey] = None
    build_versions: Dict[str, int] = {}
    # A join key must describe *every* filter the scan applies; filters
    # without a descriptor (undescribable build sides) disable it.
    if semijoins and all(sj.descriptor is not None for sj in semijoins):
        join_key = ScanKey(
            table.name,
            predicate_key,
            tuple(sj.descriptor for sj in semijoins),
        )
        for sj in semijoins:
            build_versions.update(sj.build_versions)
    plan = ScanPlan(
        plain_key,
        join_key,
        sorted(predicate.columns() | {sj.probe_column for sj in semijoins}),
    )
    if cache is None:
        plan.contexts = [None] * len(table.slices)
        return plan

    # One context per *cache node*, held by direct reference (never
    # keyed by ``id()``: a collected cache's id can be reused mid-scan,
    # which would alias two distinct nodes into one context).  A down
    # node — the router answers None once it is marked DOWN — resolves
    # to a None context for all of its slices.
    resolved: List[Tuple[object, Optional[_SliceCacheContext]]] = []
    for slice_id in range(len(table.slices)):
        node_cache = cache.cache_for_slice(slice_id)
        context = None
        if node_cache is not None:
            for known_cache, known_context in resolved:
                if known_cache is node_cache:
                    context = known_context
                    break
            else:
                try:
                    context = _prepare_cache_context(
                        node_cache, table, predicate, plain_key, join_key,
                        build_versions, current_versions, statement,
                    )
                except NodeDownError:
                    # Undetected failure window: the node died but the
                    # health monitor has not routed around it yet.
                    pass
                resolved.append((node_cache, context))
        if context is None:
            # Cache-off for this slice: correctness never depends on the cache.
            plan.degraded_slices += 1
        plan.contexts.append(context)
    plan.node_contexts = [known for _, known in resolved if known is not None]

    for slice_id, data_slice in enumerate(table.slices):
        context = plan.contexts[slice_id]
        if context is None or not any(
            state is not None and state.last_cached_row > data_slice.num_rows
            for state in (entry.slice_states[slice_id] for entry in context.sources)
        ):
            continue
        # A cached state claims a row numbering this slice no longer
        # has (an invalidation was missed).  Drop every source entry —
        # through drop_stale, so metrics fire — and fall back to full
        # scans on this node for the rest of this table scan.
        for source in context.sources:
            context.cache.drop_stale(source.key)
        plan.stale_drops += 1
        context.sources, context.basis = (), "full"
    return plan


def _run_slices(
    table: Table,
    predicate: Predicate,
    semijoins: Sequence[SemiJoinFilter],
    plan: ScanPlan,
    gather_columns: List[str],
    statement: StatementContext,
) -> List["_SliceResult"]:
    """Run one :func:`_scan_slice` task per slice; merge at the barrier.

    Zero workers run the tasks inline on the calling thread, in slice
    order; otherwise they fan over the shared worker pool.  Either way
    each task gets a fresh ``QueryCounters``, reads through the
    statement's storage reader and records its own span window via the
    trace's clock; the coordinator merges the counters and emits the
    spans in slice order, so traces and totals do not depend on the
    worker count.
    """
    reader = statement.storage
    trace = statement.trace
    now = trace.now if trace is not None else (lambda: 0.0)

    def make_task(slice_id: int, data_slice: DataSlice):
        context = plan.contexts[slice_id]
        sources = context.sources if context is not None else ()
        conjunct_predicates = context.conjunct_predicates if context is not None else ()

        def task() -> Tuple["_SliceResult", QueryCounters, float, float]:
            local = QueryCounters()
            start = now()
            pair = _scan_slice(
                data_slice, slice_id, predicate, semijoins, statement,
                local, sources, plan.scan_columns, gather_columns,
                conjunct_predicates,
            )
            return pair, local, start, now()

        return task

    # The access log opens before any task runs and settles at the
    # barrier, also when a task raised (the pool drains first).
    reader.begin_scan_phase()
    try:
        outcomes = parallel.ParallelScanExecutor(statement.workers).run(
            [
                make_task(slice_id, data_slice)
                for slice_id, data_slice in enumerate(table.slices)
            ]
        )
    finally:
        access_counts = reader.end_scan_phase()

    results: List["_SliceResult"] = []
    for slice_id, (pair, local, start, end) in enumerate(outcomes):
        statement.counters.merge(local)
        if trace is not None:
            context = plan.contexts[slice_id]
            attrs: Dict[str, object] = {"table": table.name, "slice": slice_id}
            attrs.update(local.delta(ZERO_SNAPSHOT))
            attrs["blocks_fetched"] = access_counts.get(slice_id, 0)
            attrs["cache_basis"] = context.basis if context is not None else "off"
            trace.emit(f"scan[slice {slice_id}]", start, end, attrs)
        results.append(pair)
    return results


def _install(
    table: Table,
    predicate: Predicate,
    plan: ScanPlan,
    results: List["_SliceResult"],
    counters: QueryCounters,
) -> None:
    """The barrier: every cache write of the scan, in slice order.

    Workers never write the cache (RP006); batching the installs here
    keeps the cache mutation sequence identical whatever order the
    slice tasks actually completed in.  Derived conjunct entries ride
    the same barrier (RP009: the reuse package itself never writes).
    """
    for slice_id, (qualifying, q_plain, _, extras) in enumerate(results):
        context = plan.contexts[slice_id]
        if context is None:
            continue
        num_rows = table.slices[slice_id].num_rows
        context.qualifying_rows += qualifying.num_rows
        context.total_rows += num_rows
        installs = [(context.join_entry, qualifying), (context.plain_entry, q_plain)]
        if extras.conjunct_lists is not None:
            installs += zip(context.conjunct_entries, extras.conjunct_lists)
        for entry, ranges in installs:
            if entry is not None:
                context.cache.record_slice_scan(entry, slice_id, ranges, num_rows)
                context.cache.record_entry_stats(entry, ranges.num_rows, num_rows)
        if context.basis in ("composed", "subsumed"):
            # The subsumption/composition re-check accounting: candidate
            # rows were re-evaluated, the rest were skipped outright.
            rechecked = extras.candidate_rows
            counters.reuse_recheck_rows += rechecked
            counters.reuse_skipped_rows += num_rows - rechecked
            context.cache.record_reuse_rows(rechecked, num_rows - rechecked)

    if isinstance(predicate, TruePredicate):
        return
    # Feed the admission policy (repetitiveness + selectivity, §4.1.2):
    # one observation per (node, scan) — not per slice — so a "sighting"
    # means one execution of the scan, like the paper's repetitiveness
    # notion.  Selectivity is over the rows of the node's own slices.
    for context in plan.node_contexts:
        selectivity = context.qualifying_rows / max(1, context.total_rows)
        context.cache.policy.observe(plan.plain_key, selectivity)
        if plan.join_key is not None and context.cache.config.cache_join_keys:
            context.cache.policy.observe(plan.join_key, selectivity)


@dataclass
class _SliceCacheContext:
    """Resolved cache interaction of a scan with one cache node.

    Built by the coordinator before dispatch and mutated only by the
    coordinator afterwards; workers read ``sources`` (their immutable
    slice states) and the conjunct predicates, nothing else.
    ``qualifying_rows``/``total_rows`` accumulate the per-node policy
    observation at the barrier.
    """

    cache: PredicateCache
    #: The live entries this node's slices are served from: the hit for
    #: an exact hit, the resolved parts for a composed or subsumed
    #: serve, none for a miss (``basis`` says which).
    sources: Tuple[CacheEntry, ...] = ()
    basis: str = "full"
    join_entry: Optional[CacheEntry] = None
    plain_entry: Optional[CacheEntry] = None
    #: Derived per-conjunct entries this scan installs at the barrier,
    #: and (in the same order) the normalized conjunct predicate each
    #: one records.
    conjunct_entries: List[CacheEntry] = field(default_factory=list)
    conjunct_predicates: Tuple[Predicate, ...] = ()
    qualifying_rows: int = 0
    total_rows: int = 0


def _prepare_cache_context(
    cache: PredicateCache,
    table: Table,
    predicate: Predicate,
    plain_key: ScanKey,
    join_key: Optional[ScanKey],
    build_versions: Dict[str, int],
    current_versions: Optional[Mapping[str, int]],
    statement: StatementContext,
) -> _SliceCacheContext:
    """Probe the cache and decide which entries this scan records."""
    counters = statement.counters
    cache.watch_table(table)
    cache_join = cache.config.cache_join_keys
    candidate_keys = []
    if join_key is not None and cache_join:
        candidate_keys.append(join_key)
    candidate_keys.append(plain_key)
    decomposition = None
    if cache.config.enable_reuse and not isinstance(predicate, TruePredicate):
        decomposition = decompose(table.name, predicate)
    with optional_span(
        statement.trace, "cache-lookup",
        table=table.name, candidates=len(candidate_keys),
    ) as lookup_span:
        entry = cache.select_entry(candidate_keys, current_versions)
        if entry is not None:
            counters.cache_hits += 1
            context = _SliceCacheContext(
                cache, (entry,), "join" if entry.key.is_join_key else "plain"
            )
            outcome = "hit"
        else:
            # The exact-match miss is counted regardless of a reuse serve:
            # stats.hit_rate stays the paper's Fig. 13 metric, reuse serves
            # are accounted on top in reuse_stats.
            counters.cache_misses += 1
            context = _SliceCacheContext(cache)
            outcome = "miss"
            if decomposition is not None:
                reuse = _plan_reuse(
                    cache, decomposition, current_versions, table, statement
                )
                if reuse is not None:
                    context.sources, context.basis = reuse.sources, reuse.basis
                    outcome = f"reuse-{reuse.basis}"
        if lookup_span is not None:
            lookup_span.set("outcome", outcome)
            lookup_span.set("basis", context.basis)
            if entry is not None:
                lookup_span.set("entry_selectivity", round(entry.selectivity, 6))
                lookup_span.set("entry_nbytes", entry.nbytes)

    if join_key is not None and cache_join and cache.admits(join_key):
        context.join_entry = cache.get_or_create(
            join_key, table.num_slices, build_versions
        )
    # Unfiltered scans are not worth a plain entry: the paper
    # caches "predicates pushed into table scans", and a TRUE
    # entry would qualify every row.
    if (
        context.basis != "join"
        and not isinstance(predicate, TruePredicate)
        and cache.admits(plain_key)
    ):
        # A reuse-served scan evaluates the real predicate over a
        # candidate superset, so its q_plain is exact — the full-key
        # entry it fills records how it was derived.
        served = context.basis in ("composed", "subsumed")
        context.plain_entry = cache.get_or_create(
            plain_key,
            table.num_slices,
            {},
            context.basis if served else "scan",
            tuple(source.key.digest for source in context.sources) if served else (),
        )
    # Derived conjunct entries: sound under any serving basis except
    # "join" (where the complement-padded sets would be uselessly
    # wide — the join candidates are already heavily filtered).
    if decomposition is not None and context.basis != "join":
        for conjunct in decomposition.conjuncts:
            if conjunct.key == plain_key or not cache.admits(conjunct.key):
                continue
            context.conjunct_entries.append(
                cache.get_or_create(
                    conjunct.key, table.num_slices, {}, provenance="conjunct"
                )
            )
            context.conjunct_predicates += (conjunct.predicate,)
    return context


def _plan_reuse(
    cache: PredicateCache,
    decomposition: Decomposition,
    current_versions: Optional[Mapping[str, int]],
    table: Table,
    statement: StatementContext,
) -> Optional[ReusePlan]:
    """Ask the reuse lattice which live entries serve a full-key miss."""
    with optional_span(
        statement.trace, "reuse-plan",
        table=table.name, conjuncts=len(decomposition.conjuncts),
    ) as plan_span:
        reuse = plan_reuse(cache, decomposition, current_versions)
        if reuse is None:
            if plan_span is not None:
                plan_span.set("outcome", "none")
            return None
        cache.record_reuse_serve(reuse.basis)
        if reuse.basis == "composed":
            statement.counters.reuse_composed_serves += 1
        else:
            statement.counters.reuse_subsumed_serves += 1
        if plan_span is not None:
            plan_span.set("outcome", reuse.basis)
            plan_span.set("resolved", len(reuse.sources))
            plan_span.set("subsumed_parts", reuse.subsumed_parts)
            plan_span.set("sources", [str(source.key) for source in reuse.sources])
        return reuse


@dataclass
class _SliceScanExtras:
    """Worker-side byproducts the coordinator's barrier consumes."""

    #: Candidate rows this slice actually re-evaluated (post zone-map);
    #: for a reuse-served scan these are the re-checked rows.
    candidate_rows: int
    #: Derived per-conjunct qualifying sets (each padded with the
    #: complement of the candidate set so it stays a superset of the
    #: conjunct's truth under any serving basis), or ``None`` when the
    #: slice evaluated nothing.
    conjunct_lists: Optional[List[RangeList]] = None


_SliceResult = Tuple[RangeList, RangeList, Dict[str, np.ndarray], _SliceScanExtras]


def _scan_slice(
    data_slice: DataSlice,
    slice_id: int,
    predicate: Predicate,
    semijoins: Sequence[SemiJoinFilter],
    statement: StatementContext,
    counters: QueryCounters,
    sources: Tuple[CacheEntry, ...],
    scan_columns: List[str],
    gather_columns: List[str],
    conjunct_predicates: Tuple[Predicate, ...] = (),
) -> _SliceResult:
    """Scan one slice; returns ``(qualifying, plain-qualifying,
    materialized gather columns, extras)``.

    Worker-side code: may run on a pool thread.  It counts into its
    per-task ``counters`` and takes from ``statement`` only the snapshot
    and the storage reader; it must not mutate shared engine or cache
    state — entry installs happen at the coordinator's barrier (rule
    RP006).
    """
    reader = statement.storage
    num_rows = data_slice.num_rows
    states = [
        state
        for state in (source.slice_states[slice_id] for source in sources)
        if state is not None
    ]

    # Zone-map pruning is applied on top of a hit too — it is
    # metadata-only and guarantees a hit never scans more than a miss
    # would ("rigorously avoiding slowdowns", §1).
    dropped = _prune_with_zonemaps(data_slice, predicate, counters)
    if states:
        # Cache hit: the cached ranges replace the range-restricted scan;
        # the coverage leaves the rows of dropped blocks out as it
        # places them, so no range list is differenced on the way.  A
        # composed or subsumed serve intersects its parts' candidates,
        # each a superset of its conjunct's truth.
        candidates = states[0].candidates(num_rows)
        for state in states[1:]:
            if not candidates:
                break
            candidates = candidates.intersect(state.candidates(num_rows))
        counters.rows_skipped_cache += num_rows - candidates.num_rows
    else:
        # Miss: the kept blocks' row ranges *are* the candidates — a
        # full-slice scan pays no per-row block mask.
        candidates, dropped = data_slice.unpruned_rows(dropped), None
    # One block coverage of the candidates serves every column read,
    # the visibility mask, the row ids and (selected down to the
    # qualifying rows) the gather below.
    covered = data_slice.cover(candidates, dropped)
    row_ids = covered.row_ids

    counters.rows_scanned += len(row_ids)
    extras = _SliceScanExtras(candidate_rows=len(row_ids))
    materialized: Dict[str, np.ndarray] = {}

    if not len(row_ids):
        qualifying = RangeList.empty()
        q_plain = RangeList.empty()
    else:
        batch = {
            name: data_slice.columns[name].read_ranges(covered, reader)
            for name in scan_columns
        }
        if isinstance(predicate, TruePredicate) and not scan_columns:
            pred_mask = np.ones(len(row_ids), dtype=bool)
        else:
            pred_mask = predicate.evaluate(batch)
            if pred_mask.shape == ():  # scalar result of an empty batch
                pred_mask = np.full(len(row_ids), bool(pred_mask))
        vis_mask = data_slice.visibility_mask(covered, statement.txid)
        plain_mask = pred_mask & vis_mask
        full_mask = plain_mask
        for sj in semijoins:
            keys = stable_int_keys(batch[sj.probe_column])
            bloom_mask = sj.bloom.may_contain(keys)
            counters.bloom_probes += len(keys)
            counters.bloom_positives += int(np.count_nonzero(bloom_mask))
            full_mask = full_mask & bloom_mask
        gathered = covered.select(full_mask)
        qualifying = RangeList.from_rows(gathered.row_ids)
        q_plain = (
            qualifying
            if full_mask is plain_mask
            else RangeList.from_rows(row_ids[plain_mask])
        )
        if conjunct_predicates:
            # Per-conjunct qualifying sets for the reuse lattice.  Rows
            # outside the candidate set were not evaluated here, so each
            # set is padded with the complement — a false-positive-only
            # superset of the conjunct's truth whatever basis restricted
            # this scan (zone-map-pruned rows included; they re-prune).
            # The candidate list is the scanned rows unless the coverage
            # dropped blocks from it; only then is it rebuilt.
            scanned = candidates if dropped is None else RangeList.from_rows(row_ids)
            complement = scanned.complement(num_rows)
            conjunct_lists: List[RangeList] = []
            for conjunct in conjunct_predicates:
                c_mask = conjunct.evaluate(batch)
                if c_mask.shape == ():
                    c_mask = np.full(len(row_ids), bool(c_mask))
                c_mask = c_mask & vis_mask
                conjunct_lists.append(
                    RangeList.from_rows(row_ids[c_mask]).union(complement)
                )
            extras.conjunct_lists = conjunct_lists
        # Materialize the caller's output columns for the qualifying rows
        # — exactly the reads ScanResult.gather would issue, moved here
        # so parallel slice tasks overlap the gather fetches too.
        if qualifying:
            for name in gather_columns:
                materialized[name] = data_slice.columns[name].read_ranges(
                    gathered, reader
                )

    counters.rows_qualifying += qualifying.num_rows
    return qualifying, q_plain, materialized, extras


def _prune_with_zonemaps(
    data_slice: DataSlice, predicate: Predicate, counters: QueryCounters
) -> Optional[np.ndarray]:
    """Step 1 of the standard scan: drop blocks by min/max bounds.

    Returns one mask over the slice's sealed blocks — True where some
    predicate column's zone map rules the block out — or ``None`` when
    no block can be skipped.
    """
    dropped: Optional[np.ndarray] = None
    for column_name in predicate.columns():
        bounds = predicate.bounds(column_name)
        if bounds is None or bounds.unbounded:
            continue
        column = data_slice.columns.get(column_name)
        if column is None:
            continue
        pruned = column.zonemap.pruned_blocks(bounds)
        dropped = pruned if dropped is None else dropped | pruned
    if dropped is None:
        return None
    num_dropped = int(np.count_nonzero(dropped))
    counters.blocks_pruned_zonemap += num_dropped
    return dropped if num_dropped else None
