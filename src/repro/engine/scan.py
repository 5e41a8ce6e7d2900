"""The two-step table scan with predicate-cache integration (Fig. 11).

Scan flow per data slice:

1. **Cache probe** — the scan offers its join-extended key and its plain
   key to the predicate cache and takes the most selective live entry.
2. **Range restriction** — the plan resolves one immutable
   :class:`SliceSource` per slice: its candidate rows and two verdict
   watermarks.  A miss has no candidates, so the zone maps choose them:
   the rows of the blocks whose min/max bounds can satisfy the
   predicate, plus the tail.  A hit's candidates are the cached state's
   rows (cached qualifying rows plus the uncached appended tail), a
   composed or subsumed serve's the intersection of its parts' rows;
   zone maps still drop blocks on top, and the block coverage leaves
   their rows out as it places the candidates.  An exact hit (below) whose
   watermark reaches the slice's row count consults no zone map: every
   candidate qualifies, so no block holding one can be pruned.  Its
   candidates' coverage is then a function of the state alone, so the
   state keeps it (:meth:`~repro.core.entry.RangeSliceState.placed`):
   the first such hit places the rows, every later one takes the
   placement as is.
3. **Vectorized scan** — rows at or past the source's ``verdict_below``
   are evaluated (predicate, then any semi-join Bloom filters from
   ``probe_verdict_below`` on); cached false positives are eliminated
   here, as is MVCC visibility.  Both watermarks are 0 except on an
   exact-match hit on an *exact* state (one that was never merged,
   :mod:`repro.core.entry`): it has no false positives, so rows below
   its watermark take the state's verdict and read only the columns
   the answer needs, and a join-keyed state's rows there skip the
   probes too.  Visibility applies to every row, unless the slice's
   MVCC summary says every row is visible at the statement's snapshot
   (:meth:`~repro.storage.slice.DataSlice.all_visible`) — then no
   slice scan computes a per-row visibility mask.  When no row is
   evaluated, none is invisible and the coverage dropped none, the
   candidates' coverage is the answer without a mask.
4. **Cache fill** — the qualifying row ids (which the scan produced
   anyway) are inserted back into the cache: the join-extended entry
   always, the plain entry whenever the scan's candidate set covers it.

One row set is in flight: ascending int64 row ids, placed by storage
block in a :class:`~repro.storage.column.BlockCoverage`.  A state gives
the plan its rows once, a composed serve intersects row ids, the
candidates' coverage is what every column read, the visibility mask
and the probes work on, the qualifying rows are a selection of it —
``ScanResult.per_slice``, read as is by the gather, DELETE and UPDATE
— and the barrier hands their ids to the cache, whose states convert
them to a payload only when they change.

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
the sources; the plan intersects their candidate sets, a superset of
the truth, so step 3's re-evaluation keeps the result bit-identical to
a cache-off scan.  A full-key miss, served or not, derives per-conjunct
qualifying sets on the way (every row but the scanned rows the conjunct
rejected, so they stay supersets under *any* serving basis) and hands
the cache only those rejected ids, at the same coordinator barrier as
every other entry.  An exact-match hit derives none (its statement did
when it first ran), so an exact state keeps its verdict with reuse on.

:func:`execute_scan` is three coordinator steps around the four above:

* **plan** (:func:`_plan_scan`) — step 1, once per cache node, and
  the resolution of step 2's sources.  The cache is always asked
  through the router protocol ``cache.cache_for_slice(slice_id)``: a
  :class:`ClusterCaches` answers the slice's owning node (§4.6), a bare
  ``PredicateCache`` answers itself — it *is* the one-node router.  A
  dead node's tombstone raises ``NodeDownError``, and its slices get
  the default source (no context) — as does every slice when caching
  is off.  A source state whose watermark outruns its slice drops every
  source entry of that node, whose slices then scan as misses.  Only
  then is each slice's state slot read, once, into its source.
* **run** (:func:`_run_slices`) — steps 2–3, a loop calling
  :func:`_scan_slice` once per slice on its source, in slice order,
  counting into the statement's counters.
* **install** (:func:`_install`) — step 4 at the barrier, in slice
  order: one cache call per entry install (its state and its counts),
  reuse re-check accounting on the statement's counters, and one
  admission-policy observation per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.cache import PredicateCache
from ..core.entry import CacheEntry, RangeSliceState, SliceState
from ..core.keys import ScanKey, SemiJoinDescriptor
from ..faults.errors import NodeDownError
from ..obs.trace import optional_span
from ..predicates.ast import Bounds, Predicate, TruePredicate
from ..reuse import Decomposition, ReusePlan, decompose, plan_reuse
from ..sql.planner import bind_literals
from ..storage.column import BlockCoverage, read_columns
from ..storage.rms import QueryStorageContext
from ..storage.slice import DataSlice
from ..storage.table import Table
from .bloom import BloomFilter
from .counters import QueryCounters
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
    """Qualifying rows of one scan, per slice, and the output columns
    its slice scans materialized for them."""

    table: Table
    #: Each slice's qualifying rows, placed by block: the coverage the
    #: slice scan built, which ``gather``, DELETE and UPDATE read as is.
    per_slice: List[BlockCoverage]
    #: Per-slice output columns materialized by the slice scans (the
    #: ``gather_columns`` of :func:`execute_scan`).
    materialized: List[Dict[str, np.ndarray]]

    @cached_property
    def num_rows(self) -> int:
        return sum(len(rows) for rows in self.per_slice)

    def gather(self, columns: Sequence[str]) -> Dict[str, np.ndarray]:
        """Assemble the given columns of all qualifying rows.

        Each column must be one of the scan's ``gather_columns``: the
        slice scans read them — step (6) of Fig. 11, loading and
        decompressing only the required columns of qualifying rows —
        and this only concatenates.  The virtual column ``"__rows__"``
        yields a zero array of the right length (used by
        ``count(*)``-only plans).
        """
        if list(columns) == ["__rows__"]:
            return {"__rows__": np.zeros(self.num_rows, dtype=np.int8)}
        result: Dict[str, np.ndarray] = {}
        for name in columns:
            pieces = [
                ready[name]
                for ready, qualifying in zip(self.materialized, self.per_slice)
                if qualifying
            ]
            result[name] = (
                np.concatenate(pieces) if pieces else s_empty(self.table, name)
            )
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
            block read goes through and the cache (None disables
            caching entirely).  A traced statement records
            ``cache-lookup`` and per-slice ``scan[slice]`` spans with
            counter and block-fetch deltas.
        semijoins: Bloom filters pushed down from hash joins (§4.4).
        current_versions: data versions of semi-join build tables, for
            stale-entry rejection.
        gather_columns: output columns the caller will gather from the
            result: ``ScanResult.gather`` takes no other column.
            Each slice scan materializes them for its qualifying rows,
            so the reads count in the slice's span and fall under its
            deferred block eviction.

    Returns:
        Per-slice qualifying rows (post predicate, semi-join filters,
        and visibility).

    Raises:
        PlannerError: a literal or a column comparison in ``predicate``
            cannot compare with its column (:func:`bind_literals`).
    """
    predicate = bind_literals(predicate, table.schema.column_types)
    plan = _plan_scan(
        table, predicate, semijoins, current_versions, gather_columns, statement
    )
    # Degradation ladder, rung 2: one count per table scan however many
    # slices lost their node, plus one per stale entry dropped.
    statement.counters.degraded_scans += (
        min(1, plan.degraded_slices) + plan.stale_drops
    )
    results = _run_slices(table, plan, statement)
    _install(table, plan, results, statement.counters)
    return ScanResult(
        table,
        [result.qualifying for result in results],
        [result.materialized for result in results],
    )


@dataclass
class ScanPlan:
    """What the coordinator decided before any slice runs: built once by
    :func:`_plan_scan`, read by the slice runner and the install barrier."""

    plain_key: ScanKey
    #: The join-extended key, when every semi-join filter is describable.
    join_key: Optional[ScanKey]
    predicate: Predicate
    semijoins: Sequence[SemiJoinFilter]
    #: Columns the vectorized scan reads (predicate + probe columns).
    scan_columns: List[str]
    #: Output columns each slice scan materializes for its qualifying rows.
    gather_columns: List[str]
    #: The predicate's zone-map bounds, per bounded column: derived
    #: once here, read by every slice scan that prunes.
    zone_bounds: List[Tuple[str, Bounds]]
    #: What each slice scans from, in slice order.
    sources: List["SliceSource"] = field(default_factory=list)
    #: The distinct contexts, one per live cache node.  Each carries the
    #: node's serving basis and receives one policy observation.
    node_contexts: List["_SliceCacheContext"] = field(default_factory=list)
    #: Slices routed cache-off because their node is down.
    degraded_slices: int = 0
    #: Entries dropped because their state outran the slice they describe.
    stale_drops: int = 0


class SliceSource(NamedTuple):
    """What one slice is scanned from, resolved once at plan time.

    The default source scans the slice cache-off.  Every serving basis
    is candidates plus two watermarks: rows below ``verdict_below`` take
    the state's verdict on the predicate (they are not evaluated), rows
    below ``probe_verdict_below`` take it on the semi-join probes too.
    """

    #: The slice's cache node; ``None`` scans the slice cache-off
    #: (caching disabled, or the slice's node is down).
    context: Optional["_SliceCacheContext"] = None
    #: ``None`` on a miss (the zone maps choose the candidates); the
    #: state's rows on a hit; their intersection on a composed or
    #: subsumed serve.  Ascending row ids.
    candidates: Optional[np.ndarray] = None
    #: The exact hit's watermark, else 0.
    verdict_below: int = 0
    #: The same watermark for a join-keyed exact hit, else 0.
    probe_verdict_below: int = 0
    #: Whether the source is an exact hit (the ``exact`` span attribute).
    exact: bool = False
    #: An exact hit whose watermark reaches the slice's row count: the
    #: candidates' coverage its state keeps (``candidates`` are its row
    #: ids), taken as is, else ``None``.
    placed: Optional[BlockCoverage] = None


def _plan_scan(
    table: Table,
    predicate: Predicate,
    semijoins: Sequence[SemiJoinFilter],
    current_versions: Optional[Mapping[str, int]],
    gather_columns: Sequence[str],
    statement: StatementContext,
) -> ScanPlan:
    """Derive the scan's keys and resolve one source per slice."""
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
        predicate,
        semijoins,
        sorted(predicate.columns() | {sj.probe_column for sj in semijoins}),
        list(gather_columns),
        _zone_bounds(predicate),
    )
    if cache is None:
        plan.sources = [SliceSource() for _ in table.slices]
        return plan

    # One context per *cache node*, held by direct reference (never
    # keyed by ``id()``: a collected cache's id can be reused mid-scan,
    # which would alias two distinct nodes into one context).  A dead
    # node's tombstone resolves to a None context for all of its slices.
    resolved: List[Tuple[object, Optional[_SliceCacheContext]]] = []
    contexts: List[Optional[_SliceCacheContext]] = []
    for slice_id in range(len(table.slices)):
        node_cache = cache.cache_for_slice(slice_id)
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
                # The node died and has not been replaced yet.
                context = None
            resolved.append((node_cache, context))
        if context is None:
            # Cache-off for this slice: correctness never depends on the cache.
            plan.degraded_slices += 1
        contexts.append(context)
    plan.node_contexts = [known for _, known in resolved if known is not None]

    for slice_id, data_slice in enumerate(table.slices):
        context = contexts[slice_id]
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
    plan.sources = [
        _resolve_source(context, slice_id, data_slice)
        for slice_id, (data_slice, context) in enumerate(zip(table.slices, contexts))
    ]
    return plan


def _resolve_source(
    context: Optional["_SliceCacheContext"], slice_id: int, data_slice: DataSlice
) -> SliceSource:
    """The slice's source, read off its entries' slots once the stale
    drops are done.

    An exact hit keeps the rows of the state it was judged exact from
    (:func:`_exact_state`), not of a second read of a slot an install
    may swap.  When its watermark reaches the slice's row count its
    verdict covers every row and no zone map drops one, so the state's
    own placement is the candidates' coverage: placed by the first such
    hit, kept on the state, taken as is by every later one.  A composed
    or subsumed serve intersects its parts' rows, each a superset of its
    conjunct's truth: it expands the part with the fewest and keeps
    those the other parts' masks mark.
    """
    if context is None:
        return SliceSource()
    num_rows = data_slice.num_rows
    exact = _exact_state(context, slice_id)
    placed: Optional[BlockCoverage] = None
    if exact is not None and exact.last_cached_row == num_rows:
        placed = exact.placed(num_rows, data_slice.cover)
        candidates = placed.row_ids
    else:
        states: List[SliceState] = [exact] if exact is not None else [
            state
            for state in (source.slice_states[slice_id] for source in context.sources)
            if state is not None
        ]
        if not states:
            return SliceSource(context)
        if len(states) > 1:
            states.sort(key=lambda state: state.count(num_rows))
        candidates = states[0].rows(num_rows)
        for state in states[1:]:
            if not len(candidates):
                break
            candidates = candidates[state.mask(num_rows)[candidates]]
    if exact is None:
        return SliceSource(context, candidates)
    # A join-keyed exact state also recorded the probes' verdict, at the
    # build versions the lookup checked.
    watermark = exact.last_cached_row
    probed = watermark if context.basis == "join" else 0
    return SliceSource(context, candidates, watermark, probed, True, placed)


def _run_slices(
    table: Table, plan: ScanPlan, statement: StatementContext
) -> List["_SliceResult"]:
    """Scan the slices one after the other, in slice order.

    Block-cache eviction waits for the end of the last slice, also when
    a slice raised (the storage reader's scan phase).  A traced
    statement gets one ``scan[slice N]`` span per slice carrying the
    slice's counter deltas, the blocks it read and whether visibility
    came from the slice's MVCC summary or from its rows.
    """
    reader = statement.storage
    counters = statement.counters
    trace = statement.trace
    results: List["_SliceResult"] = []
    reader.begin_scan_phase()
    try:
        for slice_id, data_slice in enumerate(table.slices):
            source = plan.sources[slice_id]
            with optional_span(
                trace, f"scan[slice {slice_id}]", table=table.name, slice=slice_id
            ) as span:
                if span is not None:
                    before = counters.snapshot()
                    blocks_before = reader.stats.blocks_accessed
                results.append(_scan_slice(data_slice, source, plan, statement))
                if span is not None:
                    context = source.context
                    span.update(counters.delta(before))
                    span.set(
                        "blocks_fetched", reader.stats.blocks_accessed - blocks_before
                    )
                    span.set("cache_basis", context.basis if context is not None else "off")
                    span.set("exact", source.exact)
                    visible = data_slice.all_visible(statement.txid)
                    span.set("visibility", "summary" if visible else "rows")
    finally:
        reader.end_scan_phase()
    return results


def _install(
    table: Table,
    plan: ScanPlan,
    results: List["_SliceResult"],
    counters: QueryCounters,
) -> None:
    """The barrier: every cache write of the scan, in slice order.

    Slice scans never write the cache; the installs run here, after the
    last slice.  Derived conjunct entries ride the same barrier (RP009:
    the reuse package itself never writes).
    """
    for slice_id, (source, result) in enumerate(zip(plan.sources, results)):
        context = source.context
        if context is None:
            continue
        num_rows = table.slices[slice_id].num_rows
        context.qualifying_rows += len(result.qualifying)
        context.total_rows += num_rows
        # The scan's own outputs are fully evaluated, so they install
        # exact; a conjunct set is every row but the scanned rows its
        # conjunct rejected, handed over as those, and never is.
        installs = []
        if context.join_entry is not None:
            installs.append((context.join_entry, result.qualifying.row_ids, True))
        if context.plain_entry is not None:
            installs.append((context.plain_entry, result.plain_rows(), True))
        for entry, rejected in zip(context.conjunct_entries, result.conjunct_rejected):
            installs.append((entry, rejected, False))
        for entry, rows, exact in installs:
            context.cache.record_slice_scan(
                entry, slice_id, rows, num_rows, exact, rejected=not exact
            )
        if context.basis in ("composed", "subsumed"):
            # The subsumption/composition re-check accounting: candidate
            # rows were re-evaluated, the rest were skipped outright.
            counters.reuse_recheck_rows += result.candidate_rows
            counters.reuse_skipped_rows += num_rows - result.candidate_rows

    if isinstance(plan.predicate, TruePredicate):
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

    Built when the scan is planned and mutated only at the barrier;
    slice scans read ``sources`` (their immutable slice states) and the
    conjunct predicates, nothing else.  ``qualifying_rows``/``total_rows``
    accumulate the per-node policy observation at the barrier.
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
    # The layout rule: no entry of another layout of this table serves.
    cache.check_layout(table)
    cache_join = cache.config.cache_join_keys
    candidate_keys = []
    if join_key is not None and cache_join:
        candidate_keys.append(join_key)
    candidate_keys.append(plain_key)
    # Only a miss decomposes: an exact-match hit derives no conjunct set
    # (its statement derived them when it first ran) and stays exact.
    decomposition = None
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
            if cache.config.enable_reuse and not isinstance(predicate, TruePredicate):
                decomposition = decompose(table.name, predicate)
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
    # entry would qualify every row.  A plain hit installs into the
    # entry its lookup returned; a reuse-served scan evaluates the real
    # predicate over a candidate superset, so its q_plain is exact too.
    if context.basis != "join" and not isinstance(predicate, TruePredicate):
        if context.basis == "plain":
            context.plain_entry = entry
        elif cache.admits(plain_key):
            context.plain_entry = cache.get_or_create(plain_key, table.num_slices)
    # Derived conjunct entries: supersets of each conjunct's truth under
    # any serving basis of a miss.
    if decomposition is not None:
        for conjunct in decomposition.conjuncts:
            if conjunct.key == plain_key or not cache.admits(conjunct.key):
                continue
            context.conjunct_entries.append(
                cache.get_or_create(conjunct.key, table.num_slices)
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


def _exact_state(
    context: Optional[_SliceCacheContext], slice_id: int
) -> Optional[RangeSliceState]:
    """The state an exact hit answers this slice from, or ``None``.

    Only an exact-match hit qualifies: a composed or subsumed serve
    reads other keys' states, which are supersets of this predicate's
    truth.  A hit derives no conjunct set, so nothing asks it to
    evaluate its candidates.  The hit entry's state must itself be
    exact (:mod:`repro.core.entry`), so a range state.
    """
    if context is None or context.basis not in ("plain", "join"):
        return None
    state = context.sources[0].slice_states[slice_id]
    return state if isinstance(state, RangeSliceState) and state.exact else None


@dataclass
class _SliceResult:
    """What one slice scan hands the barrier and the result."""

    #: The qualifying rows, placed by block.
    qualifying: BlockCoverage
    #: The row ids passing the predicate and visibility, before the
    #: probes (what the plain entry installs); ``None`` when they are
    #: the qualifying rows.
    q_plain: Optional[np.ndarray]
    #: The caller's output columns over the qualifying rows.
    materialized: Dict[str, np.ndarray]
    #: Candidate rows this slice actually scanned (post zone-map); for a
    #: reuse-served scan these are the re-checked rows.
    candidate_rows: int
    #: Per derived conjunct, in the order of the context's conjunct
    #: entries: the scanned row ids it (or visibility) rejected.  Its
    #: qualifying set is every other row of the slice, a superset of the
    #: conjunct's truth under any serving basis; the barrier installs it
    #: as these ids.  Empty when the slice derived none.
    conjunct_rejected: List[np.ndarray] = field(default_factory=list)

    def plain_rows(self) -> np.ndarray:
        """What the plain entry installs."""
        return self.qualifying.row_ids if self.q_plain is None else self.q_plain


def _scan_slice(
    data_slice: DataSlice,
    source: SliceSource,
    plan: ScanPlan,
    statement: StatementContext,
) -> _SliceResult:
    """Scan one slice from its source.

    Counts into the statement's counters and reads through its storage
    reader at its snapshot; entry installs wait for the barrier.
    """
    reader = statement.storage
    counters = statement.counters
    num_rows = data_slice.num_rows
    # Zone-map pruning applies on top of a hit too — it is metadata-only
    # and guarantees a hit never scans more than a miss would
    # ("rigorously avoiding slowdowns", §1) — unless the verdict covers
    # every row: no block holding a qualifying candidate can be pruned.
    dropped: Optional[np.ndarray] = None
    if source.verdict_below < num_rows:
        dropped = _prune_with_zonemaps(data_slice, plan.zone_bounds, counters)
    # One block coverage of the candidates serves every column read, the
    # visibility mask, the row ids and (selected down to the qualifying
    # rows) the gather and the result; it leaves the rows of dropped
    # blocks out.  A miss's candidates are the kept blocks and the tail,
    # covered by the block: only a reader expands row ids.  An exact hit
    # whose verdict covers every row brings the coverage its state keeps.
    candidates = source.candidates
    covered = source.placed
    if covered is None:
        covered = data_slice.cover(candidates, dropped)
    n = len(covered)
    if candidates is not None:
        counters.rows_skipped_cache += num_rows - len(candidates)
    # Whether the coverage dropped a candidate (a miss's are its own).
    pruned = candidates is not None and n < len(candidates)
    counters.rows_scanned += n
    if not n:
        return _SliceResult(covered, None, {}, 0)

    # Rows below ``split`` take the state's verdict: they read only what
    # the answer needs — the output columns the predicate reads too (read
    # once, not again for the gather) and, unless the probes' verdict is
    # known there, the probe columns.  ``tail`` holds every scan column
    # for the rows from ``split`` on, which are evaluated.
    split = probe_from = 0
    head = plan.scan_columns
    if source.verdict_below:
        split = int(np.searchsorted(covered.row_ids, source.verdict_below))
        probe_from = split if source.probe_verdict_below else 0
        needed = set(plan.gather_columns)
        if not probe_from:
            needed.update(sj.probe_column for sj in plan.semijoins)
        head = [name for name in head if name in needed or not split]
    batch = _read(data_slice, head, covered, reader)
    tail = batch
    if 0 < split < n:
        tail = _read(
            data_slice,
            [name for name in plan.scan_columns if name not in batch],
            covered.select(slice(split, None)), reader,
        )
        tail.update((name, values[split:]) for name, values in batch.items())
    # A mask of ``None`` passes every row.  It may stand for the
    # predicate only where the coverage dropped no candidate: an exact
    # hit whose tail the zone maps pruned still builds one.
    pred_mask: Optional[np.ndarray] = None
    if split < n or pruned:
        pred_mask = _evaluate(plan.predicate, tail, n - split)
        if split:
            pred_mask = np.concatenate((np.ones(split, dtype=bool), pred_mask))
    vis_mask: Optional[np.ndarray] = None
    if not data_slice.all_visible(statement.txid):
        vis_mask = data_slice.visibility_mask(covered, statement.txid)
    plain_mask = _and(pred_mask, vis_mask)
    full_mask = plain_mask
    probe_batch = tail if probe_from else batch
    for sj in plan.semijoins if probe_from < n else ():
        if full_mask is None:
            full_mask = np.ones(n, dtype=bool)
        # Probe only the rows still qualifying, each filter the previous
        # one's survivors: a row's verdict is its key's, so the mask is
        # the all-rows AND.  The hits go into a fresh mask —
        # ``plain_mask`` stays as it is (``q_plain`` below).
        probed = np.flatnonzero(full_mask[probe_from:])
        keys = stable_int_keys(probe_batch[sj.probe_column][probed])
        hits = sj.bloom.may_contain(keys)
        counters.bloom_probes += len(keys)
        counters.bloom_positives += int(np.count_nonzero(hits))
        passed = np.zeros(n, dtype=bool)
        passed[:probe_from] = full_mask[:probe_from]
        passed[probed[hits] + probe_from] = True
        full_mask = passed
    if full_mask is None or (not pruned and full_mask.all()):
        # The coverage dropped no candidate and every one qualifies (an
        # exact hit with no row deleted since, most often): the coverage
        # is the answer.  With no mask at all that is known without
        # looking at a row.
        qualifying = covered
    else:
        qualifying = covered.select(full_mask)
    # The plain entry installs the qualifying rows when the masks are
    # equal, or when the plain predicate was not evaluated below the
    # watermark (a join basis fills no plain entry, so the barrier never
    # installs those).  Otherwise the probes dropped rows it keeps: all
    # of them when nothing was evaluated and every row is visible.
    q_plain: Optional[np.ndarray] = None
    if full_mask is not plain_mask and not source.probe_verdict_below:
        q_plain = covered.row_ids if plain_mask is None else covered.row_ids[plain_mask]
    result = _SliceResult(qualifying, q_plain, {}, n)
    conjuncts = source.context.conjunct_predicates if source.context else ()
    for conjunct in conjuncts:
        # Per-conjunct qualifying sets for the reuse lattice.  Rows
        # outside the scanned set were not evaluated here, so each set
        # keeps them — a false-positive-only superset of the conjunct's
        # truth whatever basis restricted this scan (zone-map-pruned
        # rows included; they re-prune): every row but the scanned rows
        # the conjunct (or visibility) rejected.
        rejected = ~_evaluate(conjunct, batch, n)
        if vis_mask is not None:
            rejected |= ~vis_mask
        result.conjunct_rejected.append(covered.row_ids[rejected])
    # Materialize the caller's output columns for the qualifying rows,
    # counted in this slice's span.  A column the batch holds for every
    # candidate is taken from it by mask, not read again; the others are
    # read in one round.
    if len(qualifying):
        unread = [name for name in plan.gather_columns if name not in batch]
        read = _read(data_slice, unread, qualifying, reader)
        for name in plan.gather_columns:
            if name in read:
                result.materialized[name] = read[name]
            else:
                result.materialized[name] = (
                    batch[name] if full_mask is None else batch[name][full_mask]
                )
    counters.rows_qualifying += len(qualifying)
    return result


def _read(
    data_slice: DataSlice,
    names: Sequence[str],
    rows: BlockCoverage,
    reader: QueryStorageContext,
) -> Dict[str, np.ndarray]:
    """The named columns' values over ``rows``, in one storage round."""
    if not names:
        return {}
    columns = [data_slice.columns[name] for name in names]
    return dict(zip(names, read_columns(columns, rows, reader)))


def _evaluate(
    predicate: Predicate, batch: Dict[str, np.ndarray], num_rows: int
) -> np.ndarray:
    """The predicate's verdict on the ``num_rows`` rows of ``batch``."""
    if isinstance(predicate, TruePredicate) or not num_rows:
        return np.ones(num_rows, dtype=bool)
    mask = predicate.evaluate(batch)
    if mask.shape == ():  # scalar result of an empty batch
        mask = np.full(num_rows, bool(mask))
    return mask


def _and(
    left: Optional[np.ndarray], right: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """``left & right``, where ``None`` passes every row."""
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _zone_bounds(predicate: Predicate) -> List[Tuple[str, Bounds]]:
    """The predicate's bounds on each column a zone map can prune by."""
    zone_bounds: List[Tuple[str, Bounds]] = []
    for column_name in predicate.columns():
        bounds = predicate.bounds(column_name)
        if bounds is not None and not bounds.unbounded:
            zone_bounds.append((column_name, bounds))
    return zone_bounds


def _prune_with_zonemaps(
    data_slice: DataSlice,
    zone_bounds: List[Tuple[str, Bounds]],
    counters: QueryCounters,
) -> Optional[np.ndarray]:
    """Step 1 of the standard scan: drop blocks by min/max bounds.

    Returns one mask over the slice's sealed blocks — True where some
    predicate column's zone map rules the block out — or ``None`` when
    no block can be skipped.
    """
    dropped: Optional[np.ndarray] = None
    for column_name, bounds in zone_bounds:
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
