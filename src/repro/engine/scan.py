"""The two-step table scan with predicate-cache integration (Fig. 11).

The paper's scan runs once per data slice, the slices in parallel.  Here
one kernel runs it over all of a table scan's slices at once: their rows
lie end to end and every pass runs once.  What the paper keeps per slice
stays per slice: the cache probe's source, zone-map pruning and the
placement of the candidates, the MVCC summary, and the installs.

1. **Cache probe** — the scan offers its join-extended key and its plain
   key to the predicate cache and takes the most selective live entry.
2. **Range restriction** — the plan resolves one immutable
   :class:`SliceSource` per slice: its candidate rows and two verdict
   watermarks.  A miss's candidates are the zone maps' (blocks whose
   bounds can satisfy the predicate, plus the tail), a hit's the cached
   state's rows plus the uncached tail, a composed or subsumed serve's
   the intersection of its parts' rows, less the blocks zone maps drop.
   An exact hit (below) whose watermark reaches the slice's row count
   consults no zone map and takes the placement its state keeps
   (:meth:`~repro.core.entry.RangeSliceState.placed`).
3. **Vectorized scan** — one storage round per read phase reads every
   slice's columns; one pass evaluates the rows at or past each source's
   ``verdict_below``, one per semi-join filter probes its Bloom filter
   from ``probe_verdict_below`` on, and MVCC visibility drops the rest.
   Both watermarks are 0 except on an exact-match hit on an *exact*
   state (never merged, :mod:`repro.core.entry`): it has no false
   positives, so rows below its watermark take its verdict, read only
   the columns the answer needs and, on a join-keyed state, skip the
   probes.  A slice whose MVCC summary says every row is visible
   (:meth:`~repro.storage.slice.DataSlice.all_visible`) builds no mask.
4. **Cache fill** — each slice's qualifying row ids, cut back out of the
   kernel's masks as a :class:`~repro.storage.column.BlockCoverage`
   (``ScanResult.per_slice``, which DELETE and UPDATE read), go to the
   join-extended entry always and to the plain entry whenever the
   scan's candidates cover it: a scan restricted by a *join* entry's
   candidates has not evaluated the bare predicate outside them, while
   one restricted by the *plain* entry covers every join-qualifying row.

With ``enable_reuse`` on (DESIGN.md §14), a full-key miss also consults
the reuse lattice (:mod:`repro.reuse`) for live entries of its cached
conjuncts, or of a wider range on the same column, as sources: their
candidates' intersection is a superset of the truth that step 3
re-evaluates.  A full-key miss derives per-conjunct sets on the way
(every row but the scanned rows the conjunct rejected) and installs
them at the same barrier; an exact-match hit derives none.

:func:`execute_scan` is three coordinator steps:

* **plan** (:func:`_plan_scan`) — step 1, once per cache node through
  the router protocol ``cache.cache_for_slice(slice_id)`` (§4.6), and
  the resolution of step 2's sources.  A dead node's slices, and every
  slice when caching is off, get the default source; a source state
  whose watermark outruns its slice drops its node's source entries.
* **run** (:func:`_run_scan`) — steps 2–3: the kernel.
* **install** (:func:`_install`) — step 4 at the barrier, in slice
  order, and one admission-policy observation per node.
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
from ..storage.column import BlockCoverage, ColumnRead, read_columns
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
    the scan materialized for them."""

    table: Table
    #: Each slice's qualifying rows, placed by block: the coverage the
    #: scan built, which DELETE and UPDATE read as is.
    per_slice: List[BlockCoverage]
    #: The ``gather_columns`` of :func:`execute_scan`, each one array
    #: over every qualifying row, slice after slice.
    materialized: Dict[str, np.ndarray]

    @cached_property
    def num_rows(self) -> int:
        return sum(len(rows) for rows in self.per_slice)

    def gather(self, columns: Sequence[str]) -> Dict[str, np.ndarray]:
        """Assemble the given columns of all qualifying rows.

        Each column must be one of the scan's ``gather_columns``, which
        it read — step (6) of Fig. 11.  The virtual column ``"__rows__"``
        yields a zero array of the right length (``count(*)`` plans).
        """
        if list(columns) == ["__rows__"]:
            return {"__rows__": np.zeros(self.num_rows, dtype=np.int8)}
        return {name: self.materialized[name] for name in columns}


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
            ``cache-lookup`` and per-slice ``scan[slice]`` spans.
        semijoins: Bloom filters pushed down from hash joins (§4.4).
        current_versions: data versions of semi-join build tables, for
            stale-entry rejection.
        gather_columns: output columns the caller will gather from the
            result: ``ScanResult.gather`` takes no other column.  The
            scan reads them for the qualifying rows, before its
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
    results, gathered = _run_scan(table, plan, statement)
    _install(table, plan, results, statement.counters)
    return ScanResult(table, [result.qualifying for result in results], gathered)


@dataclass
class ScanPlan:
    """What the coordinator decided before the kernel runs: built once
    by :func:`_plan_scan`, read by the kernel and the install barrier."""

    plain_key: ScanKey
    #: The join-extended key, when every semi-join filter is describable.
    join_key: Optional[ScanKey]
    predicate: Predicate
    semijoins: Sequence[SemiJoinFilter]
    #: Columns the vectorized scan reads (predicate + probe columns).
    scan_columns: List[str]
    #: Output columns the kernel reads for the qualifying rows.
    gather_columns: List[str]
    #: The predicate's zone-map bounds, per bounded column.
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

    #: The slice's cache node; ``None`` scans the slice cache-off.
    context: Optional["_SliceCacheContext"] = None
    #: Ascending row ids: ``None`` on a miss (the zone maps choose), the
    #: state's rows on a hit, the parts' intersection on a reuse serve.
    candidates: Optional[np.ndarray] = None
    #: The exact hit's watermark, else 0; the same for the probes when
    #: the exact hit is join-keyed, else 0.
    verdict_below: int = 0
    probe_verdict_below: int = 0
    #: Whether the source is an exact hit (the ``exact`` span attribute).
    exact: bool = False
    #: The candidates' coverage an exact hit's state keeps, when its
    #: watermark reaches the slice's row count, else ``None``.
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
    # The predicate the plain key renders: the bound one, or its
    # normalized form when keys are normalized.
    keyed = predicate
    if cache is not None and cache.config.normalize_keys:
        from ..predicates.normalize import normalize

        keyed = normalize(predicate)
    predicate_key = keyed.cache_key()
    plain_key = ScanKey(table.name, predicate_key)
    join_key: Optional[ScanKey] = None
    build_versions: Dict[str, int] = {}
    # A join key must describe *every* filter the scan applies; filters
    # without a descriptor (undescribable build sides) disable it.
    if semijoins and all(sj.descriptor is not None for sj in semijoins):
        descriptors = tuple(sj.descriptor for sj in semijoins)
        join_key = ScanKey(table.name, predicate_key, descriptors)
        for sj in semijoins:
            build_versions.update(sj.build_versions)
    scan_columns = sorted(predicate.columns() | {sj.probe_column for sj in semijoins})
    plan = ScanPlan(
        plain_key, join_key, predicate, semijoins, scan_columns, list(gather_columns),
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
                    node_cache, table, predicate, keyed, plain_key, join_key,
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
    may swap; when its watermark reaches the slice's row count it takes
    the placement the state keeps.  A composed or subsumed serve
    expands the part with the fewest rows and keeps those the other
    parts' masks mark.
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


def _run_scan(
    table: Table, plan: ScanPlan, statement: StatementContext
) -> Tuple[List["_SliceResult"], Dict[str, np.ndarray]]:
    """Steps 2–3 over every slice at once: each slice is pruned and
    covered on its own (:class:`_SlicePart`), then every pass runs once
    over all of their rows.  Returns, in slice order, what the barrier
    installs, and one array per gather column.  The scan is one read of
    the block cache: its rounds stamp their blocks in the order read,
    and eviction waits for its end.  A traced statement gets one
    ``scan[slice N]`` span per slice."""
    reader = statement.storage
    parts: List[_SlicePart] = []
    size = 0
    for data_slice, source in zip(table.slices, plan.sources):
        parts.append(_SlicePart(data_slice, source, plan, statement, size))
        size += parts[-1].n
    active = [part for part in parts if part.n]
    reader.begin_scan_phase()
    try:
        # The head columns over every candidate, then the tail columns
        # over the rows from ``split`` on: one round each.
        values: Dict[str, np.ndarray] = {}
        heads = [p.read(p.head, p.covered, p.start) for p in active if p.head]
        tails = [
            p.read(p.tail, p.covered.select(slice(p.split, None)), p.start + p.split)
            for p in active if p.tail
        ]
        for phase in (heads, tails):
            if phase:
                read_columns(phase, size, reader, values)
        masks = _evaluate_all(plan, active, values, size, statement)
        results = [_split(part, plan, values, masks) for part in parts]
        gathered = _gather(table, plan, parts, results, values, masks.full, reader)
    finally:
        reader.end_scan_phase()
    statement.counters.rows_qualifying += sum(len(r.qualifying) for r in results)
    trace = statement.trace
    for slice_id, part in enumerate(parts if trace is not None else ()):
        with optional_span(
            trace, f"scan[slice {slice_id}]", table=table.name, slice=slice_id
        ) as span:
            span.update(part.counts(len(results[slice_id].qualifying), masks.probes))
            span.set("blocks_fetched", part.fetched)
            context = part.source.context
            span.set("cache_basis", context.basis if context is not None else "off")
            span.set("exact", part.source.exact)
            span.set("visibility", "summary" if part.visible else "rows")
    return results, gathered


def _install(
    table: Table,
    plan: ScanPlan,
    results: List["_SliceResult"],
    counters: QueryCounters,
) -> None:
    """The barrier: every cache write of the scan, in slice order, after
    the kernel.  Derived conjunct entries ride it too (RP009: the reuse
    package itself never writes)."""
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

    Built when the scan is planned and mutated only at the barrier; the
    kernel reads ``sources`` (immutable slice states) and the conjunct
    predicates.  ``qualifying_rows``/``total_rows`` accumulate the
    per-node policy observation at the barrier.
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
    keyed: Predicate,
    plain_key: ScanKey,
    join_key: Optional[ScanKey],
    build_versions: Dict[str, int],
    current_versions: Optional[Mapping[str, int]],
    statement: StatementContext,
) -> _SliceCacheContext:
    """Probe the cache and decide which entries this scan records.
    ``keyed`` is the predicate ``plain_key`` renders."""
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
            context.plain_entry = cache.get_or_create(
                plain_key, table.num_slices, predicate=keyed
            )
    # Derived conjunct entries: supersets of each conjunct's truth under
    # any serving basis of a miss.
    if decomposition is not None:
        for conjunct in decomposition.conjuncts:
            if conjunct.key == plain_key or not cache.admits(conjunct.key):
                continue
            context.conjunct_entries.append(
                cache.get_or_create(
                    conjunct.key, table.num_slices, predicate=conjunct.predicate
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


_Probe = Tuple[Optional[np.ndarray], np.ndarray]  # rows probed (None: all), hits


class _SlicePart:
    """One slice's share of a scan kernel: its candidates' coverage and
    where its rows start in the kernel's arrays.  Built in slice order;
    the slice's pruning and coverage counts go to the counters here."""

    __slots__ = (
        "slice", "source", "covered", "n", "start", "window", "split", "probe_from",
        "head", "tail", "pruned", "visible", "skipped", "pruned_blocks", "fetched",
    )

    def __init__(
        self,
        data_slice: DataSlice,
        source: SliceSource,
        plan: ScanPlan,
        statement: StatementContext,
        start: int,
    ) -> None:
        counters = statement.counters
        num_rows = data_slice.num_rows
        self.slice, self.source, self.start, self.fetched = data_slice, source, start, 0
        # Zone maps prune a hit too, so it never scans more than a miss
        # (§1), unless its verdict covers every row.
        dropped, self.pruned_blocks = None, 0
        if source.verdict_below < num_rows:
            dropped = data_slice.pruned_blocks(plan.zone_bounds)
            if dropped is not None:
                self.pruned_blocks = int(np.count_nonzero(dropped))
                dropped = dropped if self.pruned_blocks else None
        counters.blocks_pruned_zonemap += self.pruned_blocks
        # One coverage of the candidates, less the dropped blocks' rows,
        # serves every read, the visibility mask and the selections (a
        # miss's covers whole blocks and places no row).
        candidates = source.candidates
        covered = source.placed
        if covered is None:
            covered = data_slice.cover(candidates, dropped)
        n = len(covered)
        self.covered, self.n, self.window = covered, n, slice(start, start + n)
        self.skipped = num_rows - len(candidates) if candidates is not None else 0
        counters.rows_skipped_cache += self.skipped
        counters.rows_scanned += n
        # Whether the coverage dropped a candidate (a miss's are its own).
        self.pruned = candidates is not None and n < len(candidates)
        self.visible = data_slice.all_visible(statement.txid)
        # Rows below ``split`` take the state's verdict and read only the
        # ``head``: the output columns the predicate reads too and, unless
        # the probes' verdict is known there, the probe columns.  The rows
        # from ``split`` on read the ``tail`` (the other scan columns) too.
        self.split = self.probe_from = 0
        self.head, self.tail = plan.scan_columns, []
        if n and source.verdict_below:
            # A kept placement lies all below the watermark.
            self.split = split = n if source.placed is not None else int(
                np.searchsorted(covered.row_ids, source.verdict_below)
            )
            self.probe_from = split if source.probe_verdict_below else 0
            needed = set(plan.gather_columns)
            if not self.probe_from:
                needed.update(sj.probe_column for sj in plan.semijoins)
            scan_columns = plan.scan_columns
            self.head = [name for name in scan_columns if name in needed or not split]
            if split < n:
                self.tail = [name for name in scan_columns if name not in self.head]

    def read(self, names: Sequence[str], rows: BlockCoverage, start: int) -> ColumnRead:
        """This slice's part of a storage round: ``names`` over ``rows``."""
        self.fetched += len(names) * len(rows.blocks)
        return [self.slice.columns[name] for name in names], rows, start

    def counts(self, qualifying: int, probes: List[_Probe]) -> Dict[str, int]:
        """This slice's non-zero counts: its span's counter deltas."""
        counts = dict(
            rows_scanned=self.n, rows_qualifying=qualifying, bloom_probes=0,
            bloom_positives=0, blocks_pruned_zonemap=self.pruned_blocks,
            rows_skipped_cache=self.skipped,
        )
        for rows, hits in probes:
            first, last = self.start, self.start + self.n
            if rows is not None:
                first, last = np.searchsorted(rows, (first, last))
            counts["bloom_probes"] += int(last - first)
            counts["bloom_positives"] += int(np.count_nonzero(hits[first:last]))
        return {name: count for name, count in counts.items() if count}


class _Masks(NamedTuple):
    """A kernel's verdicts over all of its rows; ``None`` passes every row."""

    plain: Optional[np.ndarray]  # predicate and visibility (the plain entry's)
    full: Optional[np.ndarray]  # and every probe: the qualifying rows
    visible: Optional[np.ndarray]
    probes: List[_Probe]


def _evaluate_all(
    plan: ScanPlan,
    active: List[_SlicePart],
    values: Dict[str, np.ndarray],
    size: int,
    statement: StatementContext,
) -> _Masks:
    """Evaluate, check visibility and probe every slice's rows at once."""
    counters, txid = statement.counters, statement.txid
    # ``None`` stands for the predicate only where no coverage dropped a
    # candidate: an exact hit whose tail the zone maps pruned builds one.
    pred_mask: Optional[np.ndarray] = None
    if not any(part.split for part in active):
        if active:  # every row is evaluated
            pred_mask = _evaluate(plan.predicate, values, size)
    elif any(part.split < part.n or part.pruned for part in active):
        pred_mask = np.ones(size, dtype=bool)
        spans = [(p.start + p.split, p.start + p.n) for p in active]
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        if len(rows):
            batch = {name: values[name][rows] for name in plan.scan_columns}
            pred_mask[rows] = _evaluate(plan.predicate, batch, len(rows))
    vis_mask: Optional[np.ndarray] = None
    for part in active:
        if not part.visible:
            if vis_mask is None:
                vis_mask = np.ones(size, dtype=bool)
            vis_mask[part.window] = part.slice.visibility_mask(part.covered, txid)
    plain_mask = full_mask = _and(pred_mask, vis_mask)
    probes: List[_Probe] = []
    probing = [part for part in active if part.probe_from < part.n]
    if plan.semijoins and probing:
        # Each filter probes the previous one's survivors (``alive``,
        # ``None`` for all): the all-rows AND, as a row's verdict is its
        # key's.  ``plain_mask`` stays (``q_plain``); rows outside the
        # ``region`` the probes apply to keep their plain verdict.
        region: Optional[np.ndarray] = None
        if len(probing) < len(active) or any(part.probe_from for part in probing):
            region = np.zeros(size, dtype=bool)
            for part in probing:
                region[part.start + part.probe_from : part.start + part.n] = True
        alive = None if region is None else np.flatnonzero(_and(plain_mask, region))
        if region is None and plain_mask is not None:
            alive = np.flatnonzero(plain_mask)
        for sj in plan.semijoins:
            column = values[sj.probe_column]
            keys = stable_int_keys(column if alive is None else column[alive])
            hits = sj.bloom.may_contain(keys)
            counters.bloom_probes += len(keys)
            counters.bloom_positives += int(np.count_nonzero(hits))
            probes.append((alive, hits))
            alive = np.flatnonzero(hits) if alive is None else alive[hits]
        outside = None if region is None else _and(plain_mask, ~region)
        full_mask = np.zeros(size, dtype=bool) if outside is None else outside
        full_mask[alive] = True
    return _Masks(plain_mask, full_mask, vis_mask, probes)


@dataclass
class _SliceResult:
    """What one slice hands the barrier and the result."""

    qualifying: BlockCoverage
    #: The rows passing predicate and visibility before the probes (the
    #: plain entry's), when they differ from the qualifying rows.
    q_plain: Optional[np.ndarray]
    #: Candidate rows scanned (post zone-map): a reuse serve's re-checks.
    candidate_rows: int
    #: Per derived conjunct, in the context's order, the scanned row ids
    #: it (or visibility) rejected: its set is every other row.
    conjunct_rejected: List[np.ndarray] = field(default_factory=list)

    def plain_rows(self) -> np.ndarray:
        """What the plain entry installs."""
        return self.qualifying.row_ids if self.q_plain is None else self.q_plain


def _split(
    part: _SlicePart, plan: ScanPlan, values: Dict[str, np.ndarray], masks: _Masks
) -> _SliceResult:
    """One slice's qualifying rows, plain rows and conjunct sets, cut
    out of the kernel's masks."""
    covered, n, window = part.covered, part.n, part.window
    if not n:
        return _SliceResult(covered, None, 0)
    full = None if masks.full is None else masks.full[window]
    # No mask, or an all-true one where no candidate was dropped: the
    # coverage is the answer (an exact hit, most often).
    qualifying = covered
    if full is not None and (part.pruned or not full.all()):
        qualifying = covered.select(full)
    # Where the probes dropped rows, the plain entry keeps them — unless
    # the probes' verdict was not evaluated (a join basis fills no plain
    # entry) or there is no plain entry to fill.
    context = part.source.context
    q_plain: Optional[np.ndarray] = None
    if (
        masks.full is not masks.plain and part.probe_from < n
        and not part.source.probe_verdict_below
        and context is not None and context.plain_entry is not None
    ):
        plain = masks.plain
        q_plain = covered.row_ids if plain is None else covered.row_ids[plain[window]]
    result = _SliceResult(qualifying, q_plain, n)
    # Per-conjunct sets for the reuse lattice (a miss's: every scan
    # column was read for every row).  A set keeps the rows not scanned —
    # a superset of the conjunct's truth whatever basis restricted the
    # scan: every row but the scanned rows the conjunct (or visibility)
    # rejected.
    for conjunct in context.conjunct_predicates if context is not None else ():
        batch = {name: values[name][window] for name in plan.scan_columns}
        rejected = ~_evaluate(conjunct, batch, n)
        if masks.visible is not None:
            rejected |= ~masks.visible[window]
        result.conjunct_rejected.append(covered.row_ids[rejected])
    return result


def _gather(
    table: Table,
    plan: ScanPlan,
    parts: List[_SlicePart],
    results: List[_SliceResult],
    values: Dict[str, np.ndarray],
    full_mask: Optional[np.ndarray],
    reader: QueryStorageContext,
) -> Dict[str, np.ndarray]:
    """The caller's output columns over every qualifying row, slice after
    slice: one array per column.  A column a slice's head read is taken
    from it by mask, not read again; the others are read in one round,
    each slice's over its qualifying rows."""
    if not plan.gather_columns:
        return {}
    owned: List[Tuple[_SlicePart, BlockCoverage, int]] = []
    size = 0
    for part, result in zip(parts, results):
        if len(result.qualifying):
            owned.append((part, result.qualifying, size))
            size += len(result.qualifying)
    if not size:
        return {
            name: np.empty(0, table.schema.dtype_of(name).numpy_dtype)
            for name in plan.gather_columns
        }
    reads = [
        part.read([c for c in plan.gather_columns if c not in part.head], rows, at)
        for part, rows, at in owned
    ]
    gathered = read_columns([read for read in reads if read[0]], size, reader)
    for name in plan.gather_columns:
        if name not in gathered:  # every qualifying row's slice read it
            taken = values[name]
            gathered[name] = taken if full_mask is None else taken[full_mask]
            continue
        for part, rows, at in owned:
            if name in part.head:
                taken = values[name][part.window]
                if full_mask is not None:
                    taken = taken[full_mask[part.window]]
                gathered[name][at : at + len(rows)] = taken
    return gathered


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
