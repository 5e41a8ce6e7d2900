"""The predicate reuse lattice (DESIGN.md §14).

Three serving paths beyond exact-match lookup: conjunct decomposition,
intersection composition, and subsumption matching.  All of them serve
*supersets* of the true qualifying rows, and ``_scan_slice`` re-checks
every candidate, so the correctness bar is the same differential oracle
as the base cache: a reuse-enabled engine must be bit-identical to a
cache-off twin — rows, ``rows_output``, and ``blocks_accessed`` never
worse — at any worker count, under chaos, across persistence round
trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    FaultInjector,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    RetryPolicy,
    Tracer,
    invariants,
    parse_predicate,
)
from repro.core.entry import PROVENANCES, CacheEntry, RangeSliceState
from repro.core.keys import ScanKey, conjunct_key
from repro.core.rowrange import RangeList
from repro.persist import CacheStore
from repro.persist.format import (
    decode_journal_payload,
    decode_snapshot,
    encode_snapshot,
    encode_state_event,
)
from repro.persist.records import EntryRecord, key_digest
from repro.reuse import bounds_contain, decompose
from repro.reuse.subsume import _single_column_range
from repro.storage import ColumnSpec, DataType, TableSchema

from tests.test_differential import assert_rows_equal

COLUMNS = ("k", "v", "w")
SEED_ROWS = 1500


def reuse_config(variant="range", **overrides):
    return PredicateCacheConfig(variant=variant, enable_reuse=True, **overrides)


def build_twins(config, workers=0, seed_rows=SEED_ROWS, inject=None):
    """Reuse-enabled cached engine vs cache-off twin."""
    engines = []
    for use_cache in (True, False):
        db = Database(num_slices=2, rows_per_block=64)
        db.create_table(
            TableSchema(
                "t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS)
            )
        )
        cache = PredicateCache(config) if use_cache else None
        engine = QueryEngine(db, predicate_cache=cache, scan_workers=workers)
        rng = np.random.default_rng(11)
        engine.insert(
            "t", {c: rng.integers(0, 100, seed_rows) for c in COLUMNS}
        )
        if use_cache and inject is not None:
            db.attach_faults(inject, RetryPolicy(max_attempts=8))
        engines.append(engine)
    return engines


def drilldown_steps(rounds=4, seed=5):
    """Drill-down scan session over t (the SSB shape, smaller data):
    broad single conjunct, then conjunctions, then narrowed repeats."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        k_lo = int(rng.integers(0, 30))
        k_hi = k_lo + int(rng.integers(30, 60))
        v_lo = int(rng.integers(0, 40))
        w_hi = int(rng.integers(40, 90))
        a = f"k between {k_lo} and {k_hi}"
        b = f"v >= {v_lo}"
        c = f"w < {w_hi}"
        out.append(a)
        out.append(f"{a} and {b}")
        out.append(f"{a} and {b} and {c}")
        nk_lo, nk_hi = k_lo + 3, max(k_lo + 3, k_hi - 5)
        na = f"k between {nk_lo} and {nk_hi}"
        nb = f"v >= {v_lo + 2}"
        out.append(na)
        out.append(f"{na} and {nb}")
        out.append(f"{na} and {nb} and {c}")
    return out


#: Cached/requested pairs where the cached predicate's zone-map *hull*
#: contains the request but its truth does not (AND <> -> =, IN -> =,
#: IN -> BETWEEN).  Serving the request from such an entry returns no
#: rows.  The values sit above every range ``drilldown_steps`` caches,
#: and the least selective bad entry goes first, so no sound tighter
#: entry outranks the bad one and masks it.
HULL_SUBSUMPTION_STEPS = [
    "k >= 5 and k <> 93",
    "k = 93",
    "k in (7, 97)",
    "k = 95",
    "k in (3, 99)",
    "k between 90 and 98",
]


def run_drilldown(cached, plain, predicates):
    """Execute the session on both twins, asserting the oracle per query."""
    for i, where in enumerate(predicates):
        for sql in (
            f"select k, v, w from t where {where}",
            f"select count(*) as c, sum(v) as s from t where {where}",
        ):
            ra = cached.execute(sql)
            rb = plain.execute(sql)
            assert_rows_equal(ra.rows(), rb.rows(), f"query {i}: {sql}")
            assert ra.counters.rows_output == rb.counters.rows_output
            assert (
                ra.counters.blocks_accessed <= rb.counters.blocks_accessed
            ), f"query {i}: reuse read more blocks than cache-off ({sql})"


# -- decomposition ------------------------------------------------------------


def test_decompose_splits_conjunctions():
    pred = parse_predicate("k < 50 and v >= 20 and w = 3")
    d = decompose("t", pred, max_conjuncts=8)
    assert d is not None and d.table == "t"
    keys = {c.key.predicate_key for c in d.conjuncts}
    assert len(d.conjuncts) == 3
    assert any("k" in k for k in keys)
    for c in d.conjuncts:
        assert c.key == conjunct_key("t", c.predicate.cache_key())
        assert c.key.semijoins == ()


def test_decompose_rejects_trivial_and_oversized():
    from repro.predicates.ast import TruePredicate

    assert decompose("t", TruePredicate(), 8) is None
    # Contradictions normalize to FalsePredicate — also undecomposable.
    assert decompose("t", parse_predicate("k < 5 and k > 10"), 8) is None
    pred = parse_predicate("k < 50 and v < 50 and w < 50")
    assert decompose("t", pred, max_conjuncts=2) is None


def test_decompose_dedups_repeated_conjuncts():
    pred = parse_predicate("k < 50 and k < 50 and v >= 1")
    d = decompose("t", pred, max_conjuncts=8)
    assert d is not None
    keys = [c.key.predicate_key for c in d.conjuncts]
    assert len(keys) == len(set(keys))


# -- subsumption --------------------------------------------------------------


def test_bounds_containment():
    def bounds_of(expr):
        parsed = _single_column_range(parse_predicate(expr).cache_key())
        assert parsed is not None, expr
        return parsed[1]

    wide = bounds_of("k between 10 and 90")
    narrow = bounds_of("k between 20 and 80")
    assert bounds_contain(wide, narrow)
    assert not bounds_contain(narrow, wide)
    # Half-open containment and strictness at the edges.
    assert bounds_contain(bounds_of("k < 50"), bounds_of("k < 50"))
    assert bounds_contain(bounds_of("k <= 50"), bounds_of("k < 50"))
    assert not bounds_contain(bounds_of("k < 50"), bounds_of("k <= 50"))
    assert bounds_contain(bounds_of("k >= 10"), bounds_of("k between 10 and 20"))
    assert not bounds_contain(bounds_of("k >= 30"), bounds_of("k between 10 and 20"))


def test_single_column_range_rejects_multi_column_and_unbounded():
    assert _single_column_range(parse_predicate("k < v").cache_key()) is None
    assert _single_column_range(parse_predicate("k < 5 or v < 5").cache_key()) is None


# -- provenance plumbing ------------------------------------------------------


def test_invariants_provenance_tuple_mirrors_entry_module():
    assert invariants._PROVENANCES == PROVENANCES


def test_cache_entry_validates_provenance():
    key = ScanKey("t", "k < 5")
    entry = CacheEntry(key, 2, {}, provenance="conjunct")
    assert entry.provenance == "conjunct" and entry.source_digests == ()
    with pytest.raises(ValueError):
        CacheEntry(key, 2, {}, provenance="psychic")


class _EntryOverride:
    """A cache entry with some attributes forced (CacheEntry is slotted,
    so the bad states the invariant must catch are staged via a proxy)."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class _CacheView:
    """The real cache with a substituted entries() listing."""

    def __init__(self, cache, entries):
        self._cache = cache
        self._entries = entries

    def entries(self):
        return self._entries

    def __getattr__(self, name):
        return getattr(self._cache, name)


def test_invariant_rejects_bad_provenance_sources():
    cache = PredicateCache(reuse_config())
    entry = cache.get_or_create(ScanKey("t", "k < 5"), 2, {})
    cache.record_slice_scan(entry, 0, RangeList.from_bounds(
        np.array([[0, 4]], dtype=np.int64)), 10)
    invariants.check_cache(cache)  # healthy

    # Derived provenance without sources.
    bad = _CacheView(cache, [_EntryOverride(entry, provenance="composed")])
    with pytest.raises(invariants.InvariantViolation, match="source digests"):
        invariants.check_cache(bad)

    # Primary provenance carrying sources.
    bad = _CacheView(
        cache, [_EntryOverride(entry, provenance="scan", source_digests=(123,))]
    )
    with pytest.raises(invariants.InvariantViolation, match="carries source"):
        invariants.check_cache(bad)

    # Unknown provenance tag.
    bad = _CacheView(cache, [_EntryOverride(entry, provenance="psychic")])
    with pytest.raises(invariants.InvariantViolation, match="unknown provenance"):
        invariants.check_cache(bad)


def test_derived_entries_do_not_double_count_budget():
    """A reuse serve reads its source entries' states in place and
    stores nothing of its own, so serving from composition adds zero
    bytes; only real installs count."""
    cached, plain = build_twins(reuse_config())
    cache = cached.predicate_cache
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    assert cache.reuse_stats.serves > 0
    for entry in cache.entries():
        assert type(entry) is CacheEntry
    assert cache.total_nbytes == sum(e.nbytes for e in cache.entries())
    invariants.check_cache(cache)


def test_composed_serve_drops_every_source_when_one_is_stale():
    """One source's watermark outruns its slice (a missed
    invalidation): the scan drops *every* entry it was composed from
    and scans in full, with the cache-off twin's answer."""
    cached, plain = build_twins(reuse_config("range"))
    cache = cached.predicate_cache
    for where in ("k < 50", "v >= 20"):
        cached.execute(f"select count(*) as c from t where {where}")
    sources = cache.entries()
    assert len(sources) == 2
    for state in sources[1].slice_states:
        state.last_cached_row = 10**9

    sql = "select count(*) as c from t where k < 50 and v >= 20"
    result = cached.execute(sql)
    assert result.scalar() == plain.execute(sql).scalar()
    assert cache.reuse_stats.composed_serves == 1
    assert result.counters.degraded_scans == 1
    assert cache.stats.invalidations == 2
    assert not any(source.key in cache for source in sources)
    invariants.check_cache(cache)


def test_reuse_serve_lookup_span_reports_no_entry_stats():
    """A reuse serve has no single entry: its cache-lookup span carries
    the outcome and basis only, while an exact hit adds the entry's
    selectivity and size."""
    db = Database(num_slices=2, rows_per_block=64)
    db.create_table(
        TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
    )
    engine = QueryEngine(
        db, predicate_cache=PredicateCache(reuse_config()), tracer=Tracer()
    )
    rng = np.random.default_rng(3)
    engine.insert("t", {c: rng.integers(0, 100, 500) for c in COLUMNS})
    engine.execute("select count(*) as c from t where k < 50")

    def lookup_attrs(where):
        trace = engine.execute(f"select count(*) as c from t where {where}").trace
        return trace.find("cache-lookup").attrs

    served = lookup_attrs("k < 50 and v >= 20")
    assert served["outcome"] == "reuse-composed"
    assert "entry_selectivity" not in served and "entry_nbytes" not in served
    hit = lookup_attrs("k < 50")
    assert hit["outcome"] == "hit"
    assert "entry_selectivity" in hit and hit["entry_nbytes"] > 0


# -- the oracle: drill-down session at several worker counts ------------------


@pytest.mark.parametrize("workers", [0, 2, 8])
@pytest.mark.parametrize("variant", ["range", "bitmap"])
def test_drilldown_bit_identical_and_reuse_exercised(variant, workers):
    cached, plain = build_twins(reuse_config(variant), workers=workers)
    run_drilldown(cached, plain, drilldown_steps(rounds=4))
    run_drilldown(cached, plain, HULL_SUBSUMPTION_STEPS)
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.composed_serves > 0, "workload never composed — vacuous"
    assert reuse.subsumed_serves > 0, "workload never subsumed — vacuous"
    assert reuse.conjunct_hits > 0
    invariants.check_cache(cached.predicate_cache)


def test_worker_counts_agree_on_counters():
    """Reuse serving is bit-identical serial vs parallel, including the
    recheck/skip accounting done at the coordinator barrier."""
    outcomes = []
    for workers in (0, 2, 8):
        cached, plain = build_twins(reuse_config(), workers=workers)
        run_drilldown(cached, plain, drilldown_steps(rounds=3))
        reuse = cached.predicate_cache.reuse_stats
        outcomes.append(
            (
                reuse.composed_serves,
                reuse.subsumed_serves,
                reuse.conjunct_hits,
                reuse.recheck_rows,
                reuse.skipped_rows,
            )
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_reuse_off_by_default_and_stats_stay_pure():
    """Exact-match stats (paper Fig 13) are unchanged by the lattice:
    a reuse-served scan still counts as an exact-match miss."""
    cached, plain = build_twins(PredicateCacheConfig())
    assert cached.predicate_cache.config.enable_reuse is False
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.composed_serves == 0 and reuse.subsumed_serves == 0

    cached2, plain2 = build_twins(reuse_config())
    run_drilldown(cached2, plain2, drilldown_steps(rounds=2))
    stats = cached2.predicate_cache.stats
    reuse2 = cached2.predicate_cache.reuse_stats
    assert reuse2.serves > 0
    # Every reuse serve is still an exact-match miss underneath.
    assert stats.misses >= reuse2.serves


# -- hypothesis property: random conjunctive sessions -------------------------

conjunct_strategy = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from(["<", "<=", ">=", ">"]),
    st.integers(0, 100),
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scans=st.lists(
        st.lists(conjunct_strategy, min_size=1, max_size=3),
        min_size=3,
        max_size=12,
    ),
    workers=st.sampled_from([0, 2]),
)
def test_random_conjunctive_scans_never_diverge(scans, workers):
    cached, plain = build_twins(
        reuse_config(), workers=workers, seed_rows=500
    )
    for i, conjuncts in enumerate(scans):
        where = " and ".join(f"{c} {op} {val}" for c, op, val in conjuncts)
        sql = f"select k, v, w from t where {where}"
        ra = cached.execute(sql)
        rb = plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), f"scan {i}: {sql}")
        assert ra.counters.blocks_accessed <= rb.counters.blocks_accessed
    invariants.check_cache(cached.predicate_cache)


# -- chaos: reuse serving under fault injection -------------------------------


def test_drilldown_under_chaos_with_dml():
    """Faults on the cached twin only; drill-down scans interleaved
    with inserts, deletes, and vacuums.  Zero divergence."""
    injector = FaultInjector(
        seed=17,
        error_rate=0.05,
        corruption_rate=0.01,
        latency_rate=0.0,
    )
    cached, plain = build_twins(reuse_config(), inject=injector)
    rng = np.random.default_rng(23)
    predicates = drilldown_steps(rounds=3, seed=9)
    for i, where in enumerate(predicates):
        sql = f"select k, v, w from t where {where}"
        ra = cached.execute(sql)
        rb = plain.execute(sql)
        assert_rows_equal(ra.rows(), rb.rows(), f"chaos query {i}: {sql}")
        if i % 4 == 1:
            seed = int(rng.integers(0, 2**16))
            for engine in (cached, plain):
                r = np.random.default_rng(seed)
                engine.insert(
                    "t", {c: r.integers(0, 100, 40) for c in COLUMNS}
                )
        elif i % 4 == 3:
            value = int(rng.integers(0, 100))
            na = cached.delete_where("t", parse_predicate(f"k = {value}"))
            nb = plain.delete_where("t", parse_predicate(f"k = {value}"))
            assert na == nb
        elif i % 8 == 6:
            cached.vacuum(["t"])
            plain.vacuum(["t"])
    assert (
        injector.errors_injected + injector.corruptions_injected > 0
    ), "chaos was vacuous"
    reuse = cached.predicate_cache.reuse_stats
    assert reuse.serves > 0 or reuse.conjunct_hits > 0
    invariants.check_cache(cached.predicate_cache)


# -- persistence: derived entries survive round trips -------------------------


def derived_record():
    key = ScanKey("t", "k < 50 and v >= 20")
    sources = (
        key_digest(conjunct_key("t", "k < 50")),
        key_digest(conjunct_key("t", "v >= 20")),
    )
    entry = CacheEntry(
        key, 2, {}, provenance="composed", source_digests=sources
    )
    entry.slice_states[0] = RangeSliceState(RangeList([(0, 10), (20, 32)]), 40, 16)
    return EntryRecord.from_entry(entry, table_layout=0)


def test_snapshot_round_trip_preserves_provenance():
    record = derived_record()
    decoded, _meta, issues = decode_snapshot(
        encode_snapshot({record.digest: record})
    )
    assert issues.clean
    got = decoded[record.digest]
    assert got == record
    assert got.provenance == "composed"
    assert got.source_digests == record.source_digests


def test_journal_event_round_trip_preserves_provenance():
    record = derived_record()
    payload = encode_state_event(record, 0, record.states[0])
    op, meta, slice_id, state = decode_journal_payload(payload)
    assert op == "state" and slice_id == 0
    assert meta.provenance == "composed"
    assert meta.source_digests == record.source_digests
    assert state == record.states[0]


def test_store_hydrate_restores_provenance(tmp_path):
    record = derived_record()
    conjunct = EntryRecord.from_entry(
        CacheEntry(conjunct_key("t", "k < 50"), 2, {}, provenance="conjunct"),
        table_layout=0,
    )
    conjunct.states[0] = record.states[0]
    store = CacheStore(tmp_path)
    assert store.snapshot_records(
        {record.digest: record, conjunct.digest: conjunct}
    )
    cache = PredicateCache(reuse_config())
    restored = CacheStore(tmp_path).attach(cache)
    assert restored == 2
    by_key = {e.key.key(): e for e in cache.entries()}
    composed = by_key[record.key.key()]
    assert composed.provenance == "composed"
    assert composed.source_digests == record.source_digests
    assert by_key[conjunct.key.key()].provenance == "conjunct"
    invariants.check_cache(cache)


def test_v1_snapshot_decodes_with_default_provenance():
    """A version-1 snapshot (no provenance bytes) loads cleanly with
    every entry tagged ``scan`` — forward compatibility."""
    import struct

    from repro.persist import format as fmt

    record = EntryRecord.from_entry(
        CacheEntry(ScanKey("t", "k < 9"), 1, {}), table_layout=0
    )
    record.states[0] = derived_record().states[0]
    buf = bytearray()
    fmt._encode_meta(buf, record)
    meta_v1 = bytes(buf[: len(buf) - 5])  # strip provenance + count
    state_buf = bytearray(struct.pack("<I", 1))
    fmt._encode_state(state_buf, 0, record.states[0])
    snap = (
        fmt._HEADER.pack(fmt.SNAPSHOT_MAGIC, 1, 0, 0)
        + fmt._section(fmt.SECTION_META, b"{}")
        + fmt._section(fmt.SECTION_ENTRY, meta_v1 + bytes(state_buf))
        + fmt._section(fmt.SECTION_END, b"")
    )
    decoded, _meta, issues = fmt.decode_snapshot(snap)
    assert issues.clean
    got = decoded[record.digest]
    assert got.provenance == "scan" and got.source_digests == ()
    assert got == record


def test_reuse_survives_snapshot_restart():
    """Warm-started cache keeps serving composition/subsumption from
    restored conjunct entries."""
    cached, plain = build_twins(reuse_config())
    run_drilldown(cached, plain, drilldown_steps(rounds=2))
    from repro.persist.records import collect_records

    records = collect_records([cached.predicate_cache])
    payload = encode_snapshot(records)
    decoded, _meta, issues = decode_snapshot(payload)
    assert issues.clean
    for digest, record in records.items():
        assert decoded[digest] == record
    provenances = {r.provenance for r in decoded.values()}
    assert "scan" in provenances  # plain installs happened


# -- metrics ------------------------------------------------------------------


def test_reuse_metrics_registered():
    from repro.obs import MetricsRegistry

    cache = PredicateCache(reuse_config())
    registry = MetricsRegistry()
    cache.register_metrics(registry)
    names = set(registry.names())
    for field in (
        "conjunct_lookups",
        "conjunct_hits",
        "composed_serves",
        "subsumed_serves",
        "recheck_rows",
        "skipped_rows",
    ):
        assert any(field in n and "reuse" in n for n in names), (field, names)


def test_reuse_counters_surface_on_query_results():
    cached, plain = build_twins(reuse_config())
    totals = {"reuse_composed_serves": 0, "reuse_subsumed_serves": 0}
    for where in drilldown_steps(rounds=3):
        counters = cached.execute(
            f"select count(*) as c from t where {where}"
        ).counters
        plain.execute(f"select count(*) as c from t where {where}")
        for name in totals:
            totals[name] += getattr(counters, name)
        if counters.reuse_composed_serves or counters.reuse_subsumed_serves:
            assert (
                counters.reuse_recheck_rows + counters.reuse_skipped_rows > 0
            )
    reuse = cached.predicate_cache.reuse_stats
    assert totals["reuse_composed_serves"] == reuse.composed_serves
    assert totals["reuse_subsumed_serves"] == reuse.subsumed_serves
