"""The two-step scan with predicate-cache integration (Fig. 11).

The central correctness property: for any data, any predicate, and any
sequence of scans/DML, a cached repeat returns exactly the same rows as
a cold scan — cached false positives are re-filtered, nothing is lost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCaches
from repro.core import PredicateCache, PredicateCacheConfig
from repro.core.entry import RangeSliceState
from repro.core.keys import ScanKey, SemiJoinDescriptor
from repro.engine.bloom import BloomFilter
from repro.engine.hashing import stable_int_keys
from repro.engine.scan import SemiJoinFilter, SliceSource, _plan_scan, execute_scan
from repro.engine.statement import StatementContext
from repro.predicates import TruePredicate, parse_predicate
from repro.storage import ColumnSpec, Database, DataType, TableSchema
from repro.storage.slice import DataSlice
from repro.storage.zonemap import ZoneMap


def make_table(values, num_slices=2, rows_per_block=10):
    db = Database(num_slices=num_slices, rows_per_block=rows_per_block)
    db.create_table(
        TableSchema("t", (ColumnSpec("x", DataType.INT64), ColumnSpec("y", DataType.INT64)))
    )
    values = np.asarray(values, dtype=np.int64)
    db.table("t").insert({"x": values, "y": values * 2}, db.begin())
    return db


def scan_rows(db, predicate, cache=None):
    statement = StatementContext(db.begin(), db.rms, cache=cache)
    result = execute_scan(db.table("t"), predicate, statement, gather_columns=["x"])
    xs = result.gather(["x"])["x"]
    return sorted(xs.tolist()), statement.counters


class TestScanCorrectness:
    def test_filter_matches_brute_force(self):
        values = np.random.default_rng(0).integers(0, 100, 500)
        db = make_table(values)
        pred = parse_predicate("x < 30")
        rows, _ = scan_rows(db, pred)
        assert rows == sorted(v for v in values.tolist() if v < 30)

    def test_repeat_scan_identical_results(self):
        values = np.random.default_rng(1).integers(0, 50, 300)
        db = make_table(values)
        cache = PredicateCache()
        pred = parse_predicate("x between 10 and 20")
        first, c1 = scan_rows(db, pred, cache)
        second, c2 = scan_rows(db, pred, cache)
        assert first == second
        assert c2.cache_hits == 1

    def test_cache_hit_never_scans_more(self):
        """The paper's no-slowdown guarantee."""
        values = np.sort(np.random.default_rng(2).integers(0, 1000, 2000))
        db = make_table(values)
        cache = PredicateCache(PredicateCacheConfig(bitmap_block_rows=10))
        pred = parse_predicate("x between 100 and 150")
        _, cold = scan_rows(db, pred, cache)
        _, warm = scan_rows(db, pred, cache)
        assert warm.rows_scanned <= cold.rows_scanned

    def test_zone_map_pruning_counts(self):
        values = np.arange(1000)  # perfectly clustered
        db = make_table(values, num_slices=1, rows_per_block=100)
        pred = parse_predicate("x between 250 and 260")
        _, counters = scan_rows(db, pred)
        # Blocks, not merged runs: 10 sealed blocks, only [200, 300) kept
        # (the pruned ones form two runs of adjacent blocks).
        assert counters.blocks_pruned_zonemap == 9
        assert counters.rows_scanned == 100

    def test_true_predicate_scans_everything_without_caching(self):
        db = make_table(np.arange(100))
        cache = PredicateCache()
        rows, _ = scan_rows(db, TruePredicate(), cache)
        assert len(rows) == 100
        assert len(cache) == 0  # unfiltered scans are not cached


# Per-statement counters of one fixed scenario, captured at the commit
# before zone-map pruning became a block mask inside the coverage: the
# same rows are scanned and the same blocks read, whatever does the
# bookkeeping in between.  (rows_scanned, rows_skipped_cache,
# blocks_accessed, rows_qualifying) for cold, cached repeat, repeat
# after an append.  The output column ``y`` is also a predicate column,
# so the gather takes it from the scan's batch by mask: no block of ``y``
# is read twice.
PINNED_SCAN_COUNTERS = {
    # Two coalesced ranges per slice span blocks the zone maps drop.
    "range": [(700, 0, 24, 360), (440, 3260, 24, 360), (540, 3260, 32, 380)],
    # 20-row bits straddle the 50-row storage blocks.
    "bitmap": [(700, 0, 24, 360), (440, 3620, 24, 360), (540, 3620, 32, 380)],
}


@pytest.mark.parametrize("variant", ["range", "bitmap"])
def test_pinned_counters_of_a_pruned_conjunction(variant):
    from repro import QueryEngine

    db = Database(num_slices=4, rows_per_block=50)
    db.create_table(
        TableSchema("t", (ColumnSpec("x", DataType.INT64), ColumnSpec("y", DataType.INT64)))
    )
    config = PredicateCacheConfig(
        variant=variant, max_ranges_per_slice=2, bitmap_block_rows=20
    )
    engine = QueryEngine(db, predicate_cache=PredicateCache(config))
    ids = np.arange(4_100)
    engine.insert("t", {"x": ids // 120 % 5, "y": ids})
    # x's zone maps prune inside the y window; y's prune outside it.
    sql = "select count(*) as c, sum(y) as s from t where x < 1 and y between 1000 and 2999"
    statements = [engine.execute(sql), engine.execute(sql)]
    # 75 rows per slice, sealing two more blocks each: the first 100 rows
    # may qualify, the rest cannot (y) and their block is pruned on the hit.
    more = np.arange(300)
    engine.insert("t", {"x": more % 5, "y": np.where(more < 100, 2000 + more, 9000)})
    statements.append(engine.execute(sql))
    assert [r.counters.cache_hits for r in statements] == [0, 1, 1]
    assert [
        (
            r.counters.rows_scanned, r.counters.rows_skipped_cache,
            r.counters.blocks_accessed, r.counters.rows_qualifying,
        )
        for r in statements
    ] == PINNED_SCAN_COUNTERS[variant]
    assert [(r.column("c")[0], r.column("s")[0]) for r in statements] == [
        (360, 669420.0), (360, 669420.0), (380, 710370.0),
    ]
    # One count per dropped block per slice scan: 17 of 20 sealed blocks,
    # 18 of 22 after the append.
    assert [r.counters.blocks_pruned_zonemap for r in statements] == [68, 68, 72]


class TestScanUnderDML:
    def test_inserts_extend_entries_without_invalidation(self):
        """§4.3.1: appended rows are scanned normally, entry extended."""
        db = make_table(np.arange(100), num_slices=1)
        cache = PredicateCache(PredicateCacheConfig(variant="range"))
        pred = parse_predicate("x < 10")
        scan_rows(db, pred, cache)
        entry = list(cache.entries())[0]
        watermark = entry.slice_states[0].last_cached_row
        db.table("t").insert({"x": np.array([5, 500]), "y": np.array([10, 1000])}, db.begin())
        rows, counters = scan_rows(db, pred, cache)
        assert rows == sorted(list(range(10)) + [5])
        assert counters.cache_hits == 1
        assert entry.slice_states[0].last_cached_row > watermark

    def test_deletes_filtered_by_visibility(self):
        """§4.3.2: deleted rows inside cached ranges vanish via MVCC."""
        db = make_table(np.arange(100), num_slices=1)
        cache = PredicateCache()
        pred = parse_predicate("x < 10")
        scan_rows(db, pred, cache)
        db.table("t").delete_local_rows(0, np.array([3, 4]), db.begin())
        rows, counters = scan_rows(db, pred, cache)
        assert rows == [0, 1, 2, 5, 6, 7, 8, 9]
        assert counters.cache_hits == 1  # entry still valid

    def test_vacuum_invalidates_then_rebuilds(self):
        db = make_table(np.arange(100), num_slices=1)
        cache = PredicateCache()
        pred = parse_predicate("x < 10")
        scan_rows(db, pred, cache)
        (stale,) = cache.entries()
        db.table("t").delete_local_rows(0, np.array([0]), db.begin())
        db.table("t").vacuum(db.horizon_txid)
        assert cache.stats.invalidations == 0  # a write calls no cache
        rows, counters = scan_rows(db, pred, cache)
        assert rows == list(range(1, 10))
        assert counters.cache_misses == 1
        assert cache.stats.invalidations == 1
        assert cache.entries()[0] is not stale
        rows2, c2 = scan_rows(db, pred, cache)
        assert rows2 == rows and c2.cache_hits == 1

    def test_update_as_delete_plus_insert_stays_correct(self):
        """§4.3.3: out-of-place updates keep cached entries valid."""
        db = make_table(np.arange(50), num_slices=1)
        cache = PredicateCache()
        pred = parse_predicate("x < 5")
        scan_rows(db, pred, cache)
        # "Update" row with x=2 to x=200: delete + append.
        tx = db.begin()
        db.table("t").delete_local_rows(0, np.array([2]), tx)
        db.table("t").insert({"x": [200], "y": [400]}, tx)
        rows, counters = scan_rows(db, pred, cache)
        assert rows == [0, 1, 3, 4]
        assert counters.cache_hits == 1


def test_an_exact_hit_recomputes_nothing_it_already_knows(monkeypatch):
    """A warm exact hit with no tail on a slice where every row is
    visible consults no zone map and builds no visibility mask; a tail
    brings the zone maps back, a delete the mask, and a vacuum (after
    the rebuilding miss) takes both away again."""
    calls = {"zonemap": 0, "visibility": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ZoneMap, "pruned_blocks", counting("zonemap", ZoneMap.pruned_blocks)
    )
    monkeypatch.setattr(
        DataSlice, "visibility_mask", counting("visibility", DataSlice.visibility_mask)
    )

    def scan():
        calls.update(zonemap=0, visibility=0)
        return scan_rows(db, pred, cache)

    db = make_table(np.arange(400), num_slices=4)
    table = db.table("t")
    cache = PredicateCache(PredicateCacheConfig(variant="range"))
    pred = parse_predicate("x between 100 and 150")
    cold_rows, cold = scan()
    assert cold.cache_misses == 1 and cold.blocks_pruned_zonemap > 0
    assert calls == {"zonemap": 4, "visibility": 0}

    # 1. Warm exact hit, no tail, every row visible.
    rows, counters = scan()
    assert rows == cold_rows == list(range(100, 151))
    assert counters.cache_hits == 1
    assert all(state.exact for state in cache.entries()[0].slice_states)
    assert calls == {"zonemap": 0, "visibility": 0}
    assert counters.blocks_pruned_zonemap == 0

    # 2. An INSERT gives every slice a tail: the hit prunes again.
    table.insert({"x": [125, 999, 130, 7], "y": [0, 0, 0, 0]}, db.begin())
    rows, counters = scan()
    assert rows == sorted(list(range(100, 151)) + [125, 130])
    assert counters.cache_hits == 1
    assert calls == {"zonemap": 4, "visibility": 0}

    # 3. A DELETE: the deleting slice computes the mask, the row is gone.
    (local,) = np.flatnonzero(table.slices[0].columns["x"].read_all(db.rms) == 120)
    table.delete_local_rows(0, np.array([local]), db.begin())
    rows, counters = scan()
    assert 120 not in rows and len(rows) == 52
    assert counters.cache_hits == 1
    assert calls == {"zonemap": 0, "visibility": 1}

    # 4. The scan after a VACUUM drops the entry; after that rebuilding
    # miss, both skips are back.
    table.vacuum(db.horizon_txid)
    miss_rows, counters = scan()
    assert counters.cache_misses == 1 and calls == {"zonemap": 4, "visibility": 0}
    rows, counters = scan()
    assert rows == miss_rows and counters.cache_hits == 1
    assert calls == {"zonemap": 0, "visibility": 0}
    assert counters.blocks_pruned_zonemap == 0


class TestSliceSources:
    """Every serving basis resolves, at plan time, to one source per
    slice: candidates plus two verdict watermarks."""

    PRED = "x between 100 and 150"

    def setup_method(self):
        self.db = make_table(np.arange(400), num_slices=4)
        self.table = self.db.table("t")

    def sources(self, cache, predicate=PRED, semijoins=()):
        statement = StatementContext(self.db.begin(), self.db.rms, cache=cache)
        plan = _plan_scan(
            self.table, parse_predicate(predicate), semijoins, None, (), statement
        )
        return plan.sources

    def warm(self, cache, predicate=PRED, semijoins=()):
        statement = StatementContext(self.db.begin(), self.db.rms, cache=cache)
        execute_scan(self.table, parse_predicate(predicate), statement, semijoins)

    def num_rows(self, slice_id):
        return self.table.slices[slice_id].num_rows

    def range_cache(self, **config):
        return PredicateCache(PredicateCacheConfig(variant="range", **config))

    def assert_served(self, source, verdict_below=0, probe_verdict_below=0):
        assert source.context is not None and source.candidates is not None
        assert source.verdict_below == verdict_below
        assert source.probe_verdict_below == probe_verdict_below
        assert source.exact is (verdict_below > 0)

    def test_cache_off_and_a_down_node_scan_from_the_default_source(self):
        assert self.sources(None) == [SliceSource()] * 4
        cluster = ClusterCaches(2, PredicateCacheConfig(variant="range"))
        self.warm(cluster)
        cluster.kill_node(0)
        sources = self.sources(cluster)
        assert sources[0] == sources[2] == SliceSource()
        for slice_id in (1, 3):
            self.assert_served(sources[slice_id], self.num_rows(slice_id))

    def test_a_miss_lets_the_zone_maps_choose(self):
        sources = self.sources(self.range_cache())
        assert all(s.context is not None and s.candidates is None for s in sources)
        assert all(s.verdict_below == s.probe_verdict_below == 0 for s in sources)

    def test_an_exact_hit_takes_the_verdict_below_its_watermark(self):
        cache = self.range_cache()
        self.warm(cache)
        (entry,) = cache.entries()
        for data_slice, state, source in zip(
            self.table.slices, entry.slice_states, self.sources(cache)
        ):
            self.assert_served(source, data_slice.num_rows)
            assert np.array_equal(source.candidates, state.rows(data_slice.num_rows))
        # After an INSERT the verdict still ends at the old watermark.
        before = [s.num_rows for s in self.table.slices]
        self.table.insert({"x": [125, 999, 130, 7], "y": [0] * 4}, self.db.begin())
        assert [s.num_rows for s in self.table.slices] != before
        for rows, source in zip(before, self.sources(cache)):
            self.assert_served(source, rows)

    def test_a_join_keyed_exact_hit_also_takes_the_probe_verdict(self):
        bloom = BloomFilter(expected_items=16)
        bloom.add_many(stable_int_keys(np.arange(100, 120)))
        semijoins = [
            SemiJoinFilter("x", bloom, SemiJoinDescriptor("d = x", "d", "d < 20"))
        ]
        cache = self.range_cache()
        self.warm(cache, semijoins=semijoins)
        for data_slice, source in zip(
            self.table.slices, self.sources(cache, semijoins=semijoins)
        ):
            assert source.context.basis == "join"
            rows = data_slice.num_rows
            self.assert_served(source, rows, probe_verdict_below=rows)

    def test_merged_and_bitmap_states_re_check_every_candidate(self):
        db = make_table(np.arange(400) % 10, num_slices=4)
        self.table, self.db = db.table("t"), db
        for cache in (
            self.range_cache(max_ranges_per_slice=2),
            PredicateCache(
                PredicateCacheConfig(variant="bitmap", bitmap_block_rows=8)
            ),
        ):
            self.warm(cache, "x < 5")
            (entry,) = cache.entries()
            assert not any(state.exact for state in entry.slice_states)
            for source in self.sources(cache, "x < 5"):
                assert source.context.basis == "plain"
                self.assert_served(source)

    def test_a_hit_with_reuse_on_derives_nothing_and_takes_the_verdict(self):
        cache = self.range_cache(enable_reuse=True)
        predicate = "x < 30 and y > 4"
        self.warm(cache, predicate)
        hit = cache.lookup(_plan_key(self.table, predicate))
        assert all(state.exact for state in hit.slice_states)
        sources = self.sources(cache, predicate)
        for data_slice, source in zip(self.table.slices, sources):
            assert source.context.basis == "plain"
            assert not source.context.conjunct_predicates
            assert not source.context.conjunct_entries
            self.assert_served(source, data_slice.num_rows)

    @pytest.mark.parametrize(
        "parts, basis",
        [(("x < 30", "y > 10"), "composed"), (("x < 50", "y > 10"), "subsumed")],
    )
    def test_a_reuse_serve_intersects_its_parts_at_plan_time(self, parts, basis):
        cache = self.range_cache(enable_reuse=True)
        for part in parts:
            self.warm(cache, part)
        entries = [cache.lookup(_plan_key(self.table, part)) for part in parts]
        for slice_id, (data_slice, source) in enumerate(
            zip(self.table.slices, self.sources(cache, "x < 30 and y > 10"))
        ):
            assert source.context.basis == basis
            rows = data_slice.num_rows
            first, second = (
                set(entry.slice_states[slice_id].rows(rows).tolist())
                for entry in entries
            )
            assert source.candidates.tolist() == sorted(first & second)
            self.assert_served(source)

    def test_a_stale_state_sends_every_slice_of_its_node_to_the_zone_maps(self):
        cluster = ClusterCaches(2, PredicateCacheConfig(variant="range"))
        self.warm(cluster)
        (entry,) = cluster.node(1).entries()
        entry.slice_states[3] = RangeSliceState(np.empty(0, dtype=np.int64), 10**6, 4)
        sources = self.sources(cluster)
        for slice_id in (1, 3):
            assert sources[slice_id].context is not None
            assert sources[slice_id].candidates is None
            assert sources[slice_id].verdict_below == 0
        for slice_id in (0, 2):
            self.assert_served(sources[slice_id], self.num_rows(slice_id))


def _plan_key(table, predicate):
    """The plain key a scan of ``predicate`` on ``table`` looks up."""
    return ScanKey(table.name, parse_predicate(predicate).cache_key())


class TestBothVariantsAgree:
    @pytest.mark.parametrize("variant", ["bitmap", "range"])
    def test_variants_return_identical_rows(self, variant):
        values = np.random.default_rng(3).integers(0, 200, 1000)
        db = make_table(values)
        config = PredicateCacheConfig(
            variant=variant, bitmap_block_rows=16, max_ranges_per_slice=8
        )
        cache = PredicateCache(config)
        pred = parse_predicate("x between 50 and 60")
        expected = sorted(v for v in values.tolist() if 50 <= v <= 60)
        for _ in range(3):
            rows, _ = scan_rows(db, pred, cache)
            assert rows == expected


# -- property-based: cached repeats always equal cold scans ------------------------------


@given(
    data=st.lists(st.integers(0, 60), min_size=1, max_size=400),
    lo=st.integers(0, 60),
    width=st.integers(0, 30),
    variant=st.sampled_from(["bitmap", "range"]),
    appended=st.lists(st.integers(0, 60), max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_cached_scan_equals_cold_scan_under_appends(data, lo, width, variant, appended):
    db = make_table(np.array(data), num_slices=2, rows_per_block=7)
    config = PredicateCacheConfig(
        variant=variant, bitmap_block_rows=5, max_ranges_per_slice=3
    )
    cache = PredicateCache(config)
    pred = parse_predicate(f"x between {lo} and {lo + width}")

    cold, _ = scan_rows(db, pred)
    warm1, _ = scan_rows(db, pred, cache)
    assert warm1 == cold

    if appended:
        db.table("t").insert(
            {"x": np.array(appended), "y": np.array(appended) * 2}, db.begin()
        )
    expected = sorted(
        v for v in (data + appended) if lo <= v <= lo + width
    )
    warm2, _ = scan_rows(db, pred, cache)
    assert warm2 == expected
    warm3, _ = scan_rows(db, pred, cache)
    assert warm3 == expected
