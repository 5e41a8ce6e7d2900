"""Invalidation edge cases on a live engine (§4.3/§4.4) plus the
clear()/admission-policy regression."""

import numpy as np
import pytest

from repro import (
    CacheStore,
    ClusterCaches,
    CostBasedPolicy,
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    ScanKey,
    SemiJoinDescriptor,
    parse_predicate,
)
from repro.baselines.result_cache import ResultCache
from repro.storage import ColumnSpec, DataType, TableSchema

from tests.rowsets import rows


def make_engine(cache=None, **cache_kwargs):
    db = Database(num_slices=2, rows_per_block=100)
    db.create_table(
        TableSchema(
            "fact",
            (ColumnSpec("fk", DataType.INT64), ColumnSpec("x", DataType.INT64)),
        )
    )
    db.create_table(
        TableSchema(
            "dim",
            (ColumnSpec("dk", DataType.INT64), ColumnSpec("v", DataType.INT64)),
        )
    )
    db.create_table(
        TableSchema(
            "other",
            (ColumnSpec("y", DataType.INT64),),
        )
    )
    if cache is None:
        cache = PredicateCache(PredicateCacheConfig(**cache_kwargs))
    engine = QueryEngine(db, predicate_cache=cache)
    rng = np.random.default_rng(5)
    engine.insert(
        "fact",
        {"fk": rng.integers(0, 200, 2000), "x": rng.integers(0, 100, 2000)},
    )
    engine.insert("dim", {"dk": np.arange(200), "v": rng.integers(0, 50, 200)})
    engine.insert("other", {"y": np.arange(500)})
    return engine


FACT_Q = "select count(*) as c from fact where x < 10"
OTHER_Q = "select count(*) as c from other where y < 50"
JOIN_Q = (
    "select count(*) as c from fact, dim "
    "where fk = dk and v < 5 and x < 10"
)


class TestVacuumScope:
    def test_vacuum_drops_only_reorganized_table(self):
        """Vacuuming ``fact`` must not touch entries on ``other``: a scan
        of ``other`` still hits, and the next scan of ``fact`` drops
        every ``fact`` entry of the old layout before it probes."""
        engine = make_engine()
        engine.execute(FACT_Q)
        engine.execute(OTHER_Q)
        cache = engine.predicate_cache
        fact_entries = [e for e in cache.entries() if e.key.table == "fact"]
        other_keys = [k for k in cache.keys() if k.table == "other"]
        assert fact_entries and other_keys

        engine.delete_where("fact", parse_predicate("x < 2"))
        invalidated_before = cache.stats.invalidations
        engine.vacuum(["fact"])
        assert engine.execute(OTHER_Q).counters.cache_hits == 1
        assert cache.stats.invalidations == invalidated_before
        rebuilt = engine.execute(FACT_Q)
        assert rebuilt.counters.cache_hits == 0
        assert cache.stats.invalidations > invalidated_before
        live = cache.entries()
        assert not any(e is stale for e in live for stale in fact_entries)
        for key in other_keys:
            assert key in cache

        # And the rebuilt fact entry still answers correctly.
        assert rebuilt.scalar() == QueryEngine(engine.database).execute(FACT_Q).scalar()
        assert engine.execute(FACT_Q).scalar() == rebuilt.scalar()

    def test_vacuum_without_garbage_spares_everything(self):
        """A vacuum that reclaims nothing leaves the layout stamp."""
        engine = make_engine()
        engine.execute(FACT_Q)
        keys = engine.predicate_cache.keys()
        changed = engine.vacuum(["fact"])
        assert changed == []
        assert engine.execute(FACT_Q).counters.cache_hits == 1
        for key in keys:
            assert key in engine.predicate_cache


class TestBuildSideDml:
    def test_build_side_insert_spares_plain_entries(self):
        engine = make_engine()
        engine.execute(JOIN_Q)
        cache = engine.predicate_cache
        join_keys = [k for k in cache.keys() if k.is_join_key]
        plain_keys = [
            k for k in cache.keys() if k.table == "fact" and not k.is_join_key
        ]
        assert join_keys and plain_keys

        engine.insert("dim", {"dk": [9999], "v": [1]})
        stale = [
            e for e in cache.entries()
            if e.key.is_join_key and "dim" in e.key.referenced_tables()
        ]
        assert stale
        result = engine.execute(JOIN_Q)
        assert result.scalar() == QueryEngine(engine.database).execute(JOIN_Q).scalar()
        assert cache.stats.stale_rejections == len(stale)
        assert not any(e is s for e in cache.entries() for s in stale)
        for key in plain_keys:
            assert key in cache

    def test_probe_side_insert_spares_all_entries(self):
        """DML on the probe table is the headline survival case: both
        the plain and the join-extended entry live on (§4.3)."""
        engine = make_engine()
        engine.execute(JOIN_Q)
        cache = engine.predicate_cache
        keys_before = cache.keys()
        engine.insert("fact", {"fk": [1], "x": [1]})
        for key in keys_before:
            assert key in cache

    def test_results_agree_after_build_side_change(self):
        engine = make_engine()
        engine.execute(JOIN_Q)
        engine.insert("dim", {"dk": [10_000], "v": [0]})
        engine.insert("fact", {"fk": [10_000, 10_000], "x": [0, 1]})
        fresh = engine.execute(JOIN_Q).scalar()
        cached = engine.execute(JOIN_Q).scalar()
        assert cached == fresh


# -- table churn: a table dropped and re-created under the same name ----------

CHURN_Q = "select count(*) as c, sum(x) as s from t where x < 50"


def churn_db():
    return Database(num_slices=1, rows_per_block=10)


def create_t(db, values):
    db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))
    db.table("t").insert({"x": np.asarray(list(values))}, db.begin())


def answer(engine, sql=CHURN_Q):
    return engine.execute(sql).rows()


def cache_off(engine, sql=CHURN_Q):
    return QueryEngine(engine.database).execute(sql).rows()


class TestTableChurn:
    """Every version stamp names one state of one table, so nothing a
    cache learned of a dropped table serves its successor."""

    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_dropped_table_entries_never_serve_its_successor(self, variant):
        db = churn_db()
        engine = QueryEngine(db, predicate_cache=PredicateCache(
            PredicateCacheConfig(variant=variant, bitmap_block_rows=10)
        ))
        create_t(db, range(100))
        engine.execute(CHURN_Q)
        db.drop_table("t")
        create_t(db, range(99, -1, -1))
        assert answer(engine) == cache_off(engine) == [(50, 1225)]

    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_a_successors_vacuum_reaches_the_cache(self, variant):
        db = churn_db()
        engine = QueryEngine(db, predicate_cache=PredicateCache(
            PredicateCacheConfig(variant=variant, bitmap_block_rows=10)
        ))
        create_t(db, range(100))
        engine.execute(CHURN_Q)  # the cache has seen a table "t"
        db.drop_table("t")
        create_t(db, range(100))
        engine.execute(CHURN_Q)
        engine.execute("delete from t where x < 30")
        engine.execute("vacuum t")
        db.table("t").insert({"x": np.arange(30)}, db.begin())
        assert answer(engine) == cache_off(engine) == [(50, 1225)]

    def test_join_entry_on_a_recreated_dimension_is_stale(self):
        db = churn_db()
        engine = QueryEngine(db, predicate_cache=PredicateCache(
            PredicateCacheConfig(variant="range")
        ))
        db.create_table(TableSchema("f", (
            ColumnSpec("k", DataType.INT64), ColumnSpec("v", DataType.INT64),
        )))
        i = np.arange(100)
        db.table("f").insert({"k": i % 10, "v": i}, db.begin())

        def create_d(g):
            db.create_table(TableSchema("d", (
                ColumnSpec("id", DataType.INT64), ColumnSpec("g", DataType.INT64),
            )))
            db.table("d").insert({"id": np.arange(10), "g": g}, db.begin())

        sql = "select count(*) as c, sum(v) as s from f, d where k = id and g = 0"
        create_d(np.arange(10) % 2)
        assert answer(engine, sql) == [(50, 2450)]
        assert any(key.is_join_key for key in engine.predicate_cache.keys())
        db.drop_table("d")
        create_d((np.arange(10) + 1) % 2)
        assert answer(engine, sql) == cache_off(engine, sql) == [(50, 2500)]

    def test_result_cache_never_serves_a_dropped_table(self):
        db = churn_db()
        engine = QueryEngine(db, result_cache=ResultCache())
        create_t(db, range(100))
        assert answer(engine) == [(50, 1225)]
        db.drop_table("t")
        create_t(db, range(1000, 1100))
        assert answer(engine) == cache_off(engine) == [(0, 0)]

    def test_engine_drop_table_leaves_no_entry_of_it(self):
        """``QueryEngine.drop_table`` drops the name's entries at once:
        scans of other tables never come back to it."""
        engine = QueryEngine(
            make_engine().database,
            predicate_cache=PredicateCache(PredicateCacheConfig(variant="range")),
            result_cache=ResultCache(),
        )
        create_t(engine.database, range(100))
        engine.execute(CHURN_Q)
        assert [key.table for key in engine.predicate_cache.keys()] == ["t"]
        engine.drop_table("t")
        for sql in (FACT_Q, OTHER_Q, JOIN_Q):
            engine.execute(sql)
        tables = {key.table for key in engine.predicate_cache.keys()}
        assert tables == {"fact", "dim", "other"}
        assert engine.result_cache.invalidate_table("t") == 0

    def test_engine_drop_table_journals_the_drops_on_every_node(self, tmp_path):
        """On a 2-node cluster writing through to a store, the drops
        reach every node and the journal: a reload over a snapshot that
        still held the table brings none of its entries back."""
        cluster = ClusterCaches(
            2, PredicateCacheConfig(variant="range"), store=CacheStore(tmp_path)
        )
        database = make_engine().database
        create_t(database, range(100))
        engine = QueryEngine(database, predicate_cache=cluster)
        engine.execute(CHURN_Q)
        assert all(
            [key.table for key in node.keys()] == ["t"] for node in cluster.nodes()
        )
        assert cluster.store.snapshot(cluster)
        engine.drop_table("t")
        for sql in (FACT_Q, OTHER_Q, JOIN_Q):
            engine.execute(sql)
        for node in cluster.nodes():
            assert "t" not in {key.table for key in node.keys()}
            assert len(node.keys()) > 0
        records = cluster.store.load(revalidate=False).records.values()
        assert records and "t" not in {record.key.table for record in records}


class TestAppendExtension:
    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_append_then_rescan_extends(self, variant):
        engine = make_engine(variant=variant)
        cache = engine.predicate_cache
        baseline = engine.execute(FACT_Q).scalar()
        entry = cache.entries()[0]
        cached_before = [s.last_cached_row for s in entry.slice_states]

        engine.insert("fact", {"fk": np.arange(300), "x": np.zeros(300, np.int64)})
        assert cache.stats.extensions == 0
        result = engine.execute(FACT_Q)
        assert result.scalar() == baseline + 300
        # Same entry object, now extended over the appended tail.
        assert cache.entries()[0] is entry
        assert cache.stats.extensions >= 1
        assert cache.stats.invalidations == 0
        cached_after = [s.last_cached_row for s in entry.slice_states]
        assert sum(cached_after) > sum(cached_before)

        # Second repeat scans the extended entry and still agrees.
        assert engine.execute(FACT_Q).scalar() == baseline + 300
        assert cache.stats.invalidations == 0
        assert [s.last_cached_row for s in entry.slice_states] >= cached_after


class TestSelectEntry:
    def test_prefers_more_selective_join_entry(self):
        cache = PredicateCache()
        plain_key = ScanKey("fact", "x < 10")
        join_key = ScanKey(
            "fact", "x < 10", (SemiJoinDescriptor("fk = dk", "dim"),)
        )
        plain = cache.get_or_create(plain_key, 1)
        plain.rows_qualifying, plain.rows_considered = 400, 1000
        join = cache.get_or_create(join_key, 1, {"dim": 1})
        join.rows_qualifying, join.rows_considered = 25, 1000
        assert cache.select_entry([plain_key, join_key]) is join

    def test_prefers_plain_when_it_is_more_selective(self):
        cache = PredicateCache()
        plain_key = ScanKey("fact", "x < 10")
        join_key = ScanKey(
            "fact", "x < 10", (SemiJoinDescriptor("fk = dk", "dim"),)
        )
        plain = cache.get_or_create(plain_key, 1)
        plain.rows_qualifying, plain.rows_considered = 5, 1000
        join = cache.get_or_create(join_key, 1, {"dim": 1})
        join.rows_qualifying, join.rows_considered = 400, 1000
        assert cache.select_entry([plain_key, join_key]) is plain


class TestClearRegression:
    def test_clear_counts_invalidations(self):
        cache = PredicateCache()
        cache.get_or_create(ScanKey("t", "a = 1"), 1)
        cache.get_or_create(ScanKey("t", "b = 2"), 1)
        assert cache.clear() == 2
        assert cache.stats.invalidations == 2
        assert len(cache) == 0

    def test_cleared_key_is_readmittable_under_selective_policy(self):
        """clear() must route through _drop so the admission policy
        forgets its observations — otherwise a cleared key carries stale
        state and the cache can neither trust nor rebuild it cleanly."""
        policy = CostBasedPolicy(min_sightings=2, max_selectivity=0.9)
        cache = PredicateCache(policy=policy)
        key = ScanKey("t", "x = 1")

        # Earn admission: never-seen keys rejected, the first repeat
        # (one prior sighting) is admitted.
        assert not cache.admits(key)
        policy.observe(key, 0.1)
        assert cache.admits(key)
        entry = cache.get_or_create(key, 1)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
        assert policy.tracked_keys == 1

        cleared = cache.clear()
        assert cleared == 1
        assert cache.stats.invalidations == 1
        assert policy.tracked_keys == 0  # observations forgotten

        # The key starts from scratch and can earn re-admission.
        assert not cache.admits(key)
        policy.observe(key, 0.1)
        assert cache.admits(key)
        assert cache.get_or_create(key, 1) is not entry

    def test_eviction_keeps_observations_invalidation_forgets_them(self):
        """An evicted key keeps its admission-policy observations (it
        earned admission and may come straight back); an invalidated
        one starts from scratch."""
        policy = CostBasedPolicy(min_sightings=2, max_selectivity=0.9)
        old, new = ScanKey("t", "x = 1"), ScanKey("t", "x = 2")
        sizing = PredicateCache()
        entry = sizing.get_or_create(old, 1)
        sizing.record_slice_scan(entry, 0, rows((0, 5)), 100)
        # A byte budget of one entry: the second install evicts the first.
        cache = PredicateCache(
            PredicateCacheConfig(max_bytes=entry.nbytes), policy=policy
        )
        for key in (old, new):
            policy.observe(key, 0.1)
            entry = cache.get_or_create(key, 1)
            cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
        assert old not in cache and new in cache
        assert cache.stats.evictions == 1
        assert policy.tracked_keys == 2  # eviction forgets nothing
        assert cache.admits(old)

        assert cache.invalidate_table("t") == 1
        assert policy.tracked_keys == 1  # only the live entry's key
        assert cache.admits(old) and not cache.admits(new)

        cache.get_or_create(old, 1)
        assert cache.drop_stale(old)
        assert policy.tracked_keys == 0
        assert cache.stats.invalidations == 2

    def test_engine_level_clear_then_rebuild(self):
        policy = CostBasedPolicy(min_sightings=2, max_selectivity=0.9)
        engine = make_engine(cache=PredicateCache(policy=policy))
        cache = engine.predicate_cache
        baseline = engine.execute(FACT_Q).scalar()
        engine.execute(FACT_Q)
        assert len(cache) >= 1

        cache.clear()
        assert len(cache) == 0
        # Correct answers throughout, and the entry is re-learned after
        # the policy's sighting threshold is met again.
        assert engine.execute(FACT_Q).scalar() == baseline
        assert engine.execute(FACT_Q).scalar() == baseline
        assert len(cache) >= 1
