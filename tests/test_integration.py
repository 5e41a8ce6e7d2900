"""End-to-end scenarios exercising the paper's full story.

Each test replays one of the behaviours the paper claims for predicate
caching on a live engine with real SQL: the motivating query of §4.1,
the DML lifecycle of §4.3, the join-index behaviour of §4.4, cache
interplay with the result cache, and the no-false-negative guarantee
under mixed workloads.
"""

import numpy as np
import pytest

from repro import Database, PredicateCache, PredicateCacheConfig, QueryEngine
from repro.baselines.result_cache import ResultCache
from repro.workloads import tpch


@pytest.fixture()
def tpch_engine():
    db = Database(num_slices=2, rows_per_block=250)
    tpch.load(db, scale_factor=0.004, skew=1.0, seed=11)
    return QueryEngine(
        db, predicate_cache=PredicateCache(), result_cache=ResultCache()
    )


MOTIVATING_QUERY = """
    select count(*) from lineitem, orders
    where l_discount = 0.1 and l_quantity >= 40
      and o_orderkey = l_orderkey
      and o_orderdate between {lo} and {hi}
"""


class TestMotivatingExample:
    def test_two_entries_created(self, tpch_engine):
        """§4.1: the example query creates one entry per scanned table
        (plus join-extended entries), with the conjunction cached as one
        key on lineitem."""
        sql = MOTIVATING_QUERY.format(lo=9131, hi=9161)
        tpch_engine.execute(sql)
        keys = tpch_engine.predicate_cache.keys()
        lineitem_plain = [
            k for k in keys if k.table == "lineitem" and not k.is_join_key
        ]
        orders_plain = [k for k in keys if k.table == "orders" and not k.is_join_key]
        assert len(lineitem_plain) == 1
        assert len(orders_plain) == 1
        # The conjunction is one key, not two.
        assert "l_discount = 0.1" in lineitem_plain[0].predicate_key
        assert "l_quantity >= 40" in lineitem_plain[0].predicate_key

    def test_join_entry_more_selective_than_plain(self, tpch_engine):
        sql = MOTIVATING_QUERY.format(lo=9131, hi=9161)
        tpch_engine.execute(sql)
        entries = tpch_engine.predicate_cache.entries()
        join_entries = [e for e in entries if e.key.is_join_key and e.key.table == "lineitem"]
        plain_entries = [
            e for e in entries if not e.key.is_join_key and e.key.table == "lineitem"
        ]
        assert join_entries and plain_entries
        assert join_entries[0].selectivity <= plain_entries[0].selectivity


class TestDmlLifecycle:
    def test_full_lifecycle(self, tpch_engine):
        engine = tpch_engine
        q = "select count(*) as c from lineitem where l_discount = 0.09 and l_quantity >= 40"
        baseline = engine.execute(q).scalar()

        # Repeat: hit, same answer.
        repeat = engine.execute(q)
        assert repeat.scalar() == baseline

        # Insert matching rows: entry extended, not invalidated.
        one = {name: [value] for name, value in zip(
            engine.database.table("lineitem").schema.column_names,
            [1, 1, 1, 1, 45.0, 100.0, 0.09, 0.0, "N", "O", 9000, 9010, 9020, "NONE", "AIR"],
        )}
        engine.insert("lineitem", one)
        after_insert = engine.execute(q)
        assert after_insert.scalar() == baseline + 1

        # Delete some matching rows: visibility filters them out.
        deleted = engine.delete_where(
            "lineitem",
            tpch_parse("l_discount = 0.09 and l_quantity >= 40 and l_orderkey = 1"),
        )
        assert deleted >= 1
        after_delete = engine.execute(q)
        assert after_delete.scalar() == baseline + 1 - deleted

        # Update a matching row out of the result set.
        updated = engine.update_where(
            "lineitem",
            tpch_parse("l_discount = 0.09 and l_quantity >= 40 and l_quantity < 46"),
            {"l_discount": 0.0},
        )
        after_update = engine.execute(q)
        assert after_update.scalar() == baseline + 1 - deleted - updated

        # Vacuum: physically reclaims, invalidates, and the rebuilt
        # cache still answers correctly.
        engine.vacuum(["lineitem"])
        assert engine.execute(q).scalar() == after_update.scalar()
        assert engine.execute(q).scalar() == after_update.scalar()

    def test_cache_stats_track_lifecycle(self, tpch_engine):
        engine = tpch_engine
        engine.result_cache = None  # observe the predicate cache alone
        q = "select count(*) as c from lineitem where l_quantity >= 49"
        engine.execute(q)
        engine.execute(q)
        stats = engine.predicate_cache.stats
        assert stats.hits >= 1
        assert stats.inserts >= 1
        engine.delete_where("lineitem", tpch_parse("l_quantity >= 49"))
        engine.vacuum(["lineitem"])
        assert engine.execute(q).counters.cache_hits == 0
        assert engine.predicate_cache.stats.invalidations >= 1


class TestJoinIndexLifecycle:
    def test_build_side_insert_invalidates_join_entries_only(self, tpch_engine):
        engine = tpch_engine
        sql = MOTIVATING_QUERY.format(lo=9131, hi=9161)
        engine.execute(sql)
        cache = engine.predicate_cache
        join_keys_before = [k for k in cache.keys() if k.is_join_key]
        plain_before = [k for k in cache.keys() if not k.is_join_key]
        assert join_keys_before

        # Insert into orders (a build side): join entries on lineitem
        # probing orders must never serve again, and the next probe of
        # their key drops them; plain entries survive.
        stale_before = cache.stats.stale_rejections
        engine.insert(
            "orders",
            {
                "o_orderkey": [10**6],
                "o_custkey": [1],
                "o_orderstatus": ["O"],
                "o_totalprice": [1.0],
                "o_orderdate": [9140],
                "o_orderpriority": ["1-URGENT"],
                "o_shippriority": [0],
            },
        )
        stale = [
            e for e in cache.entries()
            if e.key.is_join_key and "orders" in e.key.referenced_tables()
        ]
        assert stale
        for key in plain_before:
            assert key in cache

        # The query still answers correctly and re-learns the join entry.
        result = engine.execute(sql)
        assert result.rows() == QueryEngine(engine.database).execute(sql).rows()
        assert cache.stats.stale_rejections - stale_before == len(stale)
        assert not any(e is s for e in cache.entries() for s in stale)
        assert any(k.is_join_key for k in cache.keys())
        for key in plain_before:
            assert key in cache

    def test_correct_results_after_build_side_change(self, tpch_engine):
        engine = tpch_engine
        sql = MOTIVATING_QUERY.format(lo=9131, hi=9161)
        first = engine.execute(sql).scalar()
        # Widen the build side: add an order in range whose lineitems exist.
        li = engine.database.table("lineitem")
        some_orderkey = int(li.read_column_all("l_orderkey")[0])
        engine.update_where(
            "orders",
            tpch_parse(f"o_orderkey = {some_orderkey}"),
            {"o_orderdate": 9140},
        )
        second = engine.execute(sql).scalar()
        third = engine.execute(sql).scalar()
        assert second == third  # cached repeat agrees with fresh run


class TestResultCacheInterplay:
    def test_result_cache_first_predicate_cache_second(self, tpch_engine):
        engine = tpch_engine
        q = "select count(*) as c from lineitem where l_quantity >= 45"
        engine.execute(q)
        hit = engine.execute(q)
        assert hit.counters.result_cache_hit  # answered without scanning
        assert hit.counters.rows_scanned == 0

        # A write invalidates the result cache but NOT the predicate
        # cache: the next run is a predicate-cache-assisted scan.
        engine.insert(
            "lineitem",
            {name: [value] for name, value in zip(
                engine.database.table("lineitem").schema.column_names,
                [2, 1, 1, 1, 50.0, 1.0, 0.0, 0.0, "N", "O", 9000, 9010, 9020, "NONE", "AIR"],
            )},
        )
        after = engine.execute(q)
        assert not after.counters.result_cache_hit
        assert after.counters.cache_hits >= 1


class TestMixedWorkloadSoundness:
    def test_randomized_interleaving(self):
        """Random DML + repeated queries: cached answers always match a
        cache-free engine on the same database state."""
        rng = np.random.default_rng(5)
        db = Database(num_slices=2, rows_per_block=50)
        from repro.storage import ColumnSpec, DataType, TableSchema

        db.create_table(
            TableSchema(
                "t", (ColumnSpec("k", DataType.INT64), ColumnSpec("g", DataType.INT64))
            )
        )
        cached = QueryEngine(db, predicate_cache=PredicateCache(
            PredicateCacheConfig(variant="range", max_ranges_per_slice=4)
        ))
        uncached = QueryEngine(db)  # same database, no cache
        cached.insert("t", {"k": rng.integers(0, 100, 2000), "g": rng.integers(0, 10, 2000)})

        queries = [
            "select count(*) as c from t where k < 20",
            "select count(*) as c from t where k between 40 and 60",
            "select count(*) as c from t where g = 3",
        ]
        for step in range(30):
            action = rng.integers(0, 10)
            if action < 5:
                sql = queries[int(rng.integers(len(queries)))]
                assert cached.execute(sql).scalar() == uncached.execute(sql).scalar()
            elif action < 7:
                n = int(rng.integers(1, 50))
                cached.insert(
                    "t",
                    {"k": rng.integers(0, 100, n), "g": rng.integers(0, 10, n)},
                )
            elif action < 8:
                bound = int(rng.integers(0, 100))
                cached.delete_where("t", tpch_parse(f"k = {bound}"))
            elif action < 9:
                bound = int(rng.integers(0, 100))
                cached.update_where("t", tpch_parse(f"k = {bound}"), {"g": 0})
            else:
                cached.vacuum(["t"])


def tpch_parse(text):
    from repro.predicates import parse_predicate

    return parse_predicate(text)
