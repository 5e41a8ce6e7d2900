"""Invalidation edge cases on a live engine (§4.3/§4.4) plus the
clear()/admission-policy regression."""

import numpy as np
import pytest

from repro import (
    CostBasedPolicy,
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    RangeList,
    ScanKey,
    SemiJoinDescriptor,
    parse_predicate,
)
from repro.storage import ColumnSpec, DataType, TableSchema


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
        """Vacuuming ``fact`` must not touch entries on ``other``."""
        engine = make_engine()
        engine.execute(FACT_Q)
        engine.execute(OTHER_Q)
        cache = engine.predicate_cache
        fact_keys = [k for k in cache.keys() if k.table == "fact"]
        other_keys = [k for k in cache.keys() if k.table == "other"]
        assert fact_keys and other_keys

        engine.delete_where("fact", parse_predicate("x < 2"))
        invalidated_before = cache.stats.invalidations
        engine.vacuum(["fact"])
        assert cache.stats.invalidations > invalidated_before
        for key in fact_keys:
            assert key not in cache
        for key in other_keys:
            assert key in cache

        # And the rebuilt fact entry still answers correctly.
        fresh = engine.execute(FACT_Q).scalar()
        assert engine.execute(FACT_Q).scalar() == fresh

    def test_vacuum_without_garbage_spares_everything(self):
        """A vacuum that reclaims nothing emits no layout event."""
        engine = make_engine()
        engine.execute(FACT_Q)
        keys = engine.predicate_cache.keys()
        changed = engine.vacuum(["fact"])
        assert changed == []
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
        for key in join_keys:
            if "dim" in key.referenced_tables():
                assert key not in cache
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
        plain.record_scan_stats(400, 1000)
        join = cache.get_or_create(join_key, 1, {"dim": 1})
        join.record_scan_stats(25, 1000)
        assert cache.select_entry([plain_key, join_key]) is join

    def test_prefers_plain_when_it_is_more_selective(self):
        cache = PredicateCache()
        plain_key = ScanKey("fact", "x < 10")
        join_key = ScanKey(
            "fact", "x < 10", (SemiJoinDescriptor("fk = dk", "dim"),)
        )
        plain = cache.get_or_create(plain_key, 1)
        plain.record_scan_stats(5, 1000)
        join = cache.get_or_create(join_key, 1, {"dim": 1})
        join.record_scan_stats(400, 1000)
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
        cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 100)
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

    @pytest.mark.parametrize("evict", ["max_entries", "trim_to_bytes"])
    def test_eviction_keeps_observations_invalidation_forgets_them(self, evict):
        """An evicted key keeps its admission-policy observations (it
        earned admission and may come straight back); an invalidated
        one starts from scratch."""
        policy = CostBasedPolicy(min_sightings=2, max_selectivity=0.9)
        limit = 1 if evict == "max_entries" else None
        cache = PredicateCache(
            PredicateCacheConfig(max_entries=limit), policy=policy
        )
        old, new = ScanKey("t", "x = 1"), ScanKey("t", "x = 2")
        for key in (old, new):
            policy.observe(key, 0.1)
            entry = cache.get_or_create(key, 1)
            cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 100)
        if evict == "trim_to_bytes":
            assert cache.trim_to_bytes(0) > 0
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
