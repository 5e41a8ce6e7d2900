"""Predicate sorting and the Qd-tree layout (§3.3, §5.6, Fig. 9)."""

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.baselines.qdtree import QdTree
from repro.baselines.sorting import PredicateSorter
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema


def make_db(n=4000, num_slices=2, rows_per_block=50, seed=0):
    db = Database(num_slices=num_slices, rows_per_block=rows_per_block)
    db.create_table(
        TableSchema(
            "t", (ColumnSpec("x", DataType.INT64), ColumnSpec("y", DataType.INT64))
        )
    )
    rng = np.random.default_rng(seed)
    db.table("t").insert(
        {"x": rng.integers(0, 20, n), "y": rng.integers(0, 100, n)}, db.begin()
    )
    return db


class TestPredicateSorter:
    def test_preserves_multiset(self):
        db = make_db()
        before = sorted(db.table("t").read_column_all("x").tolist())
        PredicateSorter([parse_predicate("x < 10")]).apply(db.table("t"))
        after = sorted(db.table("t").read_column_all("x").tolist())
        assert after == before

    def test_clusters_satisfying_rows_first(self):
        db = make_db(num_slices=1)
        pred = parse_predicate("x < 10")
        PredicateSorter([pred]).apply(db.table("t"))
        xs = db.table("t").read_column_all("x")
        satisfied = xs < 10
        # One contiguous run of True then False.
        transitions = np.count_nonzero(np.diff(satisfied.astype(int)))
        assert transitions <= 1
        assert satisfied[0]

    def test_query_results_unchanged_after_sort(self):
        db = make_db()
        engine = QueryEngine(db)
        before = engine.execute("select count(*) as c from t where x < 10 and y > 42").scalar()
        PredicateSorter(
            [parse_predicate("x < 10"), parse_predicate("y > 42")]
        ).apply(db.table("t"))
        after = engine.execute("select count(*) as c from t where x < 10 and y > 42").scalar()
        assert before == after

    def test_sorting_reduces_scanned_rows_via_zonemaps(self):
        db = make_db(num_slices=1, rows_per_block=50)
        engine = QueryEngine(db)
        q = "select count(*) as c from t where x < 10"
        cold = engine.execute(q)
        PredicateSorter([parse_predicate("x < 10")]).apply(db.table("t"))
        sorted_run = engine.execute(q)
        assert sorted_run.counters.rows_scanned < cold.counters.rows_scanned

    def test_sort_invalidates_predicate_cache(self):
        db = make_db()
        cache = PredicateCache()
        engine = QueryEngine(db, predicate_cache=cache)
        q = "select count(*) as c from t where x < 10"
        engine.execute(q)
        stale = cache.entries()
        assert stale
        PredicateSorter([parse_predicate("x < 10")]).apply(db.table("t"))
        # The next scan's layout check drops the entries of the old layout.
        result = engine.execute(q)
        assert result.counters.cache_hits == 0
        assert result.scalar() == QueryEngine(db).execute(q).scalar()
        assert cache.stats.invalidations == len(stale)
        assert not any(e is s for e in cache.entries() for s in stale)

    def test_requires_predicates(self):
        with pytest.raises(ValueError):
            PredicateSorter([])


class TestQdTree:
    def test_fig9_four_partitions(self):
        """The paper's Fig. 9: cuts on x<10 and y>42 give 4 parts."""
        db = make_db(n=2000, num_slices=1)
        tree = QdTree(
            [parse_predicate("x < 10"), parse_predicate("y > 42")],
            min_leaf_rows=10,
        )
        tree.build_and_apply(db.table("t"))
        assert tree.num_leaves == 4

    def test_routing_covers_all_matches(self):
        db = make_db(n=2000, num_slices=1)
        preds = [parse_predicate("x < 10"), parse_predicate("y > 42")]
        tree = QdTree(preds, min_leaf_rows=10)
        tree.build_and_apply(db.table("t"))
        xs = db.table("t").read_column_all("x")
        ys = db.table("t").read_column_all("y")
        matching = np.flatnonzero((xs < 10) & (ys > 42))
        candidates = tree.candidate_rows({0: True, 1: True}, 0)
        assert np.isin(matching, candidates).all()

    def test_routing_skips_contradicting_partitions(self):
        db = make_db(n=2000, num_slices=1)
        preds = [parse_predicate("x < 10"), parse_predicate("y > 42")]
        tree = QdTree(preds, min_leaf_rows=10)
        tree.build_and_apply(db.table("t"))
        total = db.table("t").num_rows
        candidates = tree.candidate_rows({0: True, 1: True}, 0)
        assert len(candidates) < total

    def test_partial_match_exploits_cut(self):
        """A query on x < 5 can use the x < 10 cut (§3.3)."""
        db = make_db(n=2000, num_slices=1)
        preds = [parse_predicate("x < 10"), parse_predicate("y > 42")]
        tree = QdTree(preds, min_leaf_rows=10)
        tree.build_and_apply(db.table("t"))
        candidates = tree.candidate_rows({0: True}, 0)
        xs = db.table("t").read_column_all("x")
        assert np.isin(np.flatnonzero(xs < 5), candidates).all()
        assert len(candidates) < db.table("t").num_rows

    def test_min_leaf_stops_cutting(self):
        db = make_db(n=100, num_slices=1)
        tree = QdTree(
            [parse_predicate("x < 10"), parse_predicate("y > 42")],
            min_leaf_rows=1000,
        )
        tree.build_and_apply(db.table("t"))
        assert tree.num_leaves == 1

    def test_leaves_partition_slice(self):
        db = make_db(n=1500, num_slices=2)
        tree = QdTree([parse_predicate("x < 10")], min_leaf_rows=10)
        tree.build_and_apply(db.table("t"))
        for slice_id, data_slice in enumerate(db.table("t").slices):
            leaves = tree.leaves(slice_id)
            spans = sorted((leaf.start, leaf.end) for leaf in leaves)
            cursor = 0
            for start, end in spans:
                assert start == cursor
                cursor = end
            assert cursor == data_slice.num_rows

    def test_query_results_unchanged(self):
        db = make_db()
        engine = QueryEngine(db)
        q = "select count(*) as c from t where x < 10 and y > 42"
        before = engine.execute(q).scalar()
        tree = QdTree(
            [parse_predicate("x < 10"), parse_predicate("y > 42")],
            min_leaf_rows=16,
        )
        tree.build_and_apply(db.table("t"))
        assert engine.execute(q).scalar() == before

    def test_requires_build(self):
        tree = QdTree([parse_predicate("x < 1")])
        with pytest.raises(RuntimeError):
            tree.leaves(0)

    def test_requires_predicates(self):
        with pytest.raises(ValueError):
            QdTree([])
