"""QueryEngine facade: DML semantics, result cache, counters, cost model."""

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.baselines.result_cache import ResultCache
from repro.engine.cost import CostModel
from repro.engine.counters import QueryCounters
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema


@pytest.fixture()
def engine():
    db = Database(num_slices=2, rows_per_block=50)
    db.create_table(
        TableSchema(
            "t",
            (
                ColumnSpec("k", DataType.INT64),
                ColumnSpec("v", DataType.FLOAT64),
                ColumnSpec("s", DataType.STRING),
            ),
        )
    )
    eng = QueryEngine(
        db,
        predicate_cache=PredicateCache(),
        result_cache=ResultCache(),
    )
    rng = np.random.default_rng(0)
    eng.insert(
        "t",
        {
            "k": np.arange(1000),
            "v": rng.random(1000),
            "s": np.array([f"s{i % 7}" for i in range(1000)], dtype=object),
        },
    )
    return eng


class TestDML:
    def test_delete_where(self, engine):
        deleted = engine.delete_where("t", parse_predicate("k < 100"))
        assert deleted == 100
        assert engine.count_rows("t") == 900

    def test_delete_is_mvcc_not_physical(self, engine):
        engine.delete_where("t", parse_predicate("k < 100"))
        assert engine.database.table("t").num_rows == 1000  # physical rows remain

    def test_update_where(self, engine):
        updated = engine.update_where("t", parse_predicate("k < 10"), {"v": 99.0})
        assert updated == 10
        check = engine.execute("select count(*) as c from t where v = 99.0")
        assert check.scalar() == 10
        # Updated rows keep their other columns.
        keys = engine.execute("select k from t where v = 99.0")
        assert sorted(keys.column("k").tolist()) == list(range(10))

    def test_update_unknown_column_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.update_where("t", parse_predicate("k < 5"), {"nope": 1})

    def test_vacuum_reclaims(self, engine):
        engine.delete_where("t", parse_predicate("k < 500"))
        changed = engine.vacuum()
        assert changed == ["t"]
        assert engine.database.table("t").num_rows == 500

    def test_update_count_zero_when_no_match(self, engine):
        assert engine.update_where("t", parse_predicate("k = 99999"), {"v": 0.0}) == 0


class TestStatementContext:
    def test_dml_reports_the_scan_it_ran(self, engine):
        """DELETE / UPDATE find their rows with a scan; its counters and
        block traffic are the statement's, not thrown away."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        metered = QueryEngine(engine.database, metrics=registry)
        before = engine.database.rms.stats.snapshot()
        result = metered.execute("delete from t where v < 0.5")
        moved = engine.database.rms.stats.delta(before)
        counters = result.counters
        assert result.column("affected")[0] > 0
        assert counters.rows_output == 1
        assert counters.rows_scanned == 1000
        assert counters.rows_qualifying == result.column("affected")[0]
        assert counters.blocks_accessed == moved.blocks_accessed > 0
        assert counters.remote_fetches == moved.remote_fetches
        flat = registry.as_dict()
        assert flat["repro_query_rows_scanned_total"] == 1000
        assert flat["repro_query_blocks_accessed_total"] == moved.blocks_accessed
        updated = metered.execute("update t set v = 2.0 where k < 10")
        # The scan plus the gather of the old row versions.
        assert updated.counters.rows_scanned > 0
        assert updated.counters.blocks_accessed > 0

    def test_a_statement_finishes_on_the_cache_it_started_with(self, engine):
        """``set_predicate_cache`` mid-statement: the join's second scan
        still consults the router its first scan did."""
        db = engine.database
        db.create_table(TableSchema("d", (ColumnSpec("dk", DataType.INT64),)))
        engine.insert("d", {"dk": np.arange(0, 1000, 10)})
        late = PredicateCache()

        class SwapsWhenAsked(PredicateCache):
            def cache_for_slice(self, slice_id):
                engine.set_predicate_cache(late)
                return super().cache_for_slice(slice_id)

        first = SwapsWhenAsked()
        engine.set_predicate_cache(first)
        sql = "select count(*) as c from t join d on k = dk where k < 500 and dk < 700"
        assert engine.execute(sql).scalar() == 50
        assert engine.predicate_cache is late
        assert late.stats.lookups == 0 and len(late) == 0
        assert {key.table for key in first.keys()} == {"t", "d"}
        engine.result_cache = None
        assert engine.execute(sql).scalar() == 50
        assert late.stats.lookups > 0


class TestResultCacheIntegration:
    def test_identical_statement_hits(self, engine):
        sql = "select count(*) as c from t where k < 10"
        first = engine.execute(sql)
        second = engine.execute(sql)
        assert second.counters.result_cache_hit
        assert not first.counters.result_cache_hit
        assert first.scalar() == second.scalar()

    def test_whitespace_and_case_insensitive(self, engine):
        engine.execute("select count(*) as c from t where k < 10")
        other = engine.execute("SELECT   count(*) as c FROM t WHERE k < 10")
        assert other.counters.result_cache_hit

    def test_any_table_change_invalidates(self, engine):
        sql = "select count(*) as c from t where k < 10"
        engine.execute(sql)
        engine.insert("t", {"k": [5000], "v": [0.0], "s": ["x"]})
        result = engine.execute(sql)
        assert not result.counters.result_cache_hit

    def test_different_literals_miss(self, engine):
        engine.execute("select count(*) as c from t where k < 10")
        other = engine.execute("select count(*) as c from t where k < 11")
        assert not other.counters.result_cache_hit

    def test_dml_not_cached(self, engine):
        engine.execute("delete from t where k = 1")
        result = engine.execute("delete from t where k = 1")
        assert result.column("affected")[0] == 0  # re-executed, not replayed


class TestCountersAndCost:
    def test_counters_populated(self, engine):
        result = engine.execute("select count(*) as c from t where k < 100")
        counters = result.counters
        assert counters.rows_scanned > 0
        assert counters.model_seconds > 0
        assert counters.wall_seconds > 0
        assert counters.rows_output == 1

    def test_cost_model_monotone_in_blocks(self):
        model = CostModel()
        light = QueryCounters(rows_scanned=10, blocks_accessed=1, remote_fetches=1)
        heavy = QueryCounters(rows_scanned=10, blocks_accessed=100, remote_fetches=100)
        assert model.runtime(heavy) > model.runtime(light)

    def test_remote_fetch_dominates_local(self):
        model = CostModel()
        remote = QueryCounters(blocks_accessed=10, remote_fetches=10)
        local = QueryCounters(blocks_accessed=10, remote_fetches=0)
        assert model.runtime(remote) > model.runtime(local)

    def test_counters_merge(self):
        a = QueryCounters(rows_scanned=5, blocks_accessed=2)
        b = QueryCounters(rows_scanned=3, blocks_accessed=1, cache_hits=1)
        a.merge(b)
        assert a.rows_scanned == 8
        assert a.blocks_accessed == 3
        assert a.cache_hits == 1


class TestQueryResult:
    def test_rows_and_scalar(self, engine):
        result = engine.execute(
            "select s, count(*) as c from t group by s order by s limit 2"
        )
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0][0] == "s0"
        with pytest.raises(ValueError):
            result.scalar()

    def test_scalar_on_1x1(self, engine):
        assert engine.execute("select count(*) as c from t").scalar() == 1000
