"""QueryEngine facade: DML semantics, result cache, counters, cost model."""

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.baselines.result_cache import ResultCache
from repro.engine.cost import CostModel
from repro.engine.counters import QueryCounters
from repro.engine.plan import ScanNode
from repro.predicates import parse_predicate
from repro.sql import PlannerError
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


def snapshot(engine):
    rows = engine.execute("select k, v, s from t")
    return engine.count_rows("t"), sorted(
        zip(*(rows.column(name).tolist() for name in ("k", "v", "s")))
    )


class TestNotNull:
    """Every column is NOT NULL: a None is refused where it enters, and
    a refused statement changes nothing."""

    @pytest.mark.parametrize("column", ["s", "v", "k"])
    def test_insert_refuses_none_naming_the_column(self, engine, column):
        before = snapshot(engine)
        row = {"k": [5000, 5001], "v": [0.5, 0.25], "s": ["a", "b"]}
        row[column] = [row[column][0], None]
        with pytest.raises(ValueError, match=repr(column)):
            engine.insert("t", row)
        assert snapshot(engine) == before
        assert engine.execute("select count(*) as c from t where s is null").scalar() == 0

    def test_sql_insert_of_null_is_refused(self, engine):
        before = snapshot(engine)
        with pytest.raises(ValueError, match="'s'"):
            engine.execute("insert into t values (5000, 0.5, null)")
        assert snapshot(engine) == before

    @pytest.mark.parametrize("column", ["s", "v"])
    def test_update_to_null_is_refused_before_any_row_is_deleted(self, engine, column):
        before = snapshot(engine)
        with pytest.raises(ValueError, match=column):
            engine.execute(f"update t set {column} = null where k < 10")
        assert snapshot(engine) == before
        assert engine.execute("select count(*) as c from t where k < 10").scalar() == 10


class TestRefusedValues:
    """A value a column cannot hold is refused before anything is
    written: an UPDATE deletes no old row version, and a STRING column
    never stores a number that would break its later comparisons."""

    def test_update_with_an_unconvertible_value_changes_nothing(self, engine):
        before = snapshot(engine)
        with pytest.raises(ValueError):
            engine.execute("update t set k = 'abc' where k < 3")
        assert snapshot(engine) == before
        assert engine.execute("select count(*) as c from t where k < 3").scalar() == 3

    def test_sql_insert_of_a_number_into_a_string_column_is_refused(self, engine):
        before = snapshot(engine)
        with pytest.raises(ValueError, match="'s'"):
            engine.execute("insert into t (k, v, s) values (9, 0.5, 7)")
        assert snapshot(engine) == before
        assert engine.execute("select count(*) as c from t where s > 'a'").scalar() == 1000

    @pytest.mark.parametrize("values", [[7], np.array([7])])
    def test_insert_of_a_number_into_a_string_column_is_refused(self, engine, values):
        before = snapshot(engine)
        with pytest.raises(ValueError, match="STRING column 's'"):
            engine.insert("t", {"k": [9], "v": [0.5], "s": values})
        assert snapshot(engine) == before

    def test_update_of_a_string_column_to_a_number_is_refused(self, engine):
        before = snapshot(engine)
        with pytest.raises(ValueError, match="'s'"):
            engine.execute("update t set s = 5")
        assert snapshot(engine) == before
        assert engine.execute("select count(*) as c from t where s > 'a'").scalar() == 1000

    def test_string_columns_take_unicode_arrays_and_str_lists(self, engine):
        engine.insert("t", {"k": [9000], "v": [0.5], "s": np.array(["zz"])})
        engine.insert("t", {"k": [9001], "v": [0.5], "s": ["zz"]})
        engine.execute("update t set s = 'zy' where k = 9001")
        rows = engine.execute("select k, s from t where s > 'z' order by k")
        assert rows.column("s").tolist() == ["zz", "zy"]


@pytest.fixture()
def dated():
    """``t(x INT64, d DATE, s STRING)`` holding (1, 3, 'a'), (2, 20, 'b')."""
    db = Database(num_slices=2, rows_per_block=4)
    db.create_table(
        TableSchema(
            "t",
            (
                ColumnSpec("x", DataType.INT64),
                ColumnSpec("d", DataType.DATE),
                ColumnSpec("s", DataType.STRING),
            ),
        )
    )
    eng = QueryEngine(db, predicate_cache=PredicateCache())
    eng.execute("insert into t values (1, 3, 'a'), (2, 20, 'b')")
    return eng


def rows_of(engine):
    result = engine.execute("select x, d, s from t")
    return sorted(zip(*(result.column(c).tolist() for c in ("x", "d", "s"))))


class TestExactValues:
    """A loose value converts to its column's type exactly or not at
    all: an INT64 column never truncates a float, and a DATE column
    takes ISO date strings."""

    @pytest.mark.parametrize(
        "sql",
        [
            "insert into t values (2.7, 1, 'z')",
            "update t set x = 2.5 where x = 1",
            "insert into t values ('5', 1, 'z')",
        ],
    )
    def test_a_value_an_int_column_cannot_hold_is_refused(self, dated, sql):
        before = rows_of(dated)
        with pytest.raises(ValueError, match="INT64 column 'x'"):
            dated.execute(sql)
        assert rows_of(dated) == before

    def test_an_exact_float_is_an_int(self, dated):
        dated.execute("insert into t values (4.0, 1, 'z')")
        assert (4, 1, "z") in rows_of(dated)

    def test_a_date_column_takes_iso_strings(self, dated):
        dated.execute("insert into t values (4, '1995-01-01', 'd')")
        dated.execute("update t set d = '1970-01-02' where x = 1")
        assert rows_of(dated) == [(1, 1, "a"), (2, 20, "b"), (4, 9131, "d")]

    def test_a_string_that_is_no_date_is_refused(self, dated):
        before = rows_of(dated)
        with pytest.raises(ValueError, match="DATE column 'd'"):
            dated.execute("insert into t values (4, 'soon', 'd')")
        assert rows_of(dated) == before

    def test_bulk_arrays_keep_their_cast(self, dated):
        dated.insert("t", {"x": np.array([7]), "d": np.array([5]), "s": ["q"]})
        assert (7, 5, "q") in rows_of(dated)


class TestLiteralBinding:
    """A WHERE literal is bound to its column's type before the scan:
    one that cannot compare is a PlannerError naming the column, never a
    numpy error or a silently empty answer."""

    @pytest.mark.parametrize(
        "where,column",
        [
            ("s > 5", "'s'"),
            ("x > 'a'", "'x'"),
            ("x in (1, 'a')", "'x'"),
            ("d between 1 and 'later'", "'d'"),
        ],
    )
    def test_an_incomparable_literal_is_a_planner_error(self, dated, where, column):
        with pytest.raises(PlannerError, match=column):
            dated.execute(f"select count(*) as c from t where {where}")

    @pytest.mark.parametrize(
        "sql", ["delete from t where s = 3", "update t set x = 9 where x = 'a'"]
    )
    def test_dml_binds_its_predicate_too(self, dated, sql):
        before = rows_of(dated)
        with pytest.raises(PlannerError):
            dated.execute(sql)
        assert rows_of(dated) == before

    def test_a_date_string_compares_as_days(self, dated):
        count = "select count(*) as c from t where "
        assert dated.execute(count + "d < '1970-01-15'").scalar() == 1
        assert dated.execute(count + "d between '1970-01-01' and '1970-01-21'").scalar() == 2
        assert dated.execute(count + "d in ('1970-01-04', 20)").scalar() == 2
        assert dated.execute("delete from t where d = '1970-01-21'").scalar() == 1
        assert rows_of(dated) == [(1, 3, "a")]

    def test_fitting_literals_keep_the_predicate_object(self):
        from repro.sql import bind_literals

        predicate = parse_predicate("x in (1, 2) and (s = 'a' or not d < 5)")
        types = {"x": DataType.INT64, "d": DataType.DATE, "s": DataType.STRING}
        assert bind_literals(predicate, types) is predicate

    @pytest.mark.parametrize(
        "sql,left,right",
        [
            ("select count(*) as c from t where x = s", "x", "s"),
            ("select count(*) as c from t where s = d", "s", "d"),
            ("select count(*) as c from t where x < s", "x", "s"),
            ("select count(*) as c from t, u where x = k", "x", "k"),
            ("select count(*) as c from t join u on k = d", "k", "d"),
        ],
    )
    def test_incomparable_columns_are_a_planner_error(self, dated, sql, left, right):
        u = TableSchema("u", (ColumnSpec("k", DataType.STRING),))
        dated.database.create_table(u)
        dated.execute("insert into u values ('1')")
        with pytest.raises(PlannerError, match=f"'{left}'.*'{right}'"):
            dated.execute(sql)

    @pytest.mark.parametrize("where", ["s > 5", "x < 'b'", "x = s"])
    def test_a_hand_built_scan_binds_its_predicate(self, dated, where):
        with pytest.raises(PlannerError):
            dated.execute_plan(ScanNode("t", parse_predicate(where)))
        days = dated.execute_plan(ScanNode("t", parse_predicate("d < '1970-01-15'")))
        assert days.num_rows == 1
        # INT64, FLOAT64 and DATE compare with each other.
        assert dated.execute_plan(ScanNode("t", parse_predicate("x < d"))).num_rows == 2

    def test_order_by_outside_the_select_list_is_a_planner_error(self, dated):
        with pytest.raises(PlannerError, match="'s'"):
            dated.execute("select x from t order by s")
        assert dated.execute("select * from t order by s").column("x").tolist() == [1, 2]


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

    @pytest.mark.parametrize("workers", [1, 2, -1])
    def test_slices_are_scanned_serially_only(self, engine, workers):
        assert QueryEngine(engine.database, scan_workers=0).database is engine.database
        with pytest.raises(ValueError, match="scan_workers"):
            QueryEngine(engine.database, scan_workers=workers)


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

    @pytest.mark.parametrize(
        "rows, first, second",
        [(["ABC", "abc", "abc"], "ABC", "abc"), (["a  b", "a b", "a b"], "a  b", "a b")],
    )
    def test_string_literals_keep_case_and_spacing(self, engine, rows, first, second):
        # Texts differing only inside a string literal are different
        # statements: the second must not be served the first's answer.
        engine.insert("t", {"k": [-1, -2, -3], "v": [0.0] * 3, "s": rows})
        sql = "select count(*) as c from t where s = '{}'"
        assert engine.execute(sql.format(first)).scalar() == 1
        other = engine.execute(sql.format(second))
        assert not other.counters.result_cache_hit
        assert other.scalar() == 2

    def test_result_cache_attached_after_a_text_was_compiled(self, engine):
        sql = "select count(*) as c from t where k < 10"
        engine.result_cache = None
        engine.execute(sql)
        engine.result_cache = ResultCache()
        engine.execute(sql)
        assert engine.execute(sql).counters.result_cache_hit

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
