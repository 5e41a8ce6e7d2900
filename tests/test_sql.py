"""SQL front end: parser and planner."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, PredicateCache, QueryEngine
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    ScanNode,
    SortNode,
)
from repro.predicates import parse_predicate
from repro.predicates.lexer import LexError, TokenKind, tokenize
from repro.sql import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    SQLParseError,
    UpdateStatement,
    VacuumStatement,
    parse_statement,
    plan_select,
)
from repro.sql.planner import PlannerError
from repro.storage import ColumnSpec, DataType, TableSchema


@pytest.fixture()
def db():
    database = Database(num_slices=2, rows_per_block=100)
    database.create_table(
        TableSchema(
            "orders",
            (
                ColumnSpec("o_orderkey", DataType.INT64),
                ColumnSpec("o_custkey", DataType.INT64),
                ColumnSpec("o_total", DataType.FLOAT64),
            ),
        )
    )
    database.create_table(
        TableSchema(
            "lineitem",
            (
                ColumnSpec("l_orderkey", DataType.INT64),
                ColumnSpec("l_qty", DataType.INT64),
                ColumnSpec("l_price", DataType.FLOAT64),
            ),
        )
    )
    rng = np.random.default_rng(0)
    engine = QueryEngine(database)
    engine.insert(
        "orders",
        {
            "o_orderkey": np.arange(200),
            "o_custkey": rng.integers(0, 20, 200),
            "o_total": rng.random(200) * 100,
        },
    )
    engine.insert(
        "lineitem",
        {
            "l_orderkey": rng.integers(0, 200, 1000),
            "l_qty": rng.integers(1, 50, 1000),
            "l_price": rng.random(1000) * 10,
        },
    )
    return database


class TestParser:
    def test_select_shape(self):
        stmt = parse_statement(
            "select l_qty, count(*) as c from lineitem "
            "where l_qty > 10 group by l_qty order by c desc limit 5"
        )
        assert isinstance(stmt, SelectStatement)
        assert stmt.tables == ("lineitem",)
        assert stmt.group_by == ("l_qty",)
        assert stmt.order_by == (("c", False),)
        assert stmt.limit == 5

    def test_select_star(self):
        stmt = parse_statement("select * from lineitem")
        assert stmt.items == ()

    def test_aggregates(self):
        stmt = parse_statement(
            "select sum(l_price * l_qty) as total, count(distinct l_orderkey) as dk "
            "from lineitem"
        )
        assert stmt.items[0].func == "sum"
        assert stmt.items[1].func == "count_distinct"

    def test_join_syntax_variants(self):
        implicit = parse_statement(
            "select count(*) from lineitem, orders where l_orderkey = o_orderkey"
        )
        explicit = parse_statement(
            "select count(*) from lineitem join orders on l_orderkey = o_orderkey"
        )
        assert implicit.tables == explicit.tables

    def test_insert(self):
        stmt = parse_statement(
            "insert into orders (o_orderkey, o_custkey, o_total) "
            "values (1, 2, 3.5), (4, 5, 6.5)"
        )
        assert isinstance(stmt, InsertStatement)
        assert stmt.rows == ((1, 2, 3.5), (4, 5, 6.5))

    def test_delete_update_vacuum(self):
        assert isinstance(parse_statement("delete from orders where o_total < 1"), DeleteStatement)
        stmt = parse_statement("update orders set o_total = 0.0 where o_custkey = 3")
        assert isinstance(stmt, UpdateStatement)
        assert stmt.assignments == (("o_total", 0.0),)
        vac = parse_statement("vacuum orders")
        assert isinstance(vac, VacuumStatement) and vac.table == "orders"
        assert parse_statement("vacuum").table is None

    def test_order_by_position(self):
        stmt = parse_statement(
            "select l_qty, count(*) as c from lineitem group by l_qty order by 2 desc"
        )
        assert stmt.order_by == (("c", False),)

    def test_string_escapes(self):
        stmt = parse_statement("select count(*) from orders where o_orderkey = 1")
        assert isinstance(stmt, SelectStatement)

    def test_parse_errors(self):
        for bad in (
            "explain select 1",
            "select from lineitem",
            "select count(* from lineitem",
            "select avg(*) from lineitem",
            "insert into t values (1,",
            "select count(*) from lineitem limit 2.5",
        ):
            with pytest.raises((SQLParseError, Exception)):
                parse_statement(bad)

    def test_unsupported_statements_rejected(self):
        # ANALYZE is not part of the subset: the planner orders joins
        # by table size and reads no optimizer statistics.
        for bad in ("analyze", "analyze lineitem", "explain select 1"):
            with pytest.raises(SQLParseError, match="statement keyword"):
                parse_statement(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLParseError):
            parse_statement("select count(*) from lineitem; drop")

    def test_non_decimal_digit_is_a_lex_error(self):
        # '²' is a digit to str.isdigit() but no base-10 digit: the lexer
        # rejects it at its position instead of int() raising later.
        with pytest.raises(LexError, match="position 33"):
            parse_statement("select count(*) from t where a = \u00b2")

    def test_other_decimal_digits_are_numbers(self):
        # An Arabic-Indic three is a decimal digit: '\u06639' is 39.
        tokens = tokenize("a = \u06639")
        assert [(t.kind, t.text) for t in tokens[2:]] == [
            (TokenKind.NUMBER, "\u06639"),
            (TokenKind.EOF, ""),
        ]
        stmt = parse_statement("select count(*) from t where a = \u06639")
        assert stmt.filters == (parse_predicate("a = 39"),)

    def test_exponent_literals_are_floats(self):
        tokens = tokenize("f < 1e5 and g > 2.5E-3 and h = .5e+2")
        numbers = [t.text for t in tokens if t.kind == TokenKind.NUMBER]
        assert numbers == ["1e5", "2.5E-3", ".5e+2"]
        stmt = parse_statement("select count(*) from t where f < 1e5")
        assert stmt.filters == (parse_predicate("f < 100000.0"),)
        insert = parse_statement("insert into t values (1e5, -2e-1)")
        assert insert.rows == ((100000.0, -0.2),)
        with pytest.raises(SQLParseError, match="LIMIT needs an integer"):
            parse_statement("select x from t limit 1e1")
        with pytest.raises(SQLParseError, match="is no integer"):
            parse_statement("select x from t order by 1e0")

    def test_an_e_without_digits_stays_an_identifier(self):
        words = [t.text for t in tokenize("1e 1ex 1e+x 2E- 3.e5")]
        assert words == ["1", "e", "1", "ex", "1", "e", "+", "x", "2", "E", "-",
                         "3", ".", "e5", ""]

    @settings(max_examples=300, deadline=None)
    @given(st.text("19.eEx+- ", max_size=12))
    def test_only_an_exponent_joins_a_number(self, text):
        """Without digits after ``e`` (and an optional sign) no number
        takes the ``e``, so every token, and so ``statement_key``, is
        what it was before numbers had exponents."""
        exponents = [
            t.text for t in tokenize(text)
            if t.kind == TokenKind.NUMBER and re.search("[eE]", t.text)
        ]
        for number in exponents:
            assert re.fullmatch(r"(\d+(\.\d+)?|\.\d+)[eE][+-]?\d+", number)
        if not re.search(r"\d[eE][+-]?\d", text):
            assert not exponents

    def test_statements_are_frozen(self):
        stmt = parse_statement("select k from t where k < 3 order by k")
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.limit = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.filters = ()
        assert isinstance(stmt.filters, tuple) and isinstance(stmt.order_by, tuple)
        insert = parse_statement("insert into t (k) values (1), (2)")
        with pytest.raises(dataclasses.FrozenInstanceError):
            insert.rows = ()
        assert insert.columns == ("k",)


class TestPlanner:
    def test_single_table_aggregate(self, db):
        stmt = parse_statement("select count(*) as c from lineitem where l_qty > 10")
        plan = plan_select(stmt, db)
        assert isinstance(plan, AggregateNode)
        assert isinstance(plan.child, ScanNode)
        assert plan.child.predicate.cache_key() == "l_qty > 10"

    def test_join_probe_is_largest_table(self, db):
        stmt = parse_statement(
            "select count(*) from lineitem, orders where l_orderkey = o_orderkey"
        )
        plan = plan_select(stmt, db)
        join = plan.child
        assert isinstance(join, JoinNode)
        assert join.probe.table == "lineitem"  # 1000 rows vs 200
        assert join.build.table == "orders"

    def test_filters_pushed_to_owning_scan(self, db):
        stmt = parse_statement(
            "select count(*) from lineitem, orders "
            "where l_orderkey = o_orderkey and o_total < 10 and l_qty > 5"
        )
        plan = plan_select(stmt, db)
        join = plan.child
        assert join.probe.predicate.cache_key() == "l_qty > 5"
        assert join.build.predicate.cache_key() == "o_total < 10"

    def test_multi_table_or_becomes_residual_with_implied_pushdown(self, db):
        stmt = parse_statement(
            "select count(*) from lineitem, orders where l_orderkey = o_orderkey "
            "and ((l_qty > 40 and o_total < 5) or (l_qty < 2 and o_total > 95))"
        )
        plan = plan_select(stmt, db)
        filter_node = plan.child
        assert isinstance(filter_node, FilterNode)
        join = filter_node.child
        # Each scan received the implied disjunction of its own parts.
        assert "OR" in join.probe.predicate.cache_key()
        assert "OR" in join.build.predicate.cache_key()

    def test_unknown_column_rejected(self, db):
        stmt = parse_statement("select count(*) from lineitem where nope = 1")
        with pytest.raises(PlannerError):
            plan_select(stmt, db)

    def test_cross_join_rejected(self, db):
        stmt = parse_statement("select count(*) from lineitem, orders")
        with pytest.raises(PlannerError):
            plan_select(stmt, db)

    def test_non_grouped_select_item_rejected(self, db):
        stmt = parse_statement("select l_qty, count(*) as c from lineitem")
        with pytest.raises(PlannerError):
            plan_select(stmt, db)

    def test_order_and_limit_stack(self, db):
        stmt = parse_statement(
            "select l_qty, count(*) as c from lineitem group by l_qty "
            "order by c desc limit 3"
        )
        plan = plan_select(stmt, db)
        assert isinstance(plan, LimitNode)
        assert isinstance(plan.child, SortNode)


class TestEndToEndSQL:
    def test_select_correctness(self, db):
        engine = QueryEngine(db, predicate_cache=PredicateCache())
        result = engine.execute("select count(*) as c from lineitem where l_qty >= 25")
        qty = db.table("lineitem").read_column_all("l_qty")
        assert result.scalar() == int((qty >= 25).sum())

    def test_projection_select(self, db):
        engine = QueryEngine(db)
        result = engine.execute(
            "select l_qty * 2 as dbl from lineitem where l_qty > 48"
        )
        qty = db.table("lineitem").read_column_all("l_qty")
        assert sorted(result.column("dbl").tolist()) == sorted(
            (qty[qty > 48] * 2).tolist()
        )

    def test_select_star(self, db):
        engine = QueryEngine(db)
        result = engine.execute("select * from orders limit 5")
        assert result.num_rows == 5
        assert set(result.column_order) == {"o_orderkey", "o_custkey", "o_total"}

    def test_insert_via_sql(self, db):
        engine = QueryEngine(db)
        before = engine.count_rows("orders")
        engine.execute("insert into orders (o_orderkey, o_custkey, o_total) values (999, 1, 5.0)")
        assert engine.count_rows("orders") == before + 1

    def test_delete_and_update_via_sql(self, db):
        engine = QueryEngine(db)
        deleted = engine.execute("delete from orders where o_custkey = 3")
        assert deleted.column("affected")[0] > 0
        remaining = engine.execute("select count(*) as c from orders where o_custkey = 3")
        assert remaining.scalar() == 0
        updated = engine.execute("update orders set o_total = 0.0 where o_custkey = 5")
        zeros = engine.execute(
            "select count(*) as c from orders where o_custkey = 5 and o_total = 0.0"
        )
        assert zeros.scalar() == updated.column("affected")[0]

    def test_vacuum_via_sql(self, db):
        engine = QueryEngine(db)
        engine.execute("delete from orders where o_custkey = 2")
        result = engine.execute("vacuum orders")
        assert result.column("affected")[0] == 1
