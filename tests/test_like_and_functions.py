"""LIKE predicates and scalar functions, unit + end-to-end."""

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.engine.expr import Func, column
from repro.predicates import Like, col, parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.dtypes import date_to_days


def batch(**cols):
    return {k: np.asarray(v) for k, v in cols.items()}


class TestLikeUnit:
    def test_percent_wildcards(self):
        values = batch(s=np.array(["PROMO TIN", "STANDARD", "XPROMO"], dtype=object))
        assert Like(col("s"), "PROMO%").evaluate(values).tolist() == [True, False, False]
        assert Like(col("s"), "%PROMO%").evaluate(values).tolist() == [True, False, True]
        assert Like(col("s"), "%TIN").evaluate(values).tolist() == [True, False, False]

    def test_underscore_wildcard(self):
        values = batch(s=np.array(["cat", "cut", "cart"], dtype=object))
        assert Like(col("s"), "c_t").evaluate(values).tolist() == [True, True, False]

    def test_negation(self):
        values = batch(s=np.array(["a", "b"], dtype=object))
        assert Like(col("s"), "a%", negated=True).evaluate(values).tolist() == [False, True]

    def test_regex_metacharacters_escaped(self):
        values = batch(s=np.array(["a.b", "axb"], dtype=object))
        assert Like(col("s"), "a.b").evaluate(values).tolist() == [True, False]

    def test_exact_match_without_wildcards(self):
        values = batch(s=np.array(["abc", "abcd"], dtype=object))
        assert Like(col("s"), "abc").evaluate(values).tolist() == [True, False]

    def test_prefix_bounds(self):
        bounds = Like(col("s"), "PROMO%").bounds("s")
        assert bounds.lo == "PROMO"
        assert bounds.hi_strict
        assert Like(col("s"), "%BRASS").bounds("s") is None
        assert Like(col("s"), "A%", negated=True).bounds("s") is None

    def test_prefix_bounds_end_at_the_successor_of_the_prefix(self):
        assert Like(col("s"), "abc%").bounds("s").hi == "abd"
        assert Like(col("s"), "a\U0010ffff%").bounds("s").hi == "b"
        top = Like(col("s"), "\U0010ffff%").bounds("s")
        assert top.lo == "\U0010ffff" and top.hi is None

    def test_cache_key(self):
        assert Like(col("s"), "a%").cache_key() == "s LIKE 'a%'"
        assert Like(col("s"), "a%", negated=True).cache_key() == "s NOT LIKE 'a%'"

    def test_parse(self):
        pred = parse_predicate("p_type like 'PROMO%'")
        assert isinstance(pred, Like)
        negated = parse_predicate("p_type not like '%BRASS'")
        assert isinstance(negated, Like) and negated.negated


class TestFuncUnit:
    def test_year(self):
        days = np.array([date_to_days("1994-01-01"), date_to_days("1999-12-31")])
        assert Func("year", column("d")).evaluate(batch(d=days)).tolist() == [1994, 1999]

    def test_month(self):
        days = np.array([date_to_days("1994-03-15"), date_to_days("1994-12-01")])
        assert Func("month", column("d")).evaluate(batch(d=days)).tolist() == [3, 12]

    def test_abs(self):
        assert Func("abs", column("x")).evaluate(batch(x=[-3, 4])).tolist() == [3, 4]

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            Func("sqrt", column("x"))

    def test_label_and_columns(self):
        f = Func("year", column("d"))
        assert f.label() == "year(d)"
        assert f.columns() == frozenset({"d"})


class TestEndToEnd:
    @pytest.fixture()
    def engine(self):
        db = Database(num_slices=2, rows_per_block=100)
        db.create_table(
            TableSchema(
                "items",
                (
                    ColumnSpec("name", DataType.STRING),
                    ColumnSpec("sold", DataType.DATE),
                    ColumnSpec("price", DataType.FLOAT64),
                ),
            )
        )
        engine = QueryEngine(db, predicate_cache=PredicateCache())
        rng = np.random.default_rng(0)
        names = np.array(
            [f"{p} widget" for p in ("green", "red", "blue", "dark green")],
            dtype=object,
        )[rng.integers(0, 4, 8000)]
        engine.insert(
            "items",
            {
                "name": names,
                "sold": rng.integers(
                    date_to_days("1994-01-01"), date_to_days("1997-01-01"), 8000
                ),
                "price": rng.random(8000) * 100,
            },
        )
        return engine

    def test_like_in_sql(self, engine):
        result = engine.execute(
            "select count(*) as c from items where name like '%green%'"
        )
        names = engine.database.table("items").read_column_all("name")
        assert result.scalar() == sum("green" in n for n in names)

    def test_like_is_cached(self, engine):
        sql = "select count(*) as c from items where name like 'green%'"
        first = engine.execute(sql)
        second = engine.execute(sql)
        assert first.scalar() == second.scalar()
        assert second.counters.cache_hits == 1

    def test_year_group_by(self, engine):
        result = engine.execute(
            "select year(sold) as y, count(*) as c from items group by y order by y"
        )
        assert result.column("y").tolist() == [1994, 1995, 1996]
        assert result.column("c").sum() == 8000

    def test_year_with_filter_and_cache(self, engine):
        sql = (
            "select year(sold) as y, sum(price) as s from items "
            "where name like 'red%' group by y order by y"
        )
        first = engine.execute(sql)
        second = engine.execute(sql)
        np.testing.assert_allclose(
            np.asarray(first.column("s"), float), np.asarray(second.column("s"), float)
        )

    def test_explain_shows_map(self, engine):
        text = engine.explain(
            "select year(sold) as y, count(*) as c from items group by y"
        )
        assert "Map(y=year(sold))" in text


def test_prefix_like_keeps_values_whose_next_character_sorts_above_u_ffff():
    """'abc\U0001F600' and 'abc\uffffz' match 'abc%'.  A prefix bound of
    'abc' followed by U+FFFF sorted below both, so the zone maps pruned
    their blocks and the count lost 8 of 12 rows."""
    db = Database(num_slices=1, rows_per_block=4)
    db.create_table(TableSchema("t", (ColumnSpec("s", DataType.STRING),)))
    engine = QueryEngine(db, predicate_cache=PredicateCache())
    engine.insert("t", {
        "s": ["abc\U0001F600"] * 4 + ["abc\uffffz"] * 4 + ["zzz"] * 4 + ["abcd"] * 4
    })
    zonemap = db.table("t").slices[0].columns["s"].zonemap
    bounds = Like(col("s"), "abc%").bounds("s")
    assert zonemap.pruned_blocks(bounds).tolist() == [False, False, True, False]
    sql = "select count(*) as c from t where s like 'abc%'"
    for _ in range(2):  # the miss, then the hit on the entry it installed
        result = engine.execute(sql)
        assert result.column("c")[0] == 12
        assert result.counters.blocks_pruned_zonemap == 1
