"""Plan execution: joins, aggregation, projection, sort/limit, filters."""

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.core.config import PredicateCacheConfig
from repro.core.entry import RangeSliceState
from repro.engine import executor as executor_module
from repro.engine.executor import _hash_join_indices
from repro.engine.hashing import stable_int_keys
from repro.engine.expr import Col, Const
from repro.engine.plan import (
    AggregateNode,
    Aggregation,
    FilterNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema


@pytest.fixture()
def star_db():
    db = Database(num_slices=2, rows_per_block=50)
    db.create_table(
        TableSchema(
            "fact",
            (
                ColumnSpec("fk", DataType.INT64),
                ColumnSpec("amount", DataType.FLOAT64),
                ColumnSpec("tag", DataType.INT64),
            ),
        )
    )
    db.create_table(
        TableSchema(
            "dim",
            (ColumnSpec("pk", DataType.INT64), ColumnSpec("label", DataType.STRING)),
        )
    )
    rng = np.random.default_rng(7)
    engine = QueryEngine(db, predicate_cache=PredicateCache())
    engine.insert(
        "dim",
        {
            "pk": np.arange(100),
            "label": np.array([f"L{i % 10}" for i in range(100)], dtype=object),
        },
    )
    engine.insert(
        "fact",
        {
            "fk": rng.integers(0, 100, 5000),
            "amount": rng.random(5000).round(3),
            "tag": rng.integers(0, 5, 5000),
        },
    )
    return db, engine


class TestHashJoinIndices:
    def test_pk_fk_join(self):
        probe = np.array([3, 1, 3, 9], dtype=np.int64)
        build = np.array([1, 3, 5], dtype=np.int64)
        p, b = _hash_join_indices(probe, build)
        pairs = sorted(zip(p.tolist(), b.tolist()))
        assert pairs == [(0, 1), (1, 0), (2, 1)]

    def test_duplicates_produce_cross_product(self):
        probe = np.array([7, 7], dtype=np.int64)
        build = np.array([7, 7, 7], dtype=np.int64)
        p, b = _hash_join_indices(probe, build)
        assert len(p) == 6

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        some = np.array([1], dtype=np.int64)
        assert _hash_join_indices(empty, some)[0].shape == (0,)
        assert _hash_join_indices(some, empty)[1].shape == (0,)


class TestJoins:
    def test_join_matches_brute_force(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            JoinNode(
                ScanNode("fact"),
                ScanNode("dim", parse_predicate("label = 'L3'")),
                "fk",
                "pk",
            ),
            [],
            [Aggregation("sum", Col("amount"), "total")],
        )
        result = engine.execute_plan(plan)
        fk = db.table("fact").read_column_all("fk")
        amount = db.table("fact").read_column_all("amount")
        labels = db.table("dim").read_column_all("label")
        pks = db.table("dim").read_column_all("pk")
        good = {int(k) for k, l in zip(pks, labels) if l == "L3"}
        expected = sum(a for k, a in zip(fk, amount) if int(k) in good)
        assert result.scalar() == pytest.approx(expected)

    def test_join_without_semijoin_flag(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            JoinNode(
                ScanNode("fact"),
                ScanNode("dim", parse_predicate("label = 'L3'")),
                "fk",
                "pk",
                semijoin=False,
            ),
            [],
            [Aggregation("count", None, "cnt")],
        )
        with_flag = engine.execute_plan(
            AggregateNode(
                JoinNode(
                    ScanNode("fact"),
                    ScanNode("dim", parse_predicate("label = 'L3'")),
                    "fk",
                    "pk",
                ),
                [],
                [Aggregation("count", None, "cnt")],
            )
        )
        without = engine.execute_plan(plan)
        assert with_flag.scalar() == without.scalar()

    def test_semijoin_filter_reduces_qualifying_rows(self, star_db):
        db, engine = star_db
        counters_rows = []
        plan = AggregateNode(
            JoinNode(
                ScanNode("fact"),
                ScanNode("dim", parse_predicate("label = 'L3'")),
                "fk",
                "pk",
            ),
            [],
            [Aggregation("count", None, "cnt")],
        )
        result = engine.execute_plan(plan)
        # ~10% of dim keys match L3, so the bloom filter admits ~10% of
        # fact rows (plus false positives).
        assert result.counters.rows_qualifying < 5000 * 0.2 + 100


def _reference_scan(table, predicate, filters, txid):
    """Per-slice qualifying row ids of a scan that probes *every* row
    with every filter and ANDs the masks, plus the number of keys a
    survivors-only probe hands the filters: the rows passing predicate,
    visibility and every earlier filter."""
    per_slice, probes = [], 0
    for data_slice in table.slices:
        batch = {
            name: column.read_all(table.rms)
            for name, column in data_slice.columns.items()
        }
        mask = predicate.evaluate(batch) & data_slice.visibility_mask(
            data_slice.cover(), txid
        )
        for f in filters:
            probes += int(np.count_nonzero(mask))
            mask = mask & f.bloom.may_contain(stable_int_keys(batch[f.probe_column]))
        per_slice.append(np.flatnonzero(mask))
    return per_slice, probes


class TestSemiJoinProbe:
    def test_probing_survivors_only_changes_no_result(self, monkeypatch):
        """A star join whose fact scan carries two semi-join filters: the
        filters probe only the rows still qualifying, and rows, counts
        and every installed fact entry equal a probe-every-row scan."""
        db = Database(num_slices=2, rows_per_block=50)
        db.create_table(
            TableSchema(
                "fact",
                tuple(
                    ColumnSpec(name, DataType.INT64)
                    for name in ("id", "fk1", "fk2", "tag")
                ),
            )
        )
        for dim, key, group in (("dim1", "pk1", "g1"), ("dim2", "pk2", "g2")):
            db.create_table(
                TableSchema(
                    dim, (ColumnSpec(key, DataType.INT64), ColumnSpec(group, DataType.INT64))
                )
            )
        cache = PredicateCache(PredicateCacheConfig(variant="range"))
        engine = QueryEngine(db, predicate_cache=cache)
        engine.insert("dim1", {"pk1": np.arange(200), "g1": np.arange(200) % 10})
        engine.insert("dim2", {"pk2": np.arange(300), "g2": np.arange(300) % 7})
        rng = np.random.default_rng(27)
        n = 6000
        engine.insert(
            "fact",
            {
                "id": np.arange(n),
                "fk1": rng.integers(0, 200, n),
                "fk2": rng.integers(0, 300, n),
                "tag": rng.integers(0, 5, n),
            },
        )
        # Deleted rows still pass ``tag < 4``: only visibility drops them.
        engine.delete_where("fact", parse_predicate("tag = 0"))

        fact_filters = []
        real_execute_scan = executor_module.execute_scan

        def recording_execute_scan(table, predicate, statement, semijoins=(), **kw):
            if table.name == "fact":
                fact_filters.append(list(semijoins))
            return real_execute_scan(table, predicate, statement, semijoins, **kw)

        monkeypatch.setattr(executor_module, "execute_scan", recording_execute_scan)
        predicates = {
            name: parse_predicate(text)
            for name, text in (("fact", "tag < 4"), ("dim1", "g1 = 3"), ("dim2", "g2 < 3"))
        }
        plan = ProjectNode(
            JoinNode(
                JoinNode(
                    ScanNode("fact", predicates["fact"]),
                    ScanNode("dim1", predicates["dim1"]),
                    "fk1",
                    "pk1",
                ),
                ScanNode("dim2", predicates["dim2"]),
                "fk2",
                "pk2",
            ),
            [("id", Col("id"))],
        )
        first = engine.execute_plan(plan)
        repeat = engine.execute_plan(plan)

        filters = fact_filters[0]
        assert len(filters) == 2
        txid = db.begin()
        reference = {
            name: _reference_scan(
                db.table(name), predicate, filters if name == "fact" else [], txid
            )
            for name, predicate in predicates.items()
        }
        fact_rows, probes = reference["fact"]

        # Rows: the hash join is exact, so the ids are the reference
        # qualifying rows with a partner on both dimensions.
        fact = db.table("fact")
        partner1 = np.flatnonzero(np.arange(200) % 10 == 3)
        partner2 = np.flatnonzero(np.arange(300) % 7 < 3)
        expected_ids = []
        for data_slice, rows in zip(fact.slices, fact_rows):
            values = {
                name: data_slice.columns[name].read_all(fact.rms)[rows]
                for name in ("id", "fk1", "fk2")
            }
            joined = np.isin(values["fk1"], partner1) & np.isin(values["fk2"], partner2)
            expected_ids.extend(values["id"][joined].tolist())
        expected_ids.sort()
        assert sorted(first.column("id").tolist()) == expected_ids
        assert sorted(repeat.column("id").tolist()) == expected_ids

        assert first.counters.rows_qualifying == sum(
            len(rows) for per_slice, _ in reference.values() for rows in per_slice
        )
        # The cold scan probed every row passing predicate, visibility
        # and the earlier filter — fewer keys than two full passes.
        assert first.counters.bloom_probes == probes
        assert probes < 2 * sum(s.num_rows for s in fact.slices)

        plain_rows, _ = _reference_scan(fact, predicates["fact"], [], txid)
        fact_entries = [e for e in cache.entries() if e.key.table == "fact"]
        assert any(e.key.is_join_key for e in fact_entries)
        for entry in fact_entries:
            rows = fact_rows if entry.key.is_join_key else plain_rows
            assert entry.slice_states == [
                RangeSliceState(
                    rows[slice_id],
                    data_slice.num_rows,
                    cache.config.max_ranges_per_slice,
                )
                for slice_id, data_slice in enumerate(fact.slices)
            ]


class TestAggregation:
    def test_group_by_single_column(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            ScanNode("fact"),
            ["tag"],
            [
                Aggregation("count", None, "cnt"),
                Aggregation("sum", Col("amount"), "total"),
                Aggregation("avg", Col("amount"), "mean"),
                Aggregation("min", Col("amount"), "lo"),
                Aggregation("max", Col("amount"), "hi"),
            ],
        )
        result = engine.execute_plan(plan)
        tags = db.table("fact").read_column_all("tag")
        amounts = db.table("fact").read_column_all("amount")
        for i, tag in enumerate(result.column("tag")):
            members = amounts[tags == tag]
            assert result.column("cnt")[i] == len(members)
            assert result.column("total")[i] == pytest.approx(members.sum())
            assert result.column("mean")[i] == pytest.approx(members.mean())
            assert result.column("lo")[i] == pytest.approx(members.min())
            assert result.column("hi")[i] == pytest.approx(members.max())

    def test_group_by_multiple_columns(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            JoinNode(ScanNode("fact"), ScanNode("dim"), "fk", "pk"),
            ["tag", "label"],
            [Aggregation("count", None, "cnt")],
        )
        result = engine.execute_plan(plan)
        assert result.column("cnt").sum() == 5000
        assert result.num_rows <= 5 * 10

    def test_count_distinct(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            ScanNode("fact"),
            ["tag"],
            [Aggregation("count_distinct", Col("fk"), "dk")],
        )
        result = engine.execute_plan(plan)
        tags = db.table("fact").read_column_all("tag")
        fks = db.table("fact").read_column_all("fk")
        for i, tag in enumerate(result.column("tag")):
            assert result.column("dk")[i] == len(np.unique(fks[tags == tag]))

    def test_global_aggregate_on_empty_result(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            ScanNode("fact", parse_predicate("tag = 999")),
            [],
            [Aggregation("count", None, "cnt")],
        )
        assert engine.execute_plan(plan).scalar() == 0

    @pytest.mark.parametrize("dtype", [DataType.INT64, DataType.DATE])
    def test_min_and_max_are_exact_past_2_to_the_53(self, dtype):
        """An integer column's MIN / MAX keep its dtype: through float64
        ``2**53 + 3`` reads ``2**53 + 4`` and ``-(2**53 + 1)`` reads
        ``-2**53``."""
        big = 2**53
        db = Database(num_slices=2, rows_per_block=2)
        db.create_table(TableSchema("t", (
            ColumnSpec("g", DataType.INT64), ColumnSpec("x", dtype),
        )))
        engine = QueryEngine(db)
        engine.insert("t", {
            "g": np.array([0, 0, 1, 1, 0]),
            "x": np.array([big + 1, big + 3, 5, -(big + 1), -3], dtype=np.int64),
        })
        result = engine.execute("select max(x) as hi, min(x) as lo from t")
        assert result.column("hi").dtype == result.column("lo").dtype == np.int64
        assert (result.column("hi")[0], result.column("lo")[0]) == (big + 3, -(big + 1))
        grouped = engine.execute(
            "select g, max(x) as hi, min(x) as lo from t group by g order by g"
        )
        assert grouped.column("hi").tolist() == [big + 3, 5]
        assert grouped.column("lo").tolist() == [-3, -(big + 1)]

    @pytest.mark.parametrize("dtype", [DataType.INT64, DataType.DATE])
    def test_sum_of_an_integer_column_is_exact(self, dtype):
        """SUM over an integer column keeps int64: through float64
        ``2**53 + 1`` reads ``2**53``.  An empty SUM is still 0."""
        big = 2**53
        db = Database(num_slices=2, rows_per_block=2)
        db.create_table(TableSchema("t", (
            ColumnSpec("g", DataType.INT64), ColumnSpec("x", dtype),
        )))
        engine = QueryEngine(db)
        engine.insert("t", {
            "g": np.array([0, 1, 0]), "x": np.array([big, 7, 1], dtype=np.int64),
        })
        total = engine.execute("select sum(x) as s from t").column("s")
        assert total.dtype == np.int64 and total[0] == big + 8
        assert engine.execute("select sum(x) from t where g = 0").scalar() == 9007199254740993
        grouped = engine.execute("select g, sum(x) as s from t group by g order by g")
        assert grouped.column("s").tolist() == [big + 1, 7]
        assert engine.execute("select sum(x) as s from t where g = 9").scalar() == 0

    def test_sum_that_leaves_int64_is_refused_not_wrapped(self):
        """Sums whose rows could overflow are summed exactly: one that
        fits is returned, one that does not raises."""
        db = Database(num_slices=1, rows_per_block=2)
        db.create_table(TableSchema("t", (
            ColumnSpec("g", DataType.INT64), ColumnSpec("x", DataType.INT64),
        )))
        engine = QueryEngine(db)
        top = 2**62
        engine.insert("t", {
            "g": np.array([0, 0, 1, 1]),
            "x": np.array([top, top, top, -top], dtype=np.int64),
        })
        assert engine.execute("select sum(x) from t where g = 1").scalar() == 0
        with pytest.raises(OverflowError):
            engine.execute("select sum(x) from t where g = 0")

    def test_min_and_max_over_no_rows_are_nan(self, star_db):
        db, engine = star_db
        result = engine.execute(
            "select min(tag) as lo, max(tag) as hi from fact where tag = 999"
        )
        assert np.isnan(result.column("lo")[0]) and np.isnan(result.column("hi")[0])

    def test_aggregation_validation(self):
        with pytest.raises(ValueError):
            Aggregation("median", Col("x"), "m")
        with pytest.raises(ValueError):
            Aggregation("sum", None, "s")


class TestOtherOperators:
    def test_project_expressions(self, star_db):
        db, engine = star_db
        plan = ProjectNode(
            ScanNode("fact", parse_predicate("tag = 1")),
            [("double_amount", Col("amount") * Const(2))],
        )
        result = engine.execute_plan(plan)
        amounts = db.table("fact").read_column_all("amount")
        tags = db.table("fact").read_column_all("tag")
        assert result.num_rows == int((tags == 1).sum())
        assert result.column("double_amount").max() == pytest.approx(
            2 * amounts[tags == 1].max()
        )

    def test_sort_and_limit(self, star_db):
        db, engine = star_db
        plan = LimitNode(
            SortNode(
                AggregateNode(
                    ScanNode("fact"), ["tag"], [Aggregation("count", None, "cnt")]
                ),
                [("cnt", False)],
            ),
            2,
        )
        result = engine.execute_plan(plan)
        assert result.num_rows == 2
        counts = result.column("cnt")
        assert counts[0] >= counts[1]

    def test_sort_multiple_keys(self, star_db):
        db, engine = star_db
        plan = SortNode(
            AggregateNode(
                JoinNode(ScanNode("fact"), ScanNode("dim"), "fk", "pk"),
                ["label", "tag"],
                [Aggregation("count", None, "cnt")],
            ),
            [("label", True), ("tag", False)],
        )
        result = engine.execute_plan(plan)
        labels = result.column("label")
        tags = result.column("tag")
        for i in range(1, result.num_rows):
            assert labels[i - 1] <= labels[i]
            if labels[i - 1] == labels[i]:
                assert tags[i - 1] >= tags[i]

    def test_filter_node(self, star_db):
        db, engine = star_db
        plan = AggregateNode(
            FilterNode(ScanNode("fact"), parse_predicate("tag = 2 or tag = 3")),
            [],
            [Aggregation("count", None, "cnt")],
        )
        tags = db.table("fact").read_column_all("tag")
        expected = int(((tags == 2) | (tags == 3)).sum())
        assert engine.execute_plan(plan).scalar() == expected

    def test_snowflake_chain_pushes_filter_through_build(self):
        """Semi-join filters must reach scans on inner build sides."""
        db = Database(num_slices=1, rows_per_block=50)
        db.create_table(TableSchema("f", (ColumnSpec("a", DataType.INT64),)))
        db.create_table(
            TableSchema(
                "m", (ColumnSpec("b", DataType.INT64), ColumnSpec("c", DataType.INT64))
            )
        )
        db.create_table(
            TableSchema(
                "d", (ColumnSpec("e", DataType.INT64), ColumnSpec("g", DataType.INT64))
            )
        )
        engine = QueryEngine(db, predicate_cache=PredicateCache())
        engine.insert("d", {"e": np.arange(10), "g": np.arange(10) % 2})
        engine.insert("m", {"b": np.arange(100), "c": np.arange(100) % 10})
        engine.insert("f", {"a": np.random.default_rng(0).integers(0, 100, 2000)})
        # f join m on a=b, m join d on c=e, filter g=1.
        plan = AggregateNode(
            JoinNode(
                JoinNode(ScanNode("f"), ScanNode("m"), "a", "b"),
                ScanNode("d", parse_predicate("g = 1")),
                "c",
                "e",
            ),
            [],
            [Aggregation("count", None, "cnt")],
        )
        result = engine.execute_plan(plan)
        a = db.table("f").read_column_all("a")
        expected = int(np.isin(a % 10, [1, 3, 5, 7, 9]).sum())
        assert result.scalar() == expected
