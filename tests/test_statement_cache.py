"""The statement cache: a repeated SELECT text is parsed once.

``QueryEngine`` keeps each SELECT text's frozen statement and plans it
afresh on every execution.  The reference is a fresh engine per
statement (an empty statement cache) over a twin database and a twin
predicate cache: after every step of a random script both sides return
the same rows in the same column order with the same counters (rows
scanned, blocks accessed, Bloom probes, ...), or raise the same error.
The script repeats SELECT texts across INSERT / DELETE / UPDATE,
VACUUM, a drop and re-create of a table under the same name
with another schema, and growth of the dimension table past the fact
table, which turns a fresh plan's join around.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, PredicateCache, QueryEngine, QueryServer
from repro.engine.engine import STATEMENT_CACHE_TEXTS
from repro.storage import ColumnSpec, DataType, TableSchema

from tests.test_differential import assert_rows_equal

#: The dimension table's schemas: the same name, other columns or order.
DIM_SCHEMAS = {
    "dk-g": (("dk", DataType.INT64), ("g", DataType.INT64)),
    "g-dk": (("g", DataType.INT64), ("dk", DataType.INT64)),
    "dk-h": (("dk", DataType.INT64), ("h", DataType.FLOAT64)),
}

SELECTS = [
    "select k, v, w from t where k < 25",
    "select count(*) as c, sum(v) as s from t where v >= 60",
    "SELECT  count(*) AS c FROM t WHERE k BETWEEN 10 AND 70;",
    "select w, count(*) as c from t where k < 50 group by w order by w",
    "select k from t where w = 13 order by k desc limit 5",
    "select * from d",
    "select * from d where dk < 40",
    "select g, count(*) as c from d group by g order by g",
    "select sum(h) as s from d where dk >= 10",
    "select count(*) as c from d where g < 5",
    "select k, v, g from t join d on k = dk where k < 60 and g < 3",
    "select count(*) as c from t, d where k = dk and v < 50",
    "select count(*) as c from t where nope = 1",
]

step_strategy = st.one_of(
    st.tuples(st.just("select"), st.sampled_from(SELECTS)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(1, 20)),
    st.tuples(st.just("delete"), st.integers(0, 100)),
    st.tuples(st.just("update"), st.integers(0, 100), st.integers(0, 100)),
    st.tuples(st.just("vacuum"), st.sampled_from(["", " t"])),
    st.tuples(st.just("recreate"), st.sampled_from(sorted(DIM_SCHEMAS))),
    st.tuples(st.just("grow"), st.integers(0, 2**16), st.integers(200, 900)),
)


def create_dim(db, schema_name, seed):
    columns = DIM_SCHEMAS[schema_name]
    db.create_table(
        TableSchema("d", tuple(ColumnSpec(name, dtype) for name, dtype in columns))
    )
    grow_dim(db, seed, 60)


def grow_dim(db, seed, count):
    """Append ``count`` rows to ``d`` under its current schema.  Once
    ``d`` outgrows ``t`` a fresh plan of a join probes from ``d``."""
    rng = np.random.default_rng(seed)
    rows = {
        spec.name: (
            rng.integers(0, 100, count)
            if spec.dtype is DataType.INT64
            else rng.random(count)
        )
        for spec in db.table("d").schema.columns
    }
    db.table("d").insert(rows, db.begin())


def make_db():
    db = Database(num_slices=2, rows_per_block=32)
    db.create_table(
        TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in "kvw"))
    )
    rng = np.random.default_rng(5)
    db.table("t").insert({c: rng.integers(0, 100, 400) for c in "kvw"}, db.begin())
    create_dim(db, "dk-g", 0)
    return db


class Side:
    """One side of the comparison: a database, a predicate cache and
    either one engine for the whole script or a fresh one per statement."""

    def __init__(self, warm):
        self.db = make_db()
        self.cache = PredicateCache()
        self.warm = QueryEngine(self.db, predicate_cache=self.cache) if warm else None

    def engine(self):
        if self.warm is not None:
            return self.warm
        return QueryEngine(self.db, predicate_cache=self.cache)

    def run(self, sql):
        """``("ok", result)`` or ``("error", type, message)``."""
        try:
            return ("ok", self.engine().execute(sql))
        except Exception as exc:  # the fresh side must raise the same
            return ("error", type(exc), str(exc))


def step_sql(step):
    kind = step[0]
    if kind == "select":
        return step[1]
    if kind == "insert":
        rng = np.random.default_rng(step[1])
        values = rng.integers(0, 100, (step[2], 3))
        return "insert into t values " + ", ".join(
            f"({k}, {v}, {w})" for k, v, w in values
        )
    if kind == "delete":
        return f"delete from t where k = {step[1]}"
    if kind == "update":
        return f"update t set w = {step[2]} where v = {step[1]}"
    if kind == "vacuum":
        return "vacuum" + step[1]
    return None


def assert_same(a, b, context):
    assert a[0] == b[0], f"{context}: {a} vs {b}"
    if a[0] == "error":
        assert a == b, context
        return
    ra, rb = a[1], b[1]
    assert ra.column_order == rb.column_order, context
    assert_rows_equal(ra.rows(), rb.rows(), context)
    # Every counter, not only rows_scanned and blocks_accessed: the Bloom
    # probes also tell which side of a join the plan probed from.
    work_a, work_b = ra.counters.as_dict(), rb.counters.as_dict()
    del work_a["wall_seconds"], work_b["wall_seconds"]
    assert work_a == work_b, context


def run_script(steps):
    warm, fresh = Side(warm=True), Side(warm=False)
    for step_no, step in enumerate(steps):
        context = f"step {step_no} {step}"
        if step[0] == "recreate":
            for side in (warm, fresh):
                side.db.drop_table("d")
                create_dim(side.db, step[1], step_no)
            continue
        if step[0] == "grow":
            for side in (warm, fresh):
                grow_dim(side.db, step[1], step[2])
            continue
        sql = step_sql(step)
        assert_same(warm.run(sql), fresh.run(sql), context)
    return warm


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(step_strategy, min_size=1, max_size=40))
def test_warm_statement_cache_matches_a_fresh_engine(steps):
    run_script(steps)


def test_a_text_plans_against_the_schema_of_the_day():
    """The same SELECT texts after their table is dropped and re-created
    (a new column order, then a missing column, then the old schema) and
    after it outgrows the fact table, which turns the join around."""
    steps = [
        ("select", "select * from d"),
        ("select", "select g, count(*) as c from d group by g order by g"),
        ("select", "select count(*) as c from d where g < 5"),
        ("select", "select count(*) as c from t, d where k = dk and v < 50"),
    ]
    script = list(steps)
    for schema in ("g-dk", "dk-h", "dk-g"):
        script += [("recreate", schema)] + steps + [("grow", 3, 900)] + steps
    warm = run_script(script)
    assert set(warm.warm._statements) == {sql for _, sql in steps}


def test_the_bound_clears_and_results_stay_equal():
    warm, fresh = Side(warm=True), Side(warm=False)
    texts = [
        f"select count(*) as c from t where k < {i % 100} and v >= {i // 100}"
        for i in range(STATEMENT_CACHE_TEXTS + 100)
    ]
    for i, sql in enumerate(texts + texts[:50] + texts[-50:]):
        assert_same(warm.run(sql), fresh.run(sql), f"text {i}: {sql}")
        assert len(warm.warm._statements) <= STATEMENT_CACHE_TEXTS
    # Cleared once, at text 1,024: the 100 after it, the first 50 again,
    # then the last 50 repeats.
    assert len(warm.warm._statements) == 150


def test_two_server_workers_share_the_statement_cache():
    """Two clients through two ``QueryServer`` workers run the same
    SELECT texts, more than the bound holds, in opposite orders: every
    answer is the count numpy takes over the table's columns."""
    db = make_db()
    engine = QueryEngine(db, predicate_cache=PredicateCache())
    texts = [
        f"select count(*) as c from t where k < {i % 100} and w >= {i // 100}"
        for i in range(STATEMENT_CACHE_TEXTS + 76)
    ]
    keys = db.table("t").read_column_all("k")
    ws = db.table("t").read_column_all("w")
    expected = {
        sql: int(np.count_nonzero((keys < i % 100) & (ws >= i // 100)))
        for i, sql in enumerate(texts)
    }
    answers = [[], []]

    def client(index):
        order = texts if index == 0 else texts[::-1]
        for sql in order + order[:200]:
            answers[index].append((sql, server.execute(sql)))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with QueryServer(engine, max_workers=2) as server:
            threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)
    for responses in answers:
        assert len(responses) == len(texts) + 200
        for sql, response in responses:
            assert response.ok, (sql, response.error)
            assert response.result.scalar() == expected[sql], sql
    # Check-then-clear is not atomic: two workers that both saw one slot
    # left may each add a text, so the bound can be passed by one.
    assert len(engine._statements) <= STATEMENT_CACHE_TEXTS + 1


@pytest.mark.parametrize("sql", ["insert into t values (1, 2, 3)", "vacuum t"])
def test_only_selects_are_kept(sql):
    engine = QueryEngine(make_db())
    engine.execute(sql)
    engine.execute("select count(*) from t")
    assert list(engine._statements) == ["select count(*) from t"]
