"""The statement cache: a repeated SELECT text is parsed once, and so is
each SELECT template (its text with the literals lifted out).

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

Templates have twins of their own: a text bound from the tree another
text of its template parsed to equals the statement ``parse_statement``
builds for it, over generated SELECTs and pinned texts, and texts of
one template call the parser once.
"""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, PredicateCache, QueryEngine, QueryServer
from repro.engine import engine as engine_module
from repro.engine.engine import STATEMENT_CACHE_TEXTS
from repro.sql import parse_statement
from repro.sql.template import Template, lift_literals
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
    # Other texts of templates above: bound from the first one's tree.
    "select k, v, w from t where k < 35",
    "select * from d where dk < 55",
    "select count(*) as c from d where g < 7",
    "select k, v, g from t join d on k = dk where k < 30 and g < 4",
    "select count(*) as c from t where nope = 2",
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


# -- templates: a text's literals bound into its template's tree ----------------

_columns = st.sampled_from(["k", "v", "w", "t.k"])
_ints = st.integers(0, 10**6).map(str)
_floats = st.builds("{}.{}".format, st.integers(0, 999), st.integers(0, 99))
_strings = st.text(st.sampled_from("ab' 8%"), max_size=4).map(
    lambda s: "'" + s.replace("'", "''") + "'"
)
_negatives = st.integers(1, 99).map("-{}".format)
_literals = st.one_of(_ints, _floats, _strings, _negatives)
_op = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _filter(depth=2):
    atom = st.one_of(
        st.builds("{} {} {}".format, _columns, _op, _literals),
        st.builds("{} between {} and {}".format, _columns, _literals, _literals),
        st.builds(
            lambda c, vs, neg: f"{c} {'not in' if neg else 'in'} ({', '.join(vs)})",
            _columns, st.lists(_literals, min_size=1, max_size=4), st.booleans(),
        ),
        st.builds("{} like {}".format, _columns, _strings),
    )
    if depth == 0:
        return atom
    inner = _filter(depth - 1)
    return st.one_of(
        atom,
        st.builds("not ({})".format, inner),
        st.builds("({}) or ({})".format, inner, inner),
        st.builds("{} and {}".format, inner, inner),
    )


_selects = st.builds(
    lambda items, where, order, limit: (
        f"select {items} from t where {where}"
        + (f" order by {order}" if order else "")
        + (f" limit {limit}" if limit is not None else "")
    ),
    st.sampled_from(["k, v", "count(*) as c", "k, v + 2 as x", "sum(v * 3)"]),
    _filter(),
    st.sampled_from(["", "1", "1 desc", "k"]),
    st.one_of(st.none(), st.integers(0, 50)),
)


def bound(template_text, text):
    """``text`` compiled through the template built from ``template_text``,
    or None when the two texts do not share a template key."""
    first, lifted = lift_literals(template_text), lift_literals(text)
    template = Template(
        parse_statement(template_text, first.slots()), len(first.values)
    )
    assert template.complete, template_text
    if first.key != lifted.key:
        return None
    return template.bind(lifted.values)


def _relit(text, draw):
    """``text`` with every unsigned literal replaced by another of its
    kind: a text of the same template."""
    out = []
    for piece in _LITERAL_PIECE.split(text):
        if _LITERAL_PIECE.fullmatch(piece):
            if piece.startswith("'"):
                piece = draw(_strings)
            elif "." in piece:
                piece = draw(_floats)
            else:
                piece = draw(_ints)
        out.append(piece)
    return "".join(out)


#: The literals the strategies above spell that a template lifts (a
#: number after a minus sign is not one); the ORDER BY and LIMIT tail is
#: kept out by splitting on it first.
_LITERAL_PIECE = re.compile(r"('(?:[^']|'')*'|(?<![\w.\-])\d+(?:\.\d+)?)")


@settings(max_examples=300, deadline=None)
@given(text=_selects, data=st.data())
def test_a_bound_template_equals_the_parse_of_its_text(text, data):
    """Any text of a template, bound from the tree another text of it
    parsed to, is the statement ``parse_statement`` builds for it."""
    assert bound(text, text) == parse_statement(text)
    head, sep, tail = text.partition(" order by ")
    if not sep:
        head, sep, tail = text.partition(" limit ")
    other = _relit(head, data.draw) + sep + tail
    statement = bound(text, other)
    assert statement is not None, (text, other)
    assert statement == parse_statement(other)


@pytest.mark.parametrize(
    "text, other",
    [
        ("select k from t where s = 'it''s'", "select k from t where s = 'o''k'''"),
        ("select k from t where k < 1e3", "select k from t where k < 2E-2"),
        ("select k from t where k < .5", "select k from t where k < .25"),
        ("select k from t1 where t1.c2 = 8", "select k from t1 where t1.c2 = 9"),
        ("select k from t where k = ٣", "select k from t where k = 7"),
        ("select k from t where k in (1, 2)", "select k from t where k in (3, 4)"),
        ("select k, 7 from t where k > 1 order by 2 limit 3",
         "select k, 8 from t where k > 2 order by 2 limit 3"),
    ],
)
def test_pinned_texts_bind_as_they_parse(text, other):
    assert bound(text, text) == parse_statement(text)
    assert bound(text, other) == parse_statement(other)


def test_a_literal_kind_is_part_of_the_key():
    """``8``, ``8.0`` and ``'8'`` are three templates, and so are IN lists
    of two lengths; a number after a minus sign, the ORDER BY position and
    the LIMIT count stay in the key, so texts that differ there never
    share a template."""
    texts = [
        "select k from t where k = 8",
        "select k from t where k = 8.0",
        "select k from t where k = '8'",
        "select k from t where k in (1, 2)",
        "select k from t where k in (1, 2, 3)",
        "select k from t where k = -5",
        "select k from t where k = -6",
        "select k, v from t where k = 1 order by 1",
        "select k, v from t where k = 1 order by 2",
        "select k from t where k = 1 limit 5",
        "select k from t where k = 1 limit 6",
    ]
    keys = [lift_literals(text).key for text in texts]
    assert len(set(keys)) == len(texts)
    for text in texts:
        assert bound(text, text) == parse_statement(text)
    assert lift_literals("select k from t where k = 8").values == (8,)
    assert lift_literals("select k from t where k = 8.0").values == (8.0,)
    assert lift_literals("select k from t where s = 'it''s'").values == ("it's",)
    assert lift_literals("select k from t where k = ٣").values == (3,)
    # Not a SELECT: nothing is lifted.
    assert lift_literals("insert into t values (1, 2, 3)").key is None


@pytest.mark.parametrize(
    "sql",
    [
        "select k from t where k < ²",
        "select k from t where k = 'open",
        "select k from t where k = 1e3e4",
        "select k from t where 1order by 1",
        "select k from t where k = 1 order by 9",
        "select k from t where k = \x00s",
    ],
)
def test_a_bad_text_raises_what_a_fresh_parse_raises(sql):
    """The first text of a template is parsed itself, so a text the
    parser rejects raises exactly the fresh engine's error, and it leaves
    no template a later text could bind from."""
    warm, fresh = Side(warm=True), Side(warm=False)
    assert warm.run(sql)[0] == "error"
    assert_same(warm.run(sql), fresh.run(sql), sql)
    assert warm.warm._templates == {}


def test_texts_of_one_template_parse_once(monkeypatch):
    """Twenty never-seen texts of one template: one ``parse_statement``
    call, and every answer the fresh engine's."""
    calls = []
    real = engine_module.parse_statement

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "parse_statement", counted)
    warm, fresh = Side(warm=True), Side(warm=False)
    texts = [f"select k, v from t where k < {i} and v >= {i // 2}" for i in range(20)]
    parsed = []
    for sql in texts:
        before = len(calls)
        answer = warm.run(sql)
        parsed += calls[before:]
        assert_same(answer, fresh.run(sql), sql)  # the fresh side parses each
    assert parsed == texts[:1]
    assert len(warm.warm._templates) == 1
