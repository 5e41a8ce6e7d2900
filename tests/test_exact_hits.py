"""Exact hits: a range state that was never merged is the answer.

On an exact-match hit whose slice state is exact (``core/entry.py``),
the scan kernel (``scan._run_scan`` / ``_evaluate_all``) takes the
state's verdict for every row below the watermark: it reads no
predicate-only column there, evaluates nothing there, and a join-keyed
state also skips the Bloom probe there.  Only the tail appended since
is read and evaluated, and visibility is still applied to every row.

The reference is the same engine with the exact-hit test patched to
"never", so every hit re-checks as the paper's scan does; a cache-off
engine is the second reference.  After every step of a random workload
the three agree on rows and ``rows_qualifying``, and the two caches hold
the same entries with equal states and equal ``exact`` flags.

A hit whose slice has not grown takes the block placement its state
keeps (``RangeSliceState.placed``); every one it takes equals a fresh
placement of the state's rows, field for field.
"""

import tempfile
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CacheStore,
    ClusterCaches,
    PredicateCache,
    PredicateCacheConfig,
    invariants,
    parse_predicate,
)
from repro.core.entry import RangeSliceState
from repro.engine import scan as scan_module
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.column import BlockCoverage
from repro.storage.rms import ManagedStorage

from tests.test_storage import assert_same_coverage
from tests.twins import COLUMNS, assert_rows_equal, seeded_engine

SEED_ROWS = 800


def forced_recheck():
    """Every hit re-checks: the exact-hit test answers "never"."""
    return mock.patch.object(
        scan_module, "_exact_state", lambda context, slice_id: None
    )


def checked_placements(taken):
    """Check every placement a hit takes from its state against a fresh
    ``BlockCoverage`` of the state's rows, field for field, and that its
    arrays are read-only; append ``(state, coverage)`` to ``taken`` for
    each."""
    original = RangeSliceState.placed

    def spy(state, num_rows, place):
        kept = original(state, num_rows, place)
        size = place.__self__.rows_per_block  # ``place`` is the slice's cover
        assert_same_coverage(kept, BlockCoverage(state.rows(num_rows), size, num_rows))
        assert not kept.row_ids.flags.writeable
        assert not kept.tail_offsets.flags.writeable
        taken.append((state, kept))
        return kept

    return mock.patch.object(RangeSliceState, "placed", spy)


def build(cache):
    """The harness's ``t`` plus the dimension ``d(dk, g)`` joins probe."""
    engine = seeded_engine(
        cache, seed=7, rows=SEED_ROWS, num_slices=4, rows_per_block=32
    )
    engine.database.create_table(
        TableSchema("d", tuple(ColumnSpec(c, DataType.INT64) for c in ("dk", "g")))
    )
    # ``g`` continues the seed's stream past the draws that filled ``t``.
    rng = np.random.default_rng(7)
    for _ in COLUMNS:
        rng.integers(0, 100, SEED_ROWS)
    engine.insert("d", {"dk": np.arange(100), "g": rng.integers(0, 10, 100)})
    return engine


class Twin:
    """One engine of the comparison; ``forced`` ones run every call
    with the exact-hit test patched out."""

    def __init__(self, config, forced, directory):
        self.forced = forced
        self.cluster = None
        if config is not None:
            self.cluster = ClusterCaches(2, config, store=CacheStore(directory))
        self.engine = build(self.cluster)
        if self.cluster is not None:
            # Restores revalidate against the database the twin built.
            self.cluster.store.catalog = self.engine.database

    def __call__(self, method, *args):
        with forced_recheck() if self.forced else nullcontext():
            return getattr(self.engine, method)(*args)


SCAN_POOL = [
    "k < 25",
    "k < 15",
    "v >= 60",
    "k < 25 and v >= 60",
    "k < 25 and v >= 60 and w < 50",
    "w = 13",
    "k between 10 and 70",
    "k between 20 and 40",
]
JOIN_POOL = ["g < 3", "g >= 7"]

step_strategy = st.one_of(
    st.tuples(
        st.just("scan"), st.sampled_from(SCAN_POOL), st.sampled_from(["rows", "agg"])
    ),
    st.tuples(
        st.just("join"), st.sampled_from(SCAN_POOL), st.sampled_from(JOIN_POOL)
    ),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(1, 80)),
    st.tuples(st.just("delete"), st.sampled_from(COLUMNS), st.integers(0, 100)),
    st.tuples(
        st.just("update"),
        st.sampled_from(COLUMNS),
        st.integers(0, 100),
        st.integers(0, 100),
    ),
    st.tuples(st.just("dim"), st.integers(0, 2**16)),
    st.just(("vacuum",)),
    st.just(("snapshot",)),
    st.tuples(st.just("resize"), st.integers(1, 3)),
)


def apply_step(twins, step):
    """Apply one step to every twin; return the statement results."""
    kind = step[0]
    if kind in ("scan", "join"):
        if kind == "scan":
            _, where, shape = step
            columns = "k, v, w" if shape == "rows" else "count(*) as c, sum(v) as s"
            sql = f"select {columns} from t where {where}"
        else:
            _, where, build = step
            sql = f"select k, v, g from t join d on k = dk where {where} and {build}"
        return [twin("execute", sql) for twin in twins]
    for twin in twins:
        if kind == "insert":
            rng = np.random.default_rng(step[1])
            twin("insert", "t", {c: rng.integers(0, 100, step[2]) for c in COLUMNS})
        elif kind == "delete":
            twin("delete_where", "t", parse_predicate(f"{step[1]} = {step[2]}"))
        elif kind == "update":
            where = parse_predicate(f"{step[1]} = {step[2]}")
            twin("update_where", "t", where, {"w": step[3]})
        elif kind == "dim":
            rng = np.random.default_rng(step[1])
            rows = {"dk": rng.integers(0, 100, 5), "g": rng.integers(0, 10, 5)}
            twin("insert", "d", rows)
        elif kind == "vacuum":
            twin("vacuum", ["t"])
        elif twin.cluster is None:
            continue
        elif kind == "snapshot":
            # Snapshot, then replace node 0: it hydrates its share from
            # the store, every restored state inexact.
            assert twin.cluster.store.snapshot(twin.cluster)
            twin.cluster.fail_node(0)
        elif kind == "resize":
            twin.cluster.resize(step[1])
    return []


def installed(cluster):
    """Every entry's key, bookkeeping and per-slice (state, exact)."""
    return {
        (node_id, entry.key): (
            [None if s is None else (s, s.exact) for s in entry.slice_states],
            entry.rows_qualifying,
            entry.rows_considered,
        )
        for node_id, node in enumerate(cluster.nodes())
        for entry in node.entries()
    }


def check_agree(twins, results, context):
    exact, forced, plain = twins
    if results:
        a, b, c = results
        assert_rows_equal(a.rows(), c.rows(), context)
        assert_rows_equal(b.rows(), c.rows(), context)
        assert a.counters.rows_qualifying == b.counters.rows_qualifying, context
        assert a.counters.rows_qualifying == c.counters.rows_qualifying, context
        assert a.counters.rows_scanned == b.counters.rows_scanned, context
        assert a.counters.blocks_accessed <= b.counters.blocks_accessed, context
        assert a.counters.bloom_probes <= b.counters.bloom_probes, context
    assert installed(exact.cluster) == installed(forced.cluster), context


CONFIGS = {
    "reuse-off": dict(enable_reuse=False),
    "reuse-on": dict(enable_reuse=True),
    "evicting": dict(enable_reuse=True, max_bytes=700),
}


def run_twins(name, steps, taken=None):
    """Run ``steps`` on the three twins, checking them after each one;
    returns the summed (blocks_accessed, bloom_probes) of the exact and
    the forced engine's statements.  Every placement a hit takes is
    checked, and appended to ``taken`` when given."""
    config = PredicateCacheConfig(
        variant="range", max_ranges_per_slice=48, **CONFIGS[name]
    )
    totals = np.zeros((2, 2), dtype=np.int64)
    with tempfile.TemporaryDirectory() as exact_dir, \
            tempfile.TemporaryDirectory() as forced_dir, \
            checked_placements([] if taken is None else taken):
        twins = (
            Twin(config, False, exact_dir),
            Twin(config, True, forced_dir),
            Twin(None, False, None),
        )
        # Every step runs twice in a row, so most scans meet a warm entry.
        for step_no, step in enumerate(step for step in steps for _ in range(2)):
            results = apply_step(twins, step)
            check_agree(twins, results, f"step {step_no} {step}")
            for row, result in zip(totals, results):
                row += (result.counters.blocks_accessed, result.counters.bloom_probes)
        for node in twins[0].cluster.nodes():
            invariants.check_cache(node)
    return totals


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(step_strategy, min_size=4, max_size=18))
def test_exact_hits_twin_a_forced_recheck(name, steps):
    run_twins(name, steps)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seeded_session_skips_reads_and_probes(name):
    """A fixed session through the same checks: the exact engine reads
    fewer blocks and probes fewer keys than the forced re-check, so the
    twin above is not vacuous."""
    rng = np.random.default_rng(5)
    # First the shared-key hazard: with reuse on, the composed scan's
    # conjunct list extends the tail of the scanned ``k < 25`` entry.
    steps = [
        ("scan", "k < 25", "rows"),
        ("insert", 1, 80),
        ("scan", "v >= 60", "rows"),
        ("scan", "k < 25 and v >= 60", "rows"),
        ("scan", "k < 25", "rows"),
    ]
    for _ in range(60):
        kind = rng.choice(
            ["scan"] * 4 + ["join"] * 2 + ["insert", "delete", "update", "dim"]
        )
        column = str(rng.choice(COLUMNS))
        where = str(rng.choice(SCAN_POOL))
        value = int(rng.integers(0, 100))
        if kind == "scan":
            steps.append(("scan", where, str(rng.choice(["rows", "agg"]))))
        elif kind == "join":
            steps.append(("join", where, str(rng.choice(JOIN_POOL))))
        elif kind == "insert":
            steps.append(("insert", value, 40))
        elif kind == "delete":
            steps.append(("delete", column, value))
        elif kind == "update":
            steps.append(("update", column, value, int(rng.integers(0, 100))))
        else:
            steps.append(("dim", value))
    steps += [("snapshot",), ("scan", "k < 25", "rows"), ("resize", 3), ("vacuum",)]
    taken = []
    exact, forced = run_twins(name, steps, taken)
    assert exact[0] < forced[0]  # blocks accessed
    assert exact[1] < forced[1]  # Bloom probes
    assert taken  # hits took kept placements, each checked


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_deleted_since_the_install_stay_in_the_kept_placement(name):
    """Scan, append, delete cached rows, scan: the state still holds the
    deleted rows (a superset), so its placement scans them too, as the
    forced re-check does; visibility drops them."""
    run_twins(name, [
        ("scan", "k < 25", "rows"),
        ("insert", 1, 80),
        ("delete", "k", 7),
        ("scan", "k < 25", "rows"),
    ])


def test_an_append_after_the_placement_makes_the_next_hit_place_fresh():
    engine = range_engine()
    sql = "select k, v from t where k < 25"
    taken = []
    with checked_placements(taken):
        engine.execute(sql)  # a miss installs exact states
        engine.execute(sql)  # the first hit places each slice's rows
        placed = [state for state, _ in taken]
        assert len({id(state) for state in placed}) == 4
        engine.execute(sql)  # a second hit takes the same placements
        assert all(a[1] is b[1] for a, b in zip(taken[:4], taken[4:]))
        engine.insert("t", {c: np.arange(400) % 100 for c in COLUMNS})
        taken.clear()
        grown = engine.execute(sql)  # every slice grew: no kept placement
        assert not taken
        again = engine.execute(sql)  # the extended states place fresh
        assert len(taken) == 4
        assert not any(state is old for state, _ in taken for old in placed)
    plain = build(None)
    plain.insert("t", {c: np.arange(400) % 100 for c in COLUMNS})
    truth = plain.execute(sql)
    assert_rows_equal(grown.rows(), truth.rows(), sql)
    assert_rows_equal(again.rows(), truth.rows(), sql)


def test_an_extended_state_starts_unplaced():
    def place(num_rows):
        return lambda rows: BlockCoverage(rows, 16, num_rows)

    state = RangeSliceState(np.arange(10, 30), 100, 8, exact=True)
    kept = state.placed(100, place(100))
    assert state.placed(100, place(100)) is kept
    extended = state.extended(np.array([100, 101], dtype=np.int64), 120, exact=True)
    with pytest.raises(ValueError):
        extended.placed(100, place(100))  # its slice has 120 rows now
    grown = extended.placed(120, place(120))
    assert grown is not kept and grown.row_ids.tolist() == [*range(10, 30), 100, 101]
    assert extended.placed(120, place(120)) is grown
    assert state.placed(100, place(100)) is kept


# -- structure: what an exact hit does not do ---------------------------------


def read_keys(monkeypatch):
    """Record every block key ``read_columns`` is asked for."""
    seen = []
    original = ManagedStorage.read_columns

    def spy(self, columns, index, reader=None):
        # One index array for every column, or one per column.
        per_column = [index] * len(columns) if isinstance(index, np.ndarray) else index
        seen.extend(
            name + (b,)
            for (name, _), blocks in zip(columns, per_column)
            for b in blocks.tolist()
        )
        return original(self, columns, index, reader)

    monkeypatch.setattr(ManagedStorage, "read_columns", spy)
    return seen


def range_engine():
    return build(PredicateCache(PredicateCacheConfig(variant="range")))


def test_warm_exact_hit_reads_no_predicate_only_column(monkeypatch):
    engine = range_engine()
    sql = "select v from t where k < 30 and w >= 20"
    cold = engine.execute(sql)
    seen = read_keys(monkeypatch)
    warm = engine.execute(sql)
    assert warm.counters.cache_hits == 1
    (entry,) = engine.predicate_cache.entries()
    assert len(entry.slice_states) == 4
    assert all(state.exact for state in entry.slice_states)
    assert seen and {column for _, _, column, _ in seen} == {"v"}
    assert_rows_equal(warm.rows(), cold.rows(), sql)
    assert warm.counters.rows_scanned == cold.counters.rows_qualifying


def test_exact_hit_reads_predicate_columns_of_the_tail_only(monkeypatch):
    engine = range_engine()
    sql = "select v from t where k < 30"
    engine.execute(sql)
    watermarks = [s.num_rows for s in engine.database.tables["t"].slices]
    more = {c: np.arange(400) % 100 for c in COLUMNS}
    engine.insert("t", more)
    seen = read_keys(monkeypatch)
    warm = engine.execute(sql)
    tail_blocks = [
        (slice_id, block) for _, slice_id, column, block in seen if column == "k"
    ]
    plain = build(None)
    plain.insert("t", more)
    truth = plain.execute(sql)
    assert_rows_equal(warm.rows(), truth.rows(), sql)
    assert warm.counters.rows_qualifying == truth.counters.rows_qualifying
    assert tail_blocks, "the appended rows sealed no block: vacuous"
    assert all(block >= watermarks[slice_id] // 32 for slice_id, block in tail_blocks)


def test_join_keyed_exact_hit_without_tail_makes_no_bloom_probe():
    engine = range_engine()
    sql = "select k, v from t join d on k = dk where v < 40 and g < 3"
    cold = engine.execute(sql)
    warm = engine.execute(sql)
    assert cold.counters.bloom_probes > 0
    joined = [e for e in engine.predicate_cache.entries() if e.key.is_join_key]
    assert joined and all(s.exact for e in joined for s in e.slice_states)
    assert warm.counters.cache_hits == 2  # the build side's and the probe side's
    assert warm.counters.bloom_probes == 0
    assert_rows_equal(warm.rows(), cold.rows(), sql)
