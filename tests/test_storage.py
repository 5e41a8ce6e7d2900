"""Storage engine: zone maps, column stores, managed storage."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rowrange import RangeList
from repro.faults import FaultInjector, RetryBudgetExceeded, RetryPolicy
from repro.storage import ColumnSpec, Database, Table, TableSchema
from repro.storage.compression import choose_codec
from repro.storage.column import BlockCoverage, ColumnStore, GrowableArray
from repro.storage.dtypes import DataType, date_to_days, days_to_date
from repro.storage.rms import ManagedStorage
from repro.predicates.ast import Bounds
from repro.storage.slice import DataSlice
from repro.storage.zonemap import ZoneEntry, ZoneMap


class TestDtypes:
    def test_date_roundtrip(self):
        days = date_to_days("1995-01-31")
        assert days_to_date(days).isoformat() == "1995-01-31"

    def test_date_from_int_passthrough(self):
        assert date_to_days(100) == 100

    def test_numpy_dtypes(self):
        assert DataType.INT64.numpy_dtype == np.int64
        assert DataType.DATE.numpy_dtype == np.int64
        assert DataType.FLOAT64.numpy_dtype == np.float64
        assert DataType.STRING.numpy_dtype == object

    def test_is_numeric(self):
        assert DataType.DATE.is_numeric
        assert not DataType.STRING.is_numeric


class TestGrowableArray:
    def test_append_and_read(self):
        a = GrowableArray(np.dtype(np.int64), capacity=2)
        a.append_many(np.array([1, 2, 3]))
        a.append_many(np.array([4]))
        assert a.values.tolist() == [1, 2, 3, 4]
        assert len(a) == 4

    def test_replace(self):
        a = GrowableArray(np.dtype(np.int64))
        a.append_many(np.arange(10))
        a.replace(np.array([7, 8]))
        assert a.values.tolist() == [7, 8]


class TestZoneMap:
    def test_bounds_recorded(self):
        zm = ZoneMap()
        zm.append_block(np.array([5, 1, 9]))
        assert zm[0].minimum == 1
        assert zm[0].maximum == 9

    def test_may_contain(self):
        entry = ZoneEntry(10, 20)
        assert entry.may_contain(Bounds(15, 18))
        assert entry.may_contain(Bounds(None, 10))  # touches minimum
        assert entry.may_contain(Bounds(20, None))
        assert not entry.may_contain(Bounds(None, 9))
        assert not entry.may_contain(Bounds(21, None))

    def test_strict_bounds_prune_equal_extremes(self):
        entry = ZoneEntry(10, 20)
        assert not entry.may_contain(Bounds(hi=10, hi_strict=True))
        assert not entry.may_contain(Bounds(lo=20, lo_strict=True))
        assert entry.may_contain(Bounds(hi=10))
        assert entry.may_contain(Bounds(lo=20))

    def test_unknown_bounds_never_prune(self):
        assert ZoneEntry(None, None).may_contain(Bounds(0, 1))

    def test_incomparable_types_never_prune(self):
        entry = ZoneEntry("apple", "pear")
        assert entry.may_contain(Bounds(1, 5))

    def test_pruned_blocks(self):
        zm = ZoneMap()
        zm.append_block(np.array([0, 9]))
        zm.append_block(np.array([10, 19]))
        zm.append_block(np.array([20, 29]))
        assert zm.pruned_blocks(Bounds(12, 15)).tolist() == [True, False, True]

    def test_nbytes(self):
        zm = ZoneMap()
        zm.append_block(np.array([1]))
        zm.append_block(np.array([2]))
        assert zm.nbytes == 32


def make_column(values, rows_per_block=10, dtype=DataType.INT64):
    column = ColumnStore("t", 0, "c", dtype, rows_per_block)
    column.append(list(values))
    return column


class TestColumnStore:
    def test_sealing(self):
        column = make_column(range(25), rows_per_block=10)
        assert len(column.blocks) == 2
        assert column.num_sealed_rows == 20
        assert column.num_rows == 25
        assert column.num_blocks == 3  # 2 sealed + open tail

    def test_read_ranges_spanning_blocks_and_tail(self):
        column = make_column(range(25), rows_per_block=10)
        rms = ManagedStorage()
        values = column.read_ranges(RangeList([(5, 12), (18, 23)]), rms)
        assert values.tolist() == list(range(5, 12)) + list(range(18, 23))

    def test_tail_reads_do_not_count_blocks(self):
        column = make_column(range(25), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(RangeList([(21, 24)]), rms)
        assert rms.stats.blocks_accessed == 0

    def test_sealed_reads_count_blocks_once_per_call(self):
        column = make_column(range(30), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(RangeList([(0, 5), (7, 9)]), rms)  # both in block 0
        assert rms.stats.blocks_accessed == 1

    def test_read_all(self):
        column = make_column(range(15), rows_per_block=10)
        assert column.read_all(ManagedStorage()).tolist() == list(range(15))

    def test_string_column(self):
        column = make_column(
            ["a", "b", "c", "d"], rows_per_block=2, dtype=DataType.STRING
        )
        values = column.read_ranges(RangeList([(1, 4)]), ManagedStorage())
        assert values.tolist() == ["b", "c", "d"]

    def test_prunable_block_ranges(self):
        column = make_column(list(range(100)), rows_per_block=10)
        pruned = column.zonemap.pruned_blocks(Bounds(35, 44))
        # Only blocks 3 ([30,40)) and 4 ([40,50)) may contain matches.
        assert np.flatnonzero(~pruned).tolist() == [3, 4]

    def test_tail_never_pruned(self):
        column = make_column(list(range(15)), rows_per_block=10)
        pruned = column.zonemap.pruned_blocks(Bounds(1000, 2000))
        assert pruned.tolist() == [True]  # only the sealed block has a verdict

    def test_rebuild(self):
        column = make_column(range(20), rows_per_block=10)
        column.rebuild(np.array([5, 6, 7]))
        assert column.num_rows == 3
        assert column.read_all(ManagedStorage()).tolist() == [5, 6, 7]

    def test_compressed_nbytes_positive(self):
        column = make_column(range(20), rows_per_block=10)
        assert column.compressed_nbytes > 0


class TestManagedStorage:
    def _block(self, values):
        from repro.storage.compression import choose_codec

        return choose_codec(np.asarray(values))

    def test_remote_then_local(self):
        rms = ManagedStorage()
        block = self._block([1, 2, 3])
        key = ("t", 0, "c", 0)
        rms.read_block(key, block)
        rms.read_block(key, block)
        assert rms.stats.remote_fetches == 1
        assert rms.stats.local_hits == 1
        assert rms.stats.blocks_accessed == 2

    def test_lru_eviction(self):
        rms = ManagedStorage(cache_capacity=2)
        blocks = {i: self._block([i]) for i in range(3)}
        for i in range(3):
            rms.read_block(("t", 0, "c", i), blocks[i])
        # Block 0 evicted; re-reading is a remote fetch again.
        rms.read_block(("t", 0, "c", 0), blocks[0])
        assert rms.stats.remote_fetches == 4

    def test_invalidate_table(self):
        rms = ManagedStorage()
        rms.read_block(("a", 0, "c", 0), self._block([1]))
        rms.read_block(("b", 0, "c", 0), self._block([2]))
        rms.invalidate_table("a")
        assert rms.cached_blocks == 1
        rms.read_block(("a", 0, "c", 0), self._block([1]))
        assert rms.stats.remote_fetches == 3

    def test_bytes_fetched(self):
        rms = ManagedStorage()
        block = self._block(np.arange(100))
        rms.read_block(("t", 0, "c", 0), block)
        assert rms.stats.bytes_fetched == block.nbytes

    def test_stats_delta(self):
        rms = ManagedStorage()
        rms.read_block(("t", 0, "c", 0), self._block([1]))
        before = rms.stats.snapshot()
        rms.read_block(("t", 0, "c", 0), self._block([1]))
        delta = rms.stats.delta(before)
        assert delta.local_hits == 1
        assert delta.remote_fetches == 0


# -- the batched read path ------------------------------------------------------


def block_calls(seed, num_calls=40, num_slices=3, blocks_per_slice=8):
    """A fixed sequence of ``read_blocks`` calls: each names 1-6 distinct
    blocks of one slice, in no particular order, as (keys, blocks)."""
    rng = random.Random(seed)
    encoded = {
        (s, b): choose_codec(np.arange(20, dtype=np.int64) + 100 * s + b)
        for s in range(num_slices)
        for b in range(blocks_per_slice)
    }
    calls = []
    for _ in range(num_calls):
        s = rng.randrange(num_slices)
        ids = rng.sample(range(blocks_per_slice), rng.randint(1, 6))
        calls.append(
            ([("t", s, "c", b) for b in ids], [encoded[(s, b)] for b in ids])
        )
    return calls


def drive(calls, batched, capacity, phased, injector=None, retry_budget=None):
    """Run ``calls`` against a fresh storage, one query, a scan phase
    around every five calls when ``phased``.  Returns what an observer
    can tell: values read, stats, the query's sink, cache key order at
    every barrier, per-slice phase counts, and where a fetch gave up."""
    rms = ManagedStorage(cache_capacity=capacity)
    if injector is not None:
        rms.attach_faults(
            injector, RetryPolicy(max_attempts=12, retry_budget=retry_budget)
        )
    query = rms.query_context()
    seen = {"values": [], "orders": [], "counts": [], "gave_up": None}
    for index, (keys, blocks) in enumerate(calls):
        if phased and index % 5 == 0:
            query.begin_scan_phase()
        try:
            if batched:
                values = query.read_blocks(keys, blocks)
            else:
                values = [
                    query.read_blocks((k,), (b,))[0] for k, b in zip(keys, blocks)
                ]
        except RetryBudgetExceeded as error:
            seen["gave_up"] = (index, str(error))
            break
        seen["values"].append([v.tolist() for v in values])
        if phased and (index % 5 == 4 or index == len(calls) - 1):
            seen["counts"].append(query.end_scan_phase())
            seen["orders"].append(list(rms._cache))
    seen["orders"].append(list(rms._cache))
    return rms.stats, query.stats, seen


class TestReadBlocks:
    @pytest.mark.parametrize("phased", [False, True])
    @pytest.mark.parametrize("capacity", [None, 4, 11])
    def test_equals_one_block_at_a_time(self, capacity, phased):
        for seed in range(5):
            calls = block_calls(seed)
            one, one_sink, one_seen = drive(calls, False, capacity, phased)
            many, many_sink, many_seen = drive(calls, True, capacity, phased)
            assert many == one
            assert many_sink == one_sink == one
            assert many_seen == one_seen
            assert one.local_hits > 0 and one.remote_fetches > 0

    def test_bounded_sequences_do_evict(self):
        # The twin test above must exercise eviction, not dodge it.
        stats, _, _ = drive(block_calls(0), True, 4, False)
        assert stats.remote_fetches > 3 * 8

    @pytest.mark.parametrize("phased", [False, True])
    @pytest.mark.parametrize("capacity", [None, 4])
    def test_equal_under_keyed_faults(self, capacity, phased):
        rates = dict(
            error_rate=0.15, corruption_rate=0.05, latency_rate=0.2,
            latency_seconds=0.004,
        )
        calls = block_calls(7)
        one, one_sink, one_seen = drive(
            calls, False, capacity, phased, FaultInjector(seed=5, **rates)
        )
        many, many_sink, many_seen = drive(
            calls, True, capacity, phased, FaultInjector(seed=5, **rates)
        )
        assert one.transient_errors and one.corrupt_blocks and one.retries
        assert one.backoff_model_seconds > 0
        assert many == one and many_sink == one_sink
        assert many_seen == one_seen

    def test_retry_budget_runs_out_at_the_same_fetch(self):
        rates = dict(error_rate=0.4, corruption_rate=0.1)
        calls = block_calls(3)
        runs = [
            drive(
                calls, batched, None, True, FaultInjector(seed=9, **rates),
                retry_budget=6,
            )
            for batched in (False, True)
        ]
        (one, _, one_seen), (many, _, many_seen) = runs
        assert one_seen["gave_up"] is not None
        assert many_seen["gave_up"] == one_seen["gave_up"]
        assert many_seen["values"] == one_seen["values"]
        for name in (
            "transient_errors", "corrupt_blocks", "retries", "retry_giveups",
            "backoff_model_seconds",
        ):
            assert getattr(many, name) == getattr(one, name), name

    def test_a_failed_fetch_keeps_the_earlier_ones_counted(self):
        rms = ManagedStorage()
        rms.attach_faults(
            FaultInjector(schedule={1: "error"}), RetryPolicy(max_attempts=1)
        )
        keys, blocks = block_calls(0)[0]
        assert len(keys) >= 2
        with pytest.raises(Exception):
            rms.read_blocks(keys, blocks)
        assert rms.stats.remote_fetches == 1
        assert list(rms._cache) == keys[:1]


class TestReadersAreExplicit:
    """Accounting follows the reader a call names, never the thread."""

    RATES = dict(error_rate=0.25, corruption_rate=0.05)
    FIELDS = tuple(vars(ManagedStorage().stats))

    def armed(self, budget):
        rms = ManagedStorage(cache_capacity=6)
        rms.attach_faults(
            FaultInjector(seed=11, **self.RATES),
            RetryPolicy(max_attempts=12, retry_budget=budget),
        )
        return rms

    def test_two_contexts_alternating_on_one_thread(self):
        rms = self.armed(budget=500)
        one, two = rms.query_context(), rms.query_context()
        one.begin_scan_phase()  # one is mid-scan, two reads unphased
        for index, (keys, blocks) in enumerate(block_calls(1)):
            (one, two)[index % 2].read_blocks(keys, blocks)
        one.end_scan_phase()
        for name in self.FIELDS:
            total = getattr(one.stats, name) + getattr(two.stats, name)
            assert total == pytest.approx(getattr(rms.stats, name)), name
        for reader in (one, two):
            assert reader.stats.blocks_accessed > 0 and reader.stats.retries > 0
            assert reader.retry_budget_left == 500 - reader.stats.retries
        assert one.stats != two.stats

    def test_an_exhausted_budget_is_its_owners_alone(self):
        rms = self.armed(budget=2)
        spent, fresh = rms.query_context(), rms.query_context()
        calls = block_calls(2)
        with pytest.raises(RetryBudgetExceeded):
            for keys, blocks in calls:
                spent.read_blocks(keys, blocks)
        assert spent.retry_budget_left == 0 and spent.stats.retry_giveups == 1
        keys, blocks = calls[0]
        assert fresh.retry_budget_left == 2
        assert len(fresh.read_blocks(keys[:1], blocks[:1])) == 1
        assert fresh.stats.retry_giveups == 0

    def test_one_context_driven_from_two_threads(self):
        import threading

        rms = self.armed(budget=500)
        reader = rms.query_context()
        calls = block_calls(3)
        threads = [
            threading.Thread(
                target=lambda mine: [reader.read_blocks(k, b) for k, b in mine],
                args=(calls[half::2],),
            )
            for half in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert reader.stats == rms.stats
        assert reader.stats.blocks_accessed == sum(len(k) for k, _ in calls)
        assert reader.retry_budget_left == 500 - reader.stats.retries


READ_RANGES_CASES = {
    "straddles block edges": [(8, 13), (19, 31)],
    "whole blocks": [(10, 30)],
    "whole blocks, not adjacent": [(0, 10), (20, 30)],
    "one block, two ranges": [(11, 13), (15, 19)],
    "single row": [(29, 30)],
    "into the tail": [(25, 34)],
    "tail only": [(31, 33)],
    "everything": [(0, 35)],
    "past the end": [(33, 50)],
    "nothing": [],
}


class TestReadRanges:
    @pytest.mark.parametrize("dtype", [DataType.INT64, DataType.STRING])
    @pytest.mark.parametrize("case", READ_RANGES_CASES)
    def test_matches_plain_indexing(self, case, dtype):
        # 35 rows at 10 per block: 3 sealed blocks and a 5-row tail.
        values = [(i * 7) % 31 for i in range(35)]
        if dtype is DataType.STRING:
            values = [f"v{v:02d}" for v in values]
        column = make_column(values, rows_per_block=10, dtype=dtype)
        pairs = READ_RANGES_CASES[case]
        rows = [i for lo, hi in pairs for i in range(lo, min(hi, 35))]
        rms = ManagedStorage()
        got = column.read_ranges(RangeList(pairs), rms)
        assert got.tolist() == [values[i] for i in rows]
        assert got.dtype == dtype.numpy_dtype
        assert rms.stats.blocks_accessed == len({i // 10 for i in rows if i < 30})
        # The caller owns what it gets: never an array of the block cache.
        assert not any(got is cached for cached in rms._cache.values())
        shared = column.read_ranges(column.cover(RangeList(pairs)), rms)
        assert shared.tolist() == got.tolist()

    def test_coverage_of_another_shape_is_refused(self):
        column = make_column(range(25), rows_per_block=10)
        longer = make_column(range(35), rows_per_block=10)
        with pytest.raises(ValueError):
            column.read_ranges(longer.cover(RangeList([(0, 5)])), ManagedStorage())


def test_warm_scan_reads_each_column_of_each_slice_once(monkeypatch):
    from repro import Database, PredicateCache, PredicateCacheConfig, QueryEngine
    from repro.storage import ColumnSpec, TableSchema

    db = Database(num_slices=4, rows_per_block=50)
    db.create_table(TableSchema("t", (
        ColumnSpec("a", DataType.INT64), ColumnSpec("b", DataType.INT64),
    )))
    rng = np.random.default_rng(3)
    engine = QueryEngine(
        db, predicate_cache=PredicateCache(PredicateCacheConfig()), scan_workers=0
    )
    engine.insert("t", {
        "a": rng.integers(0, 100, size=4_000), "b": rng.integers(0, 100, size=4_000),
    })
    sql = "select count(*) as c from t where a < 20 and b < 50"
    cold = engine.execute(sql)
    calls = Counter()
    row_id_lists = []  # held, so no two lists share an id()

    def counting(owner, name, on_call=lambda *args: None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            on_call(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ManagedStorage, "read_blocks")
    counting(ZoneEntry, "may_contain")
    counting(RangeList, "to_row_ids", row_id_lists.append)
    warm = engine.execute(sql)
    assert warm.counters.cache_hits == 1
    assert warm.column("c")[0] == cold.column("c")[0]
    assert warm.counters.blocks_accessed > 8
    assert 0 < calls["read_blocks"] <= 4 * 2
    assert calls["may_contain"] == 0
    # One materialisation of each slice's candidate list, and no other.
    assert calls["to_row_ids"] == 4
    assert len({id(ranges) for ranges in row_id_lists}) == 4


# -- vectorised zone-map pruning against the scalar rule ------------------------

INTS = st.integers(-(2**40), 2**40)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
WORDS = st.text("abcxyz", max_size=3)


def blocks_of(values, dtype):
    return st.lists(
        st.lists(values, max_size=4).map(lambda v: np.array(v, dtype=dtype)),
        max_size=6,
    )


def bounds_of(values):
    side = st.none() | values
    return st.builds(Bounds, side, side, st.booleans(), st.booleans())


ZONE_MAP_CASES = st.one_of(
    st.tuples(blocks_of(INTS, np.int64), bounds_of(INTS | FLOATS)),
    st.tuples(blocks_of(FLOATS, np.float64), bounds_of(INTS | FLOATS)),
    # String blocks, some mixed with a number (bounds unknown), against
    # string bounds and against numeric ones (incomparable).
    st.tuples(blocks_of(WORDS | st.just(7), object), bounds_of(WORDS)),
    st.tuples(blocks_of(WORDS, object), bounds_of(INTS)),
)


@settings(max_examples=300, deadline=None)
@given(ZONE_MAP_CASES)
def test_pruned_blocks_equals_the_scalar_rule(case):
    blocks, bounds = case
    zm = ZoneMap()
    for block in blocks:
        zm.append_block(block)
    assert len(zm) == len(blocks)
    assert zm.pruned_blocks(bounds).tolist() == [
        not zm[i].may_contain(bounds) for i in range(len(zm))
    ]


# -- block coverage: dropped blocks and selection against the plain build -------

COVERAGE_ATTRIBUTES = ("row_ids", "sealed_rows", "blocks", "offsets", "tail_offsets")


def assert_same_coverage(got, want):
    for name in COVERAGE_ATTRIBUTES:
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is b, name  # the dense case stays dense
        else:
            assert np.array_equal(a, b), name


@st.composite
def coverage_cases(draw):
    size = draw(st.integers(1, 6))
    num_rows = draw(st.integers(0, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, 45), st.integers(0, 45)), max_size=6))
    ranges = RangeList([(min(p), max(p)) for p in pairs])
    if draw(st.booleans()):
        ranges = RangeList.full(num_rows)
    num_blocks = num_rows // size
    dropped = np.array(
        draw(st.lists(st.booleans(), min_size=num_blocks, max_size=num_blocks)),
        dtype=bool,
    )
    if draw(st.booleans()):
        dropped[:] = True  # every sealed candidate row goes; the tail stays
    covered_rows = ranges.clip(0, num_rows).num_rows
    row_mask = np.array(
        draw(st.lists(st.booleans(), min_size=covered_rows, max_size=covered_rows)),
        dtype=bool,
    )
    return ranges, size, num_rows, dropped, row_mask


def dropped_row_ranges(dropped, size):
    return RangeList.from_bounds(RangeList.from_mask(dropped).bounds * size)


def fixed_case(pairs, size, num_rows, dropped, keep_every=2):
    ranges = RangeList(pairs)
    row_mask = np.arange(ranges.clip(0, num_rows).num_rows) % keep_every == 0
    return ranges, size, num_rows, np.array(dropped, dtype=bool), row_mask


FIXED_COVERAGE_CASES = [
    # Every sealed candidate row dropped: only the partial last block's tail is left.
    fixed_case([(3, 8), (12, 25)], 10, 25, [True, True]),
    # Empty tail; the kept block is covered completely (dense offsets).
    fixed_case([(0, 30)], 10, 30, [True, False, True], keep_every=1),
    # Partial last block, ranges past the end, a dropped block in the middle.
    fixed_case([(5, 12), (18, 50)], 10, 37, [False, True, False], keep_every=3),
]


@settings(max_examples=300, deadline=None)
@given(coverage_cases())
@example(FIXED_COVERAGE_CASES[0])
@example(FIXED_COVERAGE_CASES[1])
@example(FIXED_COVERAGE_CASES[2])
def test_coverage_with_dropped_blocks_equals_coverage_of_the_difference(case):
    ranges, size, num_rows, dropped, _ = case
    assert_same_coverage(
        BlockCoverage(ranges, size, num_rows, dropped),
        BlockCoverage(
            ranges.difference(dropped_row_ranges(dropped, size)), size, num_rows
        ),
    )


@settings(max_examples=300, deadline=None)
@given(coverage_cases())
@example(FIXED_COVERAGE_CASES[0])
@example(FIXED_COVERAGE_CASES[1])
@example(FIXED_COVERAGE_CASES[2])
def test_selected_coverage_equals_coverage_of_the_selected_rows(case):
    ranges, size, num_rows, _, row_mask = case
    coverage = BlockCoverage(ranges, size, num_rows)
    assert_same_coverage(
        coverage.select(row_mask),
        BlockCoverage(RangeList.from_rows(coverage.row_ids[row_mask]), size, num_rows),
    )


@pytest.mark.parametrize("num_rows", [30, 35])  # empty tail, 5-row tail
@pytest.mark.parametrize("dropped", [
    [False, False, False], [True, False, True], [False, True, False],
    [False, False, True], [True, True, True],
])
def test_unpruned_rows_are_the_kept_blocks_and_the_tail(num_rows, dropped):
    data_slice = DataSlice("t", 0, {"c": DataType.INT64}, rows_per_block=10)
    data_slice.append_rows({"c": list(range(num_rows))}, 1)
    dropped = np.array(dropped)
    want = RangeList.full(num_rows).difference(dropped_row_ranges(dropped, 10))
    assert data_slice.unpruned_rows(dropped) == want
    assert data_slice.unpruned_rows(None) == RangeList.full(num_rows)


# -- the write path: one representation, one rewrite --------------------------------

BATCH_FORMS = ("list", "tuple", "generator", "array", "narrow", "range")


def as_batch(values, form, dtype):
    """``values`` (a list) in one of the shapes a caller may append."""
    if form == "tuple":
        return tuple(values)
    if form == "generator":
        return (value for value in values)
    if form == "array":
        return np.array(values, dtype=dtype.numpy_dtype)
    integral = dtype in (DataType.INT64, DataType.DATE)
    if form == "narrow" and dtype is DataType.FLOAT64:
        return np.array(values, dtype=np.float32)
    if form == "narrow" and integral:
        return np.array(values, dtype=np.int32)
    if form == "narrow" and all(isinstance(value, str) for value in values):
        return np.array(values, dtype="U3")
    if form == "range" and integral and values:
        consecutive = range(values[0], values[0] + len(values))
        if values == list(consecutive):
            return consecutive
    return list(values)


@st.composite
def split_appends(draw):
    """(dtype, rows_per_block, values, batches): ``batches`` are the
    values cut at arbitrary points (empty batches, exact block multiples
    and single rows included), each in an arbitrary form."""
    dtype = draw(st.sampled_from(list(DataType)))
    size = draw(st.integers(1, 16))
    if dtype is DataType.STRING:
        element = draw(st.sampled_from([
            st.text(alphabet="abc", max_size=3),
            # Mixed types in one object column: comparable, so they seal,
            # and never equal across types, so dict encoding loses nothing.
            st.one_of(st.integers(-3, 3), st.sampled_from([-1.5, -0.5, 0.5, 2.5])),
        ]))
    elif dtype is DataType.FLOAT64:
        element = st.floats(width=32, allow_nan=False)
    else:
        element = draw(st.sampled_from(
            [st.integers(0, 3), st.integers(-(2**31), 2**31 - 1)]
        ))
    values = draw(st.one_of(
        st.lists(element, max_size=70),
        st.builds(lambda lo, n: list(range(lo, lo + n)), st.integers(-9, 9), st.integers(0, 70))
        if dtype in (DataType.INT64, DataType.DATE) else st.nothing(),
    ))
    cut = st.one_of(
        st.integers(0, len(values)),
        st.integers(0, len(values) // size).map(lambda blocks: blocks * size),
    )
    cuts = [0, *sorted(draw(st.lists(cut, max_size=6))), len(values)]
    batches = [
        as_batch(values[lo:hi], draw(st.sampled_from(BATCH_FORMS)), dtype)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    return dtype, size, values, batches


def column_state(column):
    zones = column.zonemap
    return (
        [(b.codec_name, b.num_values, b.nbytes, b.checksum) for b in column.blocks],
        [zones[i] for i in range(len(zones))],
        column.tail_values().tolist(),
    )


@settings(max_examples=300, deadline=None)
@given(split_appends())
def test_splitting_an_append_changes_nothing(case):
    dtype, size, values, batches = case
    whole = make_column(values, size, dtype)
    split = ColumnStore("t", 0, "c", dtype, size)
    for batch in batches:
        split.append(batch)
        if isinstance(batch, np.ndarray):
            batch[:] = 0  # the column kept a copy, not the caller's array
    want = column_state(whole)
    assert column_state(split) == want
    assert len(whole.blocks) == len(values) // size

    tail = split.tail_values()
    assert tail.dtype == dtype.numpy_dtype and len(tail) == len(values) % size
    if len(tail):
        assert np.shares_memory(tail, split.tail_values())

    everything = whole.read_all(ManagedStorage())
    assert everything.dtype == dtype.numpy_dtype
    assert everything.tolist() == np.asarray(values, dtype=dtype.numpy_dtype).tolist()
    split.rebuild(everything)
    assert column_state(split) == want


def snapshot_of(data_slice, rms):
    """Every column, ``xmin`` and ``xmax`` of a slice, as arrays."""
    state = {
        name: column.read_all(rms) for name, column in data_slice.columns.items()
    }
    state["xmin"] = data_slice._xmin.values.copy()
    state["xmax"] = data_slice._xmax.values.copy()
    return state


def rewrite_table():
    """Three slices, three dtypes, two insert transactions, partial tails."""
    table = Table(
        TableSchema("t", (
            ColumnSpec("k", DataType.INT64),
            ColumnSpec("v", DataType.FLOAT64),
            ColumnSpec("s", DataType.STRING),
        )),
        num_slices=3,
        rows_per_block=4,
    )
    for txid, (lo, hi) in enumerate([(0, 31), (31, 50)], start=1):
        keys = np.arange(lo, hi)
        table.insert(
            {"k": keys * 7 % 13, "v": keys / 4, "s": [f"s{k % 5}" for k in keys]},
            txid,
        )
    return table


def vacuum_case(table, rng):
    """Rows deleted before the horizon go; a later delete keeps its xmax."""
    orders = []
    for slice_id, data_slice in enumerate(table.slices[:2]):
        keep = rng.random(data_slice.num_rows) < 0.6
        table.delete_local_rows(slice_id, np.flatnonzero(~keep), 5)
        table.delete_local_rows(slice_id, np.flatnonzero(keep)[:2], 9)
        orders.append(np.flatnonzero(keep))
    return [*orders, None], lambda: table.vacuum(6)


def reorganize_case(table, rng):
    table.delete_local_rows(0, np.array([1, 2]), 5)
    orders = [rng.permutation(table.slices[0].num_rows), None,
              rng.permutation(table.slices[2].num_rows)]
    return orders, lambda: table.reorganize(lambda _table: orders)


@pytest.mark.parametrize("case", [vacuum_case, reorganize_case])
def test_one_rewrite_two_callers(case):
    """Vacuum (``order`` = the kept rows) and reorganize (``order`` = a
    permutation, None for an untouched slice) against a numpy reference."""
    table = rewrite_table()
    orders, run = case(table, np.random.default_rng(7))
    before = [snapshot_of(s, table.rms) for s in table.slices]
    versions = table.layout_version, table.data_version
    events = []
    table.on_change(lambda _table, event: events.append(event))

    run()

    assert events == ["layout", "data"]
    assert (table.layout_version, table.data_version) == (versions[0] + 1, versions[1] + 1)
    size = table.slices[0].rows_per_block
    for data_slice, was, order in zip(table.slices, before, orders):
        if order is None:
            order = np.arange(len(was["xmin"]))
        assert data_slice.num_rows == len(order)
        now = snapshot_of(data_slice, table.rms)
        for name, values in was.items():
            assert now[name].dtype == values.dtype
            assert now[name].tolist() == values[order].tolist()
        for name, column in data_slice.columns.items():
            assert column.num_rows == len(order)
            assert len(column.blocks) == len(column.zonemap) == len(order) // size
            for index in range(len(column.blocks)):
                block = was[name][order][index * size : (index + 1) * size]
                assert column.zonemap[index] == ZoneEntry(min(block), max(block))


def test_only_a_rewrite_invalidates_decoded_blocks():
    """Sealing a block invalidates nothing (its key cannot be cached
    yet); a rewrite drops the table's decoded blocks once, all of them,
    and no other table's."""
    db = Database(num_slices=2, rows_per_block=4)
    for name in ("t", "other"):
        db.create_table(TableSchema(name, (ColumnSpec("k", DataType.INT64),)))
    t, other = db.table("t"), db.table("other")

    def cached(name):
        return [key for key in db.rms._cache if key[0] == name]

    for start in range(0, 60, 7):  # tails fill and seal between the reads
        for table in (t, other):
            table.insert({"k": np.arange(start, start + 7)}, db.begin())
            assert sorted(table.read_column_all("k")) == list(range(start + 7))
    assert db.rms.stats.blocks_invalidated == 0

    def reorder(table):
        return [np.argsort(-s.columns["k"].read_all(table.rms)) for s in table.slices]

    t.delete_local_rows(0, np.arange(5), db.begin())
    for rewrite, survivors in (
        (lambda: t.vacuum(db.horizon_txid), 58),
        (lambda: t.reorganize(reorder), 58),
    ):
        dropped = db.rms.stats.blocks_invalidated
        held, elsewhere = len(cached("t")), len(cached("other"))
        assert held
        rewrite()
        assert cached("t") == [] and len(cached("other")) == elsewhere
        assert db.rms.stats.blocks_invalidated == dropped + held
        assert len(t.read_column_all("k")) == survivors  # refills the cache
