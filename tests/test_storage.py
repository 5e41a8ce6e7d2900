"""Storage engine: zone maps, column stores, managed storage."""

import random
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.entry import BitmapSliceState
from repro.core.rowrange import RangeList
from repro.faults import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStorageError,
)
from repro.storage import ColumnSpec, Database, Table, TableSchema
from repro.storage.compression import CODECS, choose_codec, decode_block, seal_blocks
from repro.storage.column import BlockCoverage, ColumnStore, DecodedBlocks, GrowableArray
from repro.storage.dtypes import DataType, date_to_days, days_to_date
from repro.storage.rms import ManagedStorage
from repro.predicates.ast import Bounds
from repro.storage.slice import DataSlice
from repro.storage.zonemap import ZoneMap

from tests.rowsets import rows


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


def append_block(zm, values):
    """Seal ``values`` as one block and record its bounds, as a column does."""
    _, minima, maxima = seal_blocks(np.asarray(values).reshape(1, -1))
    zm.append_blocks(minima, maxima)


def zone_bounds(zonemap):
    """The recorded ``[minimum, maximum]`` of each block, as Python values."""
    return [] if not len(zonemap) else zonemap._bounds[:, : len(zonemap)].T.tolist()


def prunes(block, bounds):
    """Whether a zone map holding the one block ``block`` prunes it."""
    zm = ZoneMap()
    dtype = object if isinstance(block[0], str) else np.int64
    append_block(zm, np.array(block, dtype=dtype))
    return zm.pruned_blocks(bounds).tolist() == [True]


class TestZoneMap:
    def test_bounds_recorded(self):
        zm = ZoneMap()
        append_block(zm, np.array([5, 1, 9]))
        assert zone_bounds(zm) == [[1, 9]]

    def test_may_contain(self):
        block = [10, 20]
        assert not prunes(block, Bounds(15, 18))
        assert not prunes(block, Bounds(None, 10))  # touches minimum
        assert not prunes(block, Bounds(20, None))
        assert prunes(block, Bounds(None, 9))
        assert prunes(block, Bounds(21, None))

    def test_strict_bounds_prune_equal_extremes(self):
        block = [10, 20]
        assert prunes(block, Bounds(hi=10, hi_strict=True))
        assert prunes(block, Bounds(lo=20, lo_strict=True))
        assert not prunes(block, Bounds(hi=10))
        assert not prunes(block, Bounds(lo=20))

    def test_unknown_bounds_never_prune(self):
        zm = ZoneMap()
        append_block(zm, np.array(["a", 1], dtype=object))
        assert zone_bounds(zm) == [[None, None]]
        assert zm.pruned_blocks(Bounds(0, 1)).tolist() == [False]
        assert zm.pruned_blocks(Bounds("b", "c")).tolist() == [False]

    def test_incomparable_types_never_prune(self):
        assert not prunes(["apple", "pear"], Bounds(1, 5))

    def test_pruned_blocks(self):
        zm = ZoneMap()
        append_block(zm, np.array([0, 9]))
        append_block(zm, np.array([10, 19]))
        append_block(zm, np.array([20, 29]))
        assert zm.pruned_blocks(Bounds(12, 15)).tolist() == [True, False, True]

    def test_nbytes(self):
        zm = ZoneMap()
        append_block(zm, np.array([1]))
        append_block(zm, np.array([2]))
        assert zm.nbytes == 32


def make_column(values, rows_per_block=10, dtype=DataType.INT64):
    column = ColumnStore("t", 0, "c", dtype, rows_per_block)
    column.append(list(values))
    return column


def cover(column, row_ids):
    """The coverage of ascending ``row_ids`` in ``column``'s blocks."""
    return BlockCoverage(row_ids, column.rows_per_block, column.num_rows)


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
        values = column.read_ranges(cover(column, rows((5, 12), (18, 23))), rms)
        assert values.tolist() == list(range(5, 12)) + list(range(18, 23))

    def test_tail_reads_do_not_count_blocks(self):
        column = make_column(range(25), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(cover(column, rows((21, 24))), rms)
        assert rms.stats.blocks_accessed == 0

    def test_sealed_reads_count_blocks_once_per_call(self):
        column = make_column(range(30), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(cover(column, rows((0, 5), (7, 9))), rms)  # both in block 0
        assert rms.stats.blocks_accessed == 1

    def test_read_all(self):
        column = make_column(range(15), rows_per_block=10)
        assert column.read_all(ManagedStorage()).tolist() == list(range(15))

    def test_string_column(self):
        column = make_column(
            ["a", "b", "c", "d"], rows_per_block=2, dtype=DataType.STRING
        )
        values = column.read_ranges(cover(column, rows((1, 4))), ManagedStorage())
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

    @pytest.mark.parametrize(
        "dtype", [DataType.INT64, DataType.FLOAT64, DataType.STRING]
    )
    def test_one_bulk_append_seals_as_small_appends_do(self, dtype):
        """k blocks sealed from one ``(k, rows_per_block)`` view equal
        the same blocks sealed one append at a time, zone map included."""
        rng = np.random.default_rng(2)
        values = np.repeat(rng.integers(0, 40, 200), rng.integers(1, 12, 200))[:1000]
        if dtype is DataType.FLOAT64:
            values = values / 4
        elif dtype is DataType.STRING:
            values = np.array([f"s{v}" for v in values], dtype=object)
        bulk = make_column(values, rows_per_block=100, dtype=dtype)
        steps = ColumnStore("t", 0, "c", dtype, 100)
        for start in range(0, len(values), 37):
            steps.append(values[start : start + 37])
        assert len(bulk.blocks) == len(steps.blocks) == 10
        for mine, theirs in zip(bulk.blocks, steps.blocks):
            assert (mine.codec_name, mine.nbytes, mine.checksum) == (
                theirs.codec_name, theirs.nbytes, theirs.checksum,
            )
        assert zone_bounds(bulk.zonemap) == zone_bounds(steps.zonemap)

    def test_compressed_nbytes_positive(self):
        column = make_column(range(20), rows_per_block=10)
        assert column.compressed_nbytes > 0


def read_keys(reader, keys, blocks):
    """Read blocks of one column named by their keys, ``blocks[i]`` the
    block of ``keys[i]``, through ``reader`` (a storage or a reader of
    one)."""
    (name,) = {key[:3] for key in keys}
    reader.read_columns(
        [(name, {key[3]: block for key, block in zip(keys, blocks)})],
        np.array([key[3] for key in keys], dtype=np.int64),
    )


class TestManagedStorage:
    def _block(self, values):
        from repro.storage.compression import choose_codec

        return choose_codec(np.asarray(values))

    def test_remote_then_local(self):
        rms = ManagedStorage()
        block = self._block([1, 2, 3])
        key = ("t", 0, "c", 0)
        read_keys(rms, (key,), (block,))
        read_keys(rms, (key,), (block,))
        assert rms.stats.remote_fetches == 1
        assert rms.stats.local_hits == 1
        assert rms.stats.blocks_accessed == 2

    def test_lru_eviction(self):
        rms = ManagedStorage(cache_capacity=2)
        blocks = {i: self._block([i]) for i in range(3)}
        for i in range(3):
            read_keys(rms, (("t", 0, "c", i),), (blocks[i],))
        assert rms.resident_keys() == [("t", 0, "c", 1), ("t", 0, "c", 2)]
        # Block 0 evicted; re-reading is a remote fetch again.
        read_keys(rms, (("t", 0, "c", 0),), (blocks[0],))
        assert rms.stats.remote_fetches == 4
        assert rms.resident_keys() == [("t", 0, "c", 2), ("t", 0, "c", 0)]

    def test_a_scan_defers_eviction_to_its_barrier(self):
        """Inside a scan every read is most recent at once, in the order
        read, but nothing is evicted until ``end_scan_phase``, which
        keeps the most recently read blocks."""
        rms = ManagedStorage(cache_capacity=2)
        keys = [("t", i % 2, "c", i) for i in range(3)]
        blocks = [self._block([i]) for i in range(3)]
        reader = rms.query_context()
        reader.begin_scan_phase()
        for i in (0, 1, 2, 0):  # the last read of block 0 is a hit
            read_keys(reader, (keys[i],), (blocks[i],))
        assert rms.cached_blocks == 3  # over capacity, eviction deferred
        reader.end_scan_phase()
        # Read 0, 1, 2, 0: block 1 was coldest, whatever its slice.
        assert rms.resident_keys() == [keys[2], keys[0]]
        assert (rms.stats.remote_fetches, rms.stats.local_hits) == (3, 1)
        reader.begin_scan_phase()
        for i in (2, 1):
            read_keys(reader, (keys[i],), (blocks[i],))
        reader.end_scan_phase()
        assert rms.resident_keys() == [keys[2], keys[1]]

    def test_a_read_outside_a_scan_evicts_at_its_end(self):
        """A read that overflows the cache hits every block resident as
        it began and evicts once, when it is done: with A resident and
        room for two, reading B, C, A hits A and fetches B and C, then
        drops B."""
        rms = ManagedStorage(cache_capacity=2)
        a, b, c = (("t", 0, "c", i) for i in range(3))
        blocks = [self._block([i]) for i in range(3)]
        read_keys(rms, (a,), blocks[:1])
        before = rms.stats.snapshot()
        read_keys(rms, (b, c, a), (blocks[1], blocks[2], blocks[0]))
        delta = rms.stats.delta(before)
        assert (delta.local_hits, delta.remote_fetches) == (1, 2)
        assert rms.resident_keys() == [c, a]

    def test_invalidate_table(self):
        rms = ManagedStorage()
        read_keys(rms, (("a", 0, "c", 0),), (self._block([1]),))
        read_keys(rms, (("b", 0, "c", 0),), (self._block([2]),))
        rms.invalidate_table("a")
        assert rms.cached_blocks == 1
        read_keys(rms, (("a", 0, "c", 0),), (self._block([1]),))
        assert rms.stats.remote_fetches == 3

    def test_bytes_fetched(self):
        rms = ManagedStorage()
        block = self._block(np.arange(100))
        read_keys(rms, (("t", 0, "c", 0),), (block,))
        assert rms.stats.bytes_fetched == block.nbytes

    def test_stats_delta(self):
        rms = ManagedStorage()
        read_keys(rms, (("t", 0, "c", 0),), (self._block([1]),))
        before = rms.stats.snapshot()
        read_keys(rms, (("t", 0, "c", 0),), (self._block([1]),))
        delta = rms.stats.delta(before)
        assert delta.local_hits == 1
        assert delta.remote_fetches == 0


# -- the batched read path ------------------------------------------------------


def block_calls(seed, num_calls=40, num_slices=3, blocks_per_slice=8):
    """A fixed sequence of keyed reads (``read_keys``): each names 1-6 distinct
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
    around every five calls when ``phased``; unbatched, a call outside
    one reads its blocks one at a time inside a scan phase of its own.
    Returns what an observer can tell: values read, stats, the query's
    sink, cache key order at every barrier, the keys resident after
    every call that returned, and where a fetch gave up."""
    rms = ManagedStorage(cache_capacity=capacity)
    if injector is not None:
        rms.attach_faults(
            injector, RetryPolicy(max_attempts=12, retry_budget=retry_budget)
        )
    query = rms.query_context()
    seen = {"resident": [], "orders": [], "gave_up": None}
    for index, (keys, blocks) in enumerate(calls):
        if phased and index % 5 == 0:
            query.begin_scan_phase()
        try:
            if batched:
                read_keys(query, keys, blocks)
            else:
                # One read outside a scan evicts once, at its end: so
                # does a scan phase around its blocks' reads.
                own_phase = not query.scanning
                if own_phase:
                    query.begin_scan_phase()
                try:
                    for key, block in zip(keys, blocks):
                        read_keys(query, (key,), (block,))
                finally:
                    if own_phase:
                        query.end_scan_phase()
        except RetryBudgetExceeded as error:
            seen["gave_up"] = (index, str(error))
            break
        seen["resident"].append(rms.resident_keys())
        if phased and (index % 5 == 4 or index == len(calls) - 1):
            query.end_scan_phase()
            seen["orders"].append(rms.resident_keys())
    seen["orders"].append(rms.resident_keys())
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
        assert many_seen["resident"] == one_seen["resident"]
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
            read_keys(rms, keys, blocks)
        assert rms.stats.remote_fetches == 1
        assert rms.resident_keys() == keys[:1]


class OrderedDictResidency:
    """The residency model stamps replaced, as a reference: an
    ``OrderedDict`` of block keys, coldest first, touched key by key.
    A :meth:`read` is one round and evicts nothing; :meth:`evict` ends
    a read outside a scan, and a scan.  ``give_up`` is the fetch
    attempt (counted from 0) that raises."""

    def __init__(self, capacity, give_up=None):
        self.capacity, self.give_up = capacity, give_up
        self.cache = OrderedDict()
        self.hits = self.fetches = self.attempts = self.invalidated = 0

    def read(self, keys):
        missing = [key for key in keys if key not in self.cache]
        self.hits += len(keys) - len(missing)
        try:
            for key in missing:
                self.attempts += 1
                if self.attempts - 1 == self.give_up:
                    raise TransientStorageError(f"block {key}")
                self.fetches += 1
                self.cache[key] = None
        finally:
            if self.capacity is not None:
                for key in keys:
                    if key in self.cache:
                        self.cache.move_to_end(key)

    def evict(self):
        while self.capacity is not None and len(self.cache) > self.capacity:
            self.cache.popitem(last=False)

    def invalidate_table(self, table):
        stale = [key for key in self.cache if key[0] == table]
        for key in stale:
            del self.cache[key]
        self.invalidated += len(stale)


RESIDENCY_COLUMNS = [(t, s, c) for t in "ab" for s in (0, 1) for c in "xy"]


@st.composite
def residency_cases(draw):
    """(capacity, give_up, steps): rounds of distinct blocks of one to
    three distinct columns, inside and outside a scan phase, table
    invalidations and cold nodes, in any order."""
    capacity = draw(st.one_of(st.none(), st.just(0), st.integers(1, 5)))
    give_up = draw(st.none() | st.integers(0, 30))
    read = st.tuples(
        st.just("read"),
        st.lists(
            st.sampled_from(RESIDENCY_COLUMNS), min_size=1, max_size=3, unique=True
        ),
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    )
    step = st.one_of(
        read, read, read, read,
        st.tuples(st.just("begin")), st.tuples(st.just("end")),
        st.tuples(st.just("invalidate"), st.sampled_from("ab")),
        st.tuples(st.just("clear")),
    )
    return capacity, give_up, draw(st.lists(step, min_size=1, max_size=30))


@settings(max_examples=300, deadline=None)
@given(residency_cases())
@example((2, None, [
    ("read", [("a", 0, "x")], [0, 1]), ("begin",),
    ("read", [("a", 0, "x"), ("b", 1, "y")], [2, 0]),
    ("end",), ("read", [("a", 0, "y")], [3, 4, 5]), ("invalidate", "a"),
]))
@example((2, None, [  # a scan phase keeps its read order, not slice order
    ("begin",), ("read", [("a", 1, "x"), ("a", 0, "x")], [0, 1]), ("end",),
]))
@example((None, 3, [
    ("read", [("a", 0, "x"), ("a", 1, "x")], [1, 0]),
    ("read", [("a", 0, "x"), ("b", 0, "y")], [0, 2]),
    ("read", [("b", 0, "y")], [2, 3]),
]))
def test_stamps_twin_the_ordered_dict_model(case):
    """Stamp residency against the ``OrderedDict`` model, each step's
    columns one model round, or one round per column under an armed
    injector, and outside a scan one eviction at the step's end.  After
    every step both hold the same blocks in the same coldest-first
    order and have counted the same hits, fetches and invalidations;
    under an armed injector a fetch that gives up leaves the same
    blocks counted and resident."""
    capacity, give_up, steps = case
    rms = ManagedStorage(cache_capacity=capacity)
    if give_up is not None:
        rms.attach_faults(
            FaultInjector(schedule={give_up: "error"}), RetryPolicy(max_attempts=1)
        )
    model = OrderedDictResidency(capacity, give_up)
    reader = rms.query_context()
    block = choose_codec(np.arange(4, dtype=np.int64))
    for step in steps:
        kind = step[0]
        if kind == "read":
            _, names, index = step
            before = (reader.stats.local_hits, reader.stats.remote_fetches)
            hits, fetches, raised = model.hits, model.fetches, None
            keys = [[name + (b,) for b in index] for name in names]
            try:
                for round_keys in keys if give_up is not None else [sum(keys, [])]:
                    model.read(round_keys)
            except TransientStorageError as error:
                raised = str(error)
            finally:
                if not reader.scanning:
                    model.evict()
            try:
                reader.read_columns(
                    [(name, [block] * 8) for name in names],
                    np.array(index, dtype=np.int64),
                )
            except TransientStorageError as error:
                assert raised is not None and raised in str(error)
            else:
                assert raised is None
            assert reader.stats.local_hits - before[0] == model.hits - hits
            assert reader.stats.remote_fetches - before[1] == model.fetches - fetches
        elif kind == "begin":
            reader.begin_scan_phase()
        elif kind == "end":
            reader.end_scan_phase()
            model.evict()
        elif kind == "invalidate":
            rms.invalidate_table(step[1])
            model.invalidate_table(step[1])
        else:
            rms.clear()
            model.cache.clear()
        assert rms.resident_keys() == list(model.cache)
        assert rms.cached_blocks == len(model.cache)
        assert rms.stats.blocks_invalidated == model.invalidated
        assert rms.stats.bytes_fetched == model.fetches * block.nbytes


def fill_checked(rms, column):
    """Record every ``read_columns`` call of ``rms`` as its keys, and
    assert that each key's row of ``column`` is written by then."""
    calls = []
    read_columns = rms.read_columns

    def checked(columns, index, reader=None):
        keys = [name + (b,) for name, _ in columns for b in index.tolist()]
        for key in keys:
            assert column._decoded.written(key[3]), f"{key} read before its row"
        calls.append(keys)
        read_columns(columns, index, reader)

    rms.read_columns = checked
    return calls


def count_decodes(monkeypatch):
    """Count the blocks every codec's ``decode`` turns into values."""
    decoded = Counter()
    for name, codec in CODECS.items():
        def counting(blocks, name=name, decode=codec.decode):
            decoded[name] += len(blocks)
            return decode(blocks)

        monkeypatch.setattr(codec, "decode", counting)
    return decoded


class TestRowsBeforeResidency:
    """A reader fills its rows before it reads, and a block decodes once
    per build."""

    def setup_method(self):
        self.column = make_column(range(80), rows_per_block=20)

    def read(self, rms, index):
        column = self.column
        coverage = BlockCoverage.of_blocks(
            np.array(index, dtype=np.int64), column.rows_per_block, column.num_rows
        )
        return column.read_ranges(coverage, rms)

    def test_a_miss_an_overflowing_read_and_a_refetch(self, monkeypatch):
        column = self.column
        rms = ManagedStorage(cache_capacity=2)
        calls = fill_checked(rms, column)
        decoded = count_decodes(monkeypatch)
        assert self.read(rms, [0]).tolist() == list(range(20))  # a miss
        assert rms.resident_keys() == [column.key_prefix + (0,)]
        # 1 resident + 3 keys > capacity 2: evicts at the read's end.
        assert self.read(rms, [1, 2, 3]).tolist() == list(range(20, 80))
        assert rms.resident_keys() == [column.key_prefix + (b,) for b in (2, 3)]
        assert sum(decoded.values()) == 4
        # Key 0 was evicted: its re-fetch counts and decodes nothing.
        fetches = rms.stats.remote_fetches
        assert self.read(rms, [0]).tolist() == list(range(20))
        assert rms.stats.remote_fetches == fetches + 1
        assert sum(decoded.values()) == 4
        assert len(calls) == 3

    def test_a_corrupted_attempt_never_reaches_the_row(self):
        rms = ManagedStorage(cache_capacity=2)
        rms.attach_faults(
            FaultInjector(schedule={0: "corrupt", 3: "corrupt"}),
            RetryPolicy(max_attempts=3),
        )
        calls = fill_checked(rms, self.column)
        assert self.read(rms, [0, 1, 2, 3]).tolist() == list(range(80))
        assert rms.stats.corrupt_blocks == 2 and rms.stats.retries == 2
        assert len(calls) == 1
        for index, block in enumerate(self.column.blocks):
            assert self.column._decoded.row(index).tolist() == decode_block(block).tolist()

    def test_a_refetch_after_eviction_decodes_nothing(self, monkeypatch):
        """Every block of a column decodes once, however often the
        storage evicts and re-fetches it."""
        rms = ManagedStorage(cache_capacity=1)
        decoded = count_decodes(monkeypatch)
        for _ in range(3):
            for index in ([0, 1], [2], [3, 0], [1, 2, 3]):
                assert self.read(rms, index).tolist() == [
                    value for b in index for value in range(20 * b, 20 * b + 20)
                ]
        assert rms.stats.remote_fetches > 4 * 3
        assert sum(decoded.values()) == 4

    def test_a_corrupted_refetch_is_retried_and_the_row_stays(self):
        """A corruption scheduled on the re-fetch of an evicted block is
        counted and retried by the storage; the column's row, written
        by the first read, does not change."""
        column = self.column
        rms = ManagedStorage(cache_capacity=1)
        # decide calls: 0 fetches block 0, 1 block 1 (evicting 0), 2 the
        # re-fetch of block 0.
        rms.attach_faults(FaultInjector(schedule={2: "corrupt"}), RetryPolicy(max_attempts=3))
        self.read(rms, [0])
        row = column._decoded.row(0)
        self.read(rms, [1])
        assert rms.stats.corrupt_blocks == 0
        assert self.read(rms, [0]).tolist() == list(range(20))
        assert rms.stats.corrupt_blocks == 1 and rms.stats.retries == 1
        assert rms.stats.remote_fetches == 3
        assert column._decoded.row(0).tolist() == row.tolist() == list(range(20))


def test_a_group_writes_only_its_unwritten_rows(monkeypatch):
    """A fill whose blocks are partly written decodes and writes only the
    unwritten rows; the written ones keep their values, and a fill of
    written rows decodes nothing."""
    decoded = DecodedBlocks(np.dtype(np.int64), 3)
    decoded.grow(4)
    values = np.arange(12).reshape(4, 3)
    blocks = [choose_codec(row) for row in values]
    counts = count_decodes(monkeypatch)
    decoded.fill(np.array([1, 3]), blocks)
    assert sum(counts.values()) == 2
    assert [decoded.written(b) for b in range(4)] == [False, True, False, True]
    decoded.fill(np.arange(4), [choose_codec(row + 100) for row in values])
    assert sum(counts.values()) == 4
    assert [decoded.row(b).tolist() for b in range(4)] == [
        [100, 101, 102], [3, 4, 5], [106, 107, 108], [9, 10, 11],
    ]
    decoded.fill(np.array([0, 2]), blocks)
    assert sum(counts.values()) == 4


def test_readers_of_one_cold_column_fill_it_together():
    """Four threads read the same cold column at once through a
    capacity-2 storage: they race to fill the same rows, and every read
    equals decoding every block."""
    import sys
    import threading

    column = make_column(np.arange(600) * 3 % 41, rows_per_block=10)
    want = decoded_reference(column)
    rms = ManagedStorage(cache_capacity=2)
    start = threading.Barrier(4)
    failures = []

    def read(seed):
        rng = random.Random(seed)
        reader = rms.query_context()
        try:
            start.wait(timeout=30.0)
            for _ in range(15):
                lo = rng.randrange(column.num_rows)
                hi = min(lo + rng.randrange(1, 200), column.num_rows)
                coverage = cover(column, np.arange(lo, hi))
                assert column.read_ranges(coverage, reader).tolist() == want[lo:hi].tolist()
            assert column.read_all(reader).tolist() == want.tolist()
        except Exception as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert all(column._decoded.written(b) for b in range(len(column.blocks)))


def test_concurrent_readers_take_only_written_rows():
    """More reader threads than cores, each a statement of its own,
    read the columns of a table through a bounded storage under a short
    switch interval: evictions, re-fetches and racing misses of one
    block.  Every read equals decoding its blocks, and every access is
    counted once, in the global stats and in its reader's sink."""
    import sys
    import threading

    rms = ManagedStorage(cache_capacity=5)
    table = Table(TableSchema("t", TWIN_COLUMNS), num_slices=2, rows_per_block=7, rms=rms)
    table.insert(twin_rows(0, 300), 1)
    wants = [
        {name: decoded_reference(column) for name, column in s.columns.items()}
        for s in table.slices
    ]
    readers, failures = [], []

    def read(seed):
        rng = random.Random(seed)
        reader = rms.query_context()
        readers.append(reader)
        try:
            for _ in range(40):
                slice_id = rng.randrange(2)
                data_slice = table.slices[slice_id]
                lo = rng.randrange(data_slice.num_rows)
                hi = min(lo + rng.randrange(1, 60), data_slice.num_rows)
                coverage = data_slice.cover(rows((lo, hi)))
                for name, column in data_slice.columns.items():
                    got = column.read_ranges(coverage, reader)
                    assert got.tolist() == wants[slice_id][name][coverage.row_ids].tolist()
        except Exception as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    blocks = sum(len(c.blocks) for s in table.slices for c in s.columns.values())
    assert rms.stats.remote_fetches > blocks and rms.stats.local_hits > 0  # re-fetches
    for name in ("remote_fetches", "local_hits"):
        assert getattr(rms.stats, name) == sum(getattr(r.stats, name) for r in readers)


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
            read_keys((one, two)[index % 2], keys, blocks)
            assert set(keys) <= set(rms.resident_keys())
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
                read_keys(spent, keys, blocks)
        assert spent.retry_budget_left == 0 and spent.stats.retry_giveups == 1
        keys, blocks = calls[0]
        assert fresh.retry_budget_left == 2
        read_keys(fresh, keys[:1], blocks[:1])
        assert fresh.stats.blocks_accessed == 1
        assert fresh.stats.retry_giveups == 0

    def test_one_context_driven_from_two_threads(self):
        import threading

        rms = self.armed(budget=500)
        reader = rms.query_context()
        calls = block_calls(3)
        threads = [
            threading.Thread(
                target=lambda mine: [read_keys(reader, k, b) for k, b in mine],
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
        wanted = [i for lo, hi in pairs for i in range(lo, min(hi, 35))]
        rms = ManagedStorage()
        got = column.read_ranges(cover(column, np.array(wanted, dtype=np.int64)), rms)
        assert got.tolist() == [values[i] for i in wanted]
        assert got.dtype == dtype.numpy_dtype
        assert rms.stats.blocks_accessed == len({i // 10 for i in wanted if i < 30})
        # The caller owns what it gets: never a view of the decoded array.
        assert not np.shares_memory(got, column._decoded._rows)

    def test_coverage_of_another_shape_is_refused(self):
        column = make_column(range(25), rows_per_block=10)
        longer = make_column(range(35), rows_per_block=10)
        with pytest.raises(ValueError):
            column.read_ranges(cover(longer, rows((0, 5))), ManagedStorage())
        # Same sealed rows, a block past them, every block decoded: a
        # clipped take would read the last block's rows instead.
        rms = ManagedStorage()
        column.read_all(rms)
        past = BlockCoverage.of_blocks(np.array([1, 2], dtype=np.int64), 10, 25)
        with pytest.raises(ValueError, match="block 2"):
            column.read_ranges(past, rms)


def count_calls(monkeypatch, calls, owner, name, on_call=lambda *args: None):
    """Count ``owner.name`` calls into ``calls[name]`` for one test."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        on_call(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def two_column_engine():
    from repro import Database, PredicateCache, PredicateCacheConfig, QueryEngine
    from repro.storage import ColumnSpec, TableSchema

    db = Database(num_slices=4, rows_per_block=50)
    db.create_table(TableSchema("t", (
        ColumnSpec("a", DataType.INT64), ColumnSpec("b", DataType.INT64),
    )))
    rng = np.random.default_rng(3)
    engine = QueryEngine(db, predicate_cache=PredicateCache(PredicateCacheConfig()))
    engine.insert("t", {
        "a": rng.integers(0, 100, size=4_000), "b": rng.integers(0, 100, size=4_000),
    })
    return engine


def test_warm_scan_reads_each_column_of_each_slice_once(monkeypatch):
    engine = two_column_engine()
    sql = "select count(*) as c from t where a < 20 and b < 50"
    cold = engine.execute(sql)
    calls = Counter()
    states = []  # held, so no two states share an id()

    def counting(owner, name, on_call=lambda *args: None):
        count_calls(monkeypatch, calls, owner, name, on_call)

    counting(ManagedStorage, "read_columns")
    zone_tests = []  # ndim of each zone-map test's minima
    counting(Bounds, "excludes", lambda bounds, lo, hi: zone_tests.append(np.ndim(lo)))
    counting(BitmapSliceState, "rows", lambda state, num_rows: states.append(state))
    counting(RangeList, "to_row_ids")
    warm = engine.execute(sql)
    assert warm.counters.cache_hits == 1
    assert warm.column("c")[0] == cold.column("c")[0]
    assert warm.counters.blocks_accessed > 8
    assert 0 < calls["read_columns"] <= 4 * 2
    assert zone_tests and set(zone_tests) == {1}  # whole arrays, never per block
    # One materialisation of each slice's candidate rows, and no other:
    # a bitmap state expands its bits straight to row ids.
    assert calls["rows"] == 4
    assert len({id(state) for state in states}) == 4
    assert calls["to_row_ids"] == 0


def test_cold_scan_expands_no_range_list_and_reads_each_column_of_each_slice_once(
    monkeypatch,
):
    """A miss covers its kept blocks by the block: no candidate range list
    is expanded to row ids, not even for the visibility mask a DELETE
    makes every slice compute, and each column of each slice is read in
    one ``read_columns`` round."""
    engine = two_column_engine()
    engine.execute("delete from t where b = 7")
    truth = engine.execute("select a, b from t")
    a, b = truth.column("a"), truth.column("b")
    calls = Counter()
    count_calls(monkeypatch, calls, ManagedStorage, "read_columns")
    count_calls(monkeypatch, calls, RangeList, "to_row_ids")
    cold = engine.execute("select count(*) as c from t where a < 20 and b < 50")
    assert cold.counters.cache_misses > 0 and cold.counters.cache_hits == 0
    assert cold.column("c")[0] == np.count_nonzero((a < 20) & (b < 50))
    assert cold.counters.blocks_accessed > 8
    assert 0 < calls["read_columns"] <= 4 * 2
    assert calls["to_row_ids"] == 0


def test_a_scan_larger_than_the_block_cache_keeps_its_last_blocks():
    """A bounded block cache evicts once, after the scan: the repeat
    hits the ``capacity`` blocks the first scan read last.  An LRU that
    evicted as it read would push out each block just before the repeat
    asks for it, and hit nothing."""
    from repro import QueryEngine

    capacity = 8
    db = Database(num_slices=2, rows_per_block=100, cache_capacity=capacity)
    db.create_table(TableSchema("t", (ColumnSpec("a", DataType.INT64),)))
    engine = QueryEngine(db)
    engine.insert("t", {"a": np.arange(2_000)})
    table = db.table("t")
    num_blocks = sum(len(s.columns["a"].blocks) for s in table.slices)
    assert num_blocks > capacity
    sql = "select count(*) as c from t where a >= 0"
    cold, warm = engine.execute(sql), engine.execute(sql)
    assert cold.scalar() == warm.scalar() == 2_000
    assert (cold.counters.blocks_accessed, cold.counters.remote_fetches) == (
        num_blocks, num_blocks
    )
    assert warm.counters.blocks_accessed == num_blocks
    assert warm.counters.blocks_accessed - warm.counters.remote_fetches == capacity
    assert warm.counters.remote_fetches == num_blocks - capacity
    assert db.rms.cached_blocks == capacity


# -- block coverage: dropped blocks and selection against the plain build -------

COVERAGE_ATTRIBUTES = (
    "row_ids", "sealed_rows", "blocks", "whole_blocks", "tail_offsets",
)


def assert_same_coverage(got, want):
    for name in COVERAGE_ATTRIBUTES:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def coverage_cases(draw):
    size = draw(st.integers(1, 6))
    num_rows = draw(st.integers(0, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, 45), st.integers(0, 45)), max_size=6))
    covered = np.array(
        sorted({row for p in pairs for row in range(min(p), min(max(p), num_rows))}),
        dtype=np.int64,
    )
    if draw(st.booleans()):
        covered = np.arange(num_rows, dtype=np.int64)
    num_blocks = num_rows // size
    dropped = np.array(
        draw(st.lists(st.booleans(), min_size=num_blocks, max_size=num_blocks)),
        dtype=bool,
    )
    if draw(st.booleans()):
        dropped[:] = True  # every sealed candidate row goes; the tail stays
    row_mask = np.array(
        draw(st.lists(st.booleans(), min_size=len(covered), max_size=len(covered))),
        dtype=bool,
    )
    return covered, size, num_rows, dropped, row_mask


def unpruned(row_ids, size, dropped):
    """The row ids outside the sealed blocks ``dropped`` marks."""
    sealed = row_ids < len(dropped) * size
    kept = np.ones(len(row_ids), dtype=bool)
    kept[sealed] = ~dropped[row_ids[sealed] // size]
    return row_ids[kept]


def fixed_case(pairs, size, num_rows, dropped, keep_every=2):
    covered = rows(*((lo, min(hi, num_rows)) for lo, hi in pairs))
    row_mask = np.arange(len(covered)) % keep_every == 0
    return covered, size, num_rows, np.array(dropped, dtype=bool), row_mask


FIXED_COVERAGE_CASES = [
    # Every sealed candidate row dropped: only the partial last block's tail is left.
    fixed_case([(3, 8), (12, 25)], 10, 25, [True, True]),
    # Empty tail; the kept block is covered completely (whole blocks).
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
    covered, size, num_rows, dropped, _ = case
    assert_same_coverage(
        BlockCoverage(covered, size, num_rows, dropped),
        BlockCoverage(unpruned(covered, size, dropped), size, num_rows),
    )


@settings(max_examples=300, deadline=None)
@given(coverage_cases())
@example(FIXED_COVERAGE_CASES[0])
@example(FIXED_COVERAGE_CASES[1])
@example(FIXED_COVERAGE_CASES[2])
def test_selected_coverage_equals_coverage_of_the_selected_rows(case):
    covered, size, num_rows, _, row_mask = case
    coverage = BlockCoverage(covered, size, num_rows)
    assert_same_coverage(
        coverage.select(row_mask),
        BlockCoverage(coverage.row_ids[row_mask], size, num_rows),
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
    everything = np.arange(num_rows)
    want = unpruned(everything, 10, dropped)
    assert data_slice.cover(None, dropped).row_ids.tolist() == want.tolist()
    assert data_slice.cover().row_ids.tolist() == everything.tolist()


@st.composite
def whole_block_cases(draw):
    """A slice of whole blocks, with or without a tail, some rows deleted,
    a zone-map verdict (or none) and a mask over the kept rows."""
    size = draw(st.integers(1, 6))
    num_rows = draw(st.integers(0, 8)) * size + draw(st.integers(0, size - 1))
    num_blocks = num_rows // size
    dropped = None
    if draw(st.booleans()):
        dropped = np.array(
            draw(st.lists(st.booleans(), min_size=num_blocks, max_size=num_blocks)),
            dtype=bool,
        )
    created = draw(st.integers(0, num_rows))  # rows [created, num_rows) come at txid 3
    deleted = draw(st.lists(st.integers(0, max(num_rows - 1, 0)), max_size=num_rows))
    kept_rows = num_rows - (0 if dropped is None else int(dropped.sum()) * size)
    row_mask = np.array(
        draw(st.lists(st.booleans(), min_size=kept_rows, max_size=kept_rows)),
        dtype=bool,
    )
    start = draw(st.integers(0, kept_rows))
    return size, num_rows, dropped, created, deleted, row_mask, start


@settings(max_examples=300, deadline=None)
@given(whole_block_cases())
@example(
    (10, 37, np.array([False, True, False]), 20, [0, 15, 36], np.arange(27) % 2 == 0, 12)
)
@example((10, 30, None, 30, [], np.ones(30, dtype=bool), 0))
@example((4, 3, np.zeros(0, dtype=bool), 0, [1], np.array([True, False, True]), 3))
def test_whole_block_coverage_equals_the_placed_coverage_of_the_unpruned_rows(case):
    """The miss path's coverage, built by the block from the zone-map
    verdict, against the constructor's coverage of the same candidates:
    every attribute, the length, ``select``, ``read_ranges`` and the
    visibility mask.  Each use gets a fresh whole-block coverage, so none
    sees row ids another use expanded."""
    size, num_rows, dropped, created, deleted, row_mask, start = case
    data_slice = DataSlice("t", 0, {"c": DataType.INT64}, rows_per_block=size)
    values = np.arange(num_rows, dtype=np.int64) * 7 % 11
    data_slice.append_rows({"c": values[:created]}, 1)
    data_slice.append_rows({"c": values[created:]}, 3)
    data_slice.mark_deleted(np.array(deleted, dtype=np.int64), 2)

    def whole():
        return data_slice.cover(None, dropped)

    everything = np.arange(num_rows, dtype=np.int64)
    placed = BlockCoverage(
        everything if dropped is None else unpruned(everything, size, dropped),
        size,
        num_rows,
    )
    assert len(whole()) == len(placed) == len(placed.row_ids)
    assert_same_coverage(whole(), placed)
    for index in (row_mask, slice(start, None)):
        assert len(whole().select(index)) == len(placed.select(index))
        assert_same_coverage(whole().select(index), placed.select(index))
    rms = ManagedStorage()
    column = data_slice.columns["c"]
    assert np.array_equal(
        column.read_ranges(whole(), rms), column.read_ranges(placed, rms)
    )
    assert np.array_equal(
        column.read_ranges(whole().select(row_mask), rms),
        column.read_ranges(placed.select(row_mask), rms),
    )
    for txid in (0, 1, 2, 3):
        assert np.array_equal(
            data_slice.visibility_mask(whole(), txid),
            data_slice.visibility_mask(placed, txid),
        )


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
    return (
        [(b.codec_name, b.num_values, b.nbytes, b.checksum) for b in column.blocks],
        zone_bounds(column.zonemap),
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

    run()

    assert table.layout_version == table.data_version > max(versions)
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
                assert zone_bounds(column.zonemap)[index] == [min(block), max(block)]


def test_only_a_rewrite_invalidates_decoded_blocks():
    """Sealing a block invalidates nothing (its key cannot be resident
    yet); a rewrite makes the table's blocks non-resident once, all of
    them, and no other table's."""
    db = Database(num_slices=2, rows_per_block=4)
    for name in ("t", "other"):
        db.create_table(TableSchema(name, (ColumnSpec("k", DataType.INT64),)))
    t, other = db.table("t"), db.table("other")

    def cached(name):
        return [key for key in db.rms.resident_keys() if key[0] == name]

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


# -- the decoded array against decoding every block --------------------------------


TWIN_COLUMNS = (
    ColumnSpec("k", DataType.INT64),
    ColumnSpec("f", DataType.FLOAT64),
    ColumnSpec("s", DataType.STRING),
)


def twin_rows(start, count):
    keys = np.arange(start, start + count)
    return {
        "k": keys * 7 % 23,
        "f": keys / 4,
        "s": [f"s{key % 5}" for key in keys],
    }


@st.composite
def decoded_array_cases(draw):
    """(rows_per_block, capacity, fault seed, steps): a first append, then
    appends of any size, reads of range lists or of whole blocks (most
    steps), DELETE + VACUUM, ``reorganize`` and a cold node, in any
    order."""
    size = draw(st.integers(1, 6))
    capacity = draw(st.integers(1, 30))
    fault_seed = draw(st.none() | st.integers(0, 1_000))
    pairs = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4)
    read = st.one_of(
        st.tuples(st.just("read"), st.integers(0, 1), pairs, st.booleans()),
        st.tuples(st.just("whole"), st.integers(0, 1), st.integers(0, 2**16)),
    )
    step = st.one_of(
        read, read, read,
        st.tuples(st.just("append"), st.integers(0, 25)),
        st.tuples(st.just("vacuum"), st.integers(0, 2**16)),
        st.tuples(st.just("reorganize"), st.integers(0, 2**16)),
        st.tuples(st.just("clear")),
    )
    first = ("append", draw(st.integers(2 * size, 40)))
    return size, capacity, fault_seed, [first, *draw(st.lists(step, min_size=2, max_size=14))]


def decoded_reference(column):
    """Every row of the column by decoding each sealed block afresh."""
    return np.concatenate(
        [decode_block(block) for block in column.blocks] + [column.tail_values()]
    )


@settings(max_examples=150, deadline=None)
@given(decoded_array_cases())
@example((2, 1, 3, [
    ("append", 11), ("read", 0, [(0, 9)], False), ("append", 9),
    ("read", 1, [(1, 3), (5, 12)], True), ("clear",), ("whole", 0, 5),
    ("vacuum", 1), ("read", 0, [(0, 20)], True), ("reorganize", 2),
    ("whole", 1, 0),
]))
def test_decoded_array_reads_equal_decoding_every_block(case):
    """Column reads through a capacity-bounded storage — eviction, the
    re-fetch that writes nothing, the array growing under appends, the
    resets of VACUUM and ``reorganize``, corrupted attempts retried —
    equal decoding every sealed block and indexing the covered rows."""
    size, capacity, fault_seed, steps = case
    rms = ManagedStorage(cache_capacity=capacity)
    if fault_seed is not None:
        rms.attach_faults(
            FaultInjector(seed=fault_seed, error_rate=0.1, corruption_rate=0.2),
            RetryPolicy(max_attempts=40),
        )
    table = Table(TableSchema("t", TWIN_COLUMNS), num_slices=2, rows_per_block=size, rms=rms)
    txid, loaded = 1, 0
    for step in steps:
        kind = step[0]
        if kind == "append":
            table.insert(twin_rows(loaded, step[1]), txid)
            loaded += step[1]
        elif kind in ("read", "whole"):
            data_slice = table.slices[step[1]]
            if kind == "read":
                coverage = data_slice.cover(np.array(sorted({
                    row for p in step[2]
                    for row in range(min(p), min(max(p), data_slice.num_rows))
                }), dtype=np.int64))
            else:
                rng = np.random.default_rng(step[2])
                dropped = rng.random(data_slice.num_rows // size) < 0.3
                coverage = data_slice.cover(None, dropped)
            reader = rms
            if kind == "read" and step[3]:
                reader = rms.query_context()
                reader.begin_scan_phase()
            for column in data_slice.columns.values():
                want = decoded_reference(column)[coverage.row_ids]
                got = column.read_ranges(coverage, reader)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
            if reader is not rms:
                reader.end_scan_phase()
        elif kind == "vacuum":
            rng = np.random.default_rng(step[1])
            for slice_id, data_slice in enumerate(table.slices):
                doomed = np.flatnonzero(rng.random(data_slice.num_rows) < 0.3)
                table.delete_local_rows(slice_id, doomed, txid)
            table.vacuum(txid + 1)
        elif kind == "reorganize":
            rng = np.random.default_rng(step[1])
            table.reorganize(
                lambda t: [rng.permutation(s.num_rows) for s in t.slices]
            )
        else:
            rms.clear()
        txid += 1
    # No row was ever written wrong, nor rewritten by a corrupted attempt.
    for data_slice in table.slices:
        for column in data_slice.columns.values():
            for index, block in enumerate(column.blocks):
                if column._decoded.written(index):
                    assert column._decoded.row(index).tolist() == decode_block(block).tolist()
