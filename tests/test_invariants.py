"""The runtime invariant validator (repro/invariants.py).

Every check must fire: each has at least one passing fixture and one
seeded violation, and each hook site (RangeList construction, cache
installs, snapshot rotation) is shown to reach its check when
validation is enabled — and to skip it when off.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro import invariants
from repro.core import (
    PredicateCache,
    PredicateCacheConfig,
    RangeList,
    ScanKey,
    SemiJoinDescriptor,
)
from repro.core.entry import BitmapSliceState, CacheEntry, RangeSliceState
from repro.core.intervals import IntervalBucket
from repro.invariants import InvariantViolation
from repro.persist import CacheStore, collect_records
from repro.persist.format import encode_snapshot
from repro.storage import ColumnSpec, Database, DataType, TableSchema
from repro.storage.column import BlockCoverage, ColumnStore
from repro.storage.compression import array_checksum
from repro.storage.rms import ManagedStorage

from tests.rowsets import ranges, rows


@pytest.fixture
def validate():
    """Enable validation for the test, restoring the prior state after."""
    was = invariants.enabled()
    invariants.enable()
    yield
    if not was:
        invariants.disable()


def make_cache(**kwargs):
    return PredicateCache(PredicateCacheConfig(**kwargs))


def populated_cache(num_keys=2):
    cache = make_cache()
    for i in range(num_keys):
        entry = cache.get_or_create(ScanKey("t", f"x = {i}"), num_slices=2)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
    return cache


# -- gating --------------------------------------------------------------------


class TestGating:
    def test_enable_disable(self):
        was = invariants.enabled()
        try:
            invariants.enable()
            assert invariants.enabled() and invariants.ACTIVE
            invariants.disable()
            assert not invariants.enabled() and not invariants.ACTIVE
        finally:
            (invariants.enable if was else invariants.disable)()

    @pytest.mark.parametrize(
        "env, expected", [("1", "True"), ("0", "False"), ("", "False")]
    )
    def test_env_variable_controls_default(self, env, expected):
        out = subprocess.check_output(
            [sys.executable, "-c", "import repro.invariants as i; print(i.ACTIVE)"],
            env={**os.environ, "REPRO_VALIDATE": env, "PYTHONPATH": "src"},
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.strip() == expected

    def test_hooks_are_skipped_when_off(self, monkeypatch):
        # With validation off, corrupt bounds sail through the trusted
        # constructor — the hook is a branch, not a slow path.
        monkeypatch.setattr(invariants, "ACTIVE", False)
        bad = np.array([[9, 3]], dtype=np.int64)
        wrapped = RangeList._wrap(bad.copy())
        assert wrapped is not None


# -- check_bounds --------------------------------------------------------------


class TestCheckBounds:
    def test_valid_bounds_pass(self):
        invariants.check_bounds(np.array([[0, 3], [5, 9]], dtype=np.int64))
        invariants.check_bounds(np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize(
        "bounds, fragment",
        [
            (np.array([0, 3], dtype=np.int64), "shape"),
            (np.array([[0, 3]], dtype=np.int32), "int64"),
            (np.array([[-1, 3]], dtype=np.int64), ">= 0"),
            (np.array([[4, 4]], dtype=np.int64), "empty/inverted"),
            (np.array([[5, 3]], dtype=np.int64), "empty/inverted"),
            (np.array([[0, 5], [5, 9]], dtype=np.int64), "sorted"),
            (np.array([[5, 9], [0, 3]], dtype=np.int64), "sorted"),
        ],
    )
    def test_violations(self, bounds, fragment):
        with pytest.raises(InvariantViolation, match=fragment):
            invariants.check_bounds(bounds)

    def test_wrap_hook_fires(self, validate):
        with pytest.raises(InvariantViolation):
            RangeList._wrap(np.array([[9, 3]], dtype=np.int64))

    def test_wrap_hook_passes_valid(self, validate):
        assert RangeList._wrap(
            np.array([[0, 4]], dtype=np.int64)
        ).num_rows == 4


# -- check_slice_state ---------------------------------------------------------


class TestCheckSliceState:
    def test_range_state_passes(self):
        state = RangeSliceState(rows((0, 5)), 100, max_ranges=8)
        invariants.check_slice_state(state, slice_rows=100)

    # Broken states come from the trusted constructor handed a broken
    # representation — the one way left to make one (a damaged store).

    def test_range_beyond_watermark(self):
        state = RangeSliceState._wrap(ranges((0, 50)), 10, 8)
        with pytest.raises(InvariantViolation, match="beyond the"):
            invariants.check_slice_state(state)

    def test_range_count_over_budget(self):
        state = RangeSliceState._wrap(ranges((0, 2), (4, 6)), 100, 1)
        with pytest.raises(InvariantViolation, match="max_ranges"):
            invariants.check_slice_state(state)

    def test_watermark_beyond_slice(self):
        state = RangeSliceState(rows((0, 5)), 100, max_ranges=8)
        with pytest.raises(InvariantViolation, match="slice row count"):
            invariants.check_slice_state(state, slice_rows=50)

    def test_negative_watermark(self):
        state = RangeSliceState._wrap(ranges(), -1, 8)
        with pytest.raises(InvariantViolation, match=">= 0"):
            invariants.check_slice_state(state)

    def test_bitmap_state_passes(self):
        state = BitmapSliceState(rows((0, 64)), 1000, block_size=128)
        invariants.check_slice_state(state, slice_rows=1000)

    def test_bitmap_wrong_dtype(self):
        state = BitmapSliceState._wrap(np.ones(8, dtype=np.int8), 1000, 128)
        with pytest.raises(InvariantViolation, match="bool"):
            invariants.check_slice_state(state)

    def test_bitmap_too_few_bits(self):
        state = BitmapSliceState._wrap(np.ones(6, dtype=bool), 1000, 128)
        with pytest.raises(InvariantViolation, match="bits"):
            invariants.check_slice_state(state)

    def test_bitmap_set_bit_beyond_watermark(self):
        # Set or not: no constructor leaves a bit past the watermark's
        # blocks.
        for extra in (True, False):
            bits = np.array([True] * 8 + [extra])
            state = BitmapSliceState._wrap(bits, 1000, 128)
            with pytest.raises(InvariantViolation, match="needs exactly 8"):
                invariants.check_slice_state(state)

    def test_bitmap_bad_block_size(self):
        state = BitmapSliceState._wrap(np.ones(8, dtype=bool), 1000, 0)
        with pytest.raises(InvariantViolation, match="block_size"):
            invariants.check_slice_state(state)

    def test_unknown_state_type(self):
        alien = SimpleNamespace(last_cached_row=10)
        with pytest.raises(InvariantViolation, match="unknown"):
            invariants.check_slice_state(alien)

    def test_record_slice_scan_hook_fires(self, validate, monkeypatch):
        seen = []
        real = invariants.check_slice_state
        monkeypatch.setattr(
            invariants,
            "check_slice_state",
            lambda state, slice_rows=None: (
                seen.append(state), real(state, slice_rows)
            ),
        )
        populated_cache(num_keys=1)
        assert len(seen) == 1


# -- check_slice_visibility ----------------------------------------------------


class TestCheckSliceVisibility:
    def make_table(self):
        db = Database(num_slices=1, rows_per_block=4)
        db.create_table(TableSchema("t", (ColumnSpec("k", DataType.INT64),)))
        table = db.table("t")
        table.insert({"k": np.arange(6)}, db.begin())
        return db, table

    def test_written_summary_passes(self):
        db, table = self.make_table()
        table.delete_local_rows(0, np.array([2]), db.begin())
        invariants.check_slice_visibility(table.slices[0])

    @pytest.mark.parametrize("field", ["max_xmin", "min_xmax"])
    def test_stale_summary(self, field):
        _, table = self.make_table()
        setattr(table.slices[0], field, 0)
        with pytest.raises(InvariantViolation, match="summarizes"):
            invariants.check_slice_visibility(table.slices[0])

    def test_table_writes_and_rewrites_fire_the_hook(self, validate, monkeypatch):
        db, table = self.make_table()
        seen = []
        monkeypatch.setattr(
            invariants, "check_slice_visibility", lambda s: seen.append(s)
        )
        table.insert({"k": [9]}, db.begin())
        table.delete_local_rows(0, np.array([0]), db.begin())
        table.vacuum(db.horizon_txid)
        assert seen == [table.slices[0]] * 3


# -- check_decoded_rows --------------------------------------------------------


class TestCheckDecodedRows:
    def make_column(self):
        column = ColumnStore("t", 0, "k", DataType.INT64, 4)
        column.append(np.arange(10))  # two sealed blocks and a tail
        return column

    def check(self, column, indices):
        invariants.check_decoded_rows(
            column._decoded, column.blocks, indices, array_checksum
        )

    def test_read_rows_pass(self):
        column = self.make_column()
        column.read_all(ManagedStorage())
        self.check(column, [0, 1])

    def test_unwritten_row(self):
        column = self.make_column()
        with pytest.raises(InvariantViolation, match="never written"):
            self.check(column, [0])

    def test_row_that_does_not_match_its_checksum(self):
        column = self.make_column()
        column.read_all(ManagedStorage())
        column._decoded._rows[1, 2] = -1
        self.check(column, [0])
        with pytest.raises(InvariantViolation, match="checksum"):
            self.check(column, [0, 1])

    def test_gather_fires_the_hook(self, validate, monkeypatch):
        column = self.make_column()
        seen = []
        monkeypatch.setattr(
            invariants, "check_decoded_rows",
            lambda decoded, blocks, indices, checksum: seen.append(list(indices)),
        )
        coverage = BlockCoverage(rows((5, 10)), column.rows_per_block, column.num_rows)
        column.read_ranges(coverage, ManagedStorage())
        assert seen == [[1]]


# -- check_cache ---------------------------------------------------------------


class TestCheckCache:
    def test_healthy_cache_passes(self):
        invariants.check_cache(populated_cache())

    def test_byte_budget_violation(self):
        cache = make_cache(max_bytes=10)
        for i in range(2):
            key = ScanKey("t", f"x = {i}")
            entry = CacheEntry(key, 1, {})
            entry.slice_states[0] = RangeSliceState(
                rows((0, 5), (7, 9)), 100, max_ranges=8
            )
            cache._entries[key] = entry
        with pytest.raises(InvariantViolation, match="max_bytes"):
            invariants.check_cache(cache)

    def test_byte_count_drift(self):
        cache = populated_cache(num_keys=2)
        cache._nbytes += 1  # tamper
        with pytest.raises(InvariantViolation, match="byte count"):
            invariants.check_cache(cache)

    def test_zero_slice_entry(self):
        cache = make_cache()
        key = ScanKey("t", "x = 1")
        cache._entries[key] = CacheEntry(key, 0, {})
        with pytest.raises(InvariantViolation, match="zero slices"):
            invariants.check_cache(cache)

    def test_policy_overflow(self):
        cache = populated_cache(num_keys=1)
        cache.policy = SimpleNamespace(tracked_keys=5, max_tracked=2)
        with pytest.raises(InvariantViolation, match="policy"):
            invariants.check_cache(cache)

    @staticmethod
    def indexed_cache():
        """Reuse on: two exact intervals on ``x`` share a bucket, and a
        join key stays out of the interval index."""
        cache = make_cache(enable_reuse=True)
        for text in ("x < 5", "x < 9"):
            cache.get_or_create(ScanKey("t", text), 1)
        join = ScanKey("t", "x = 1", (SemiJoinDescriptor(
            "a = b", "d", "TRUE", (SemiJoinDescriptor("c = e", "d2"),)
        ),))
        cache.get_or_create(join, 1)
        invariants.check_cache(cache)  # healthy
        return cache

    def test_interval_bucket_out_of_lru_order(self):
        cache = self.indexed_cache()
        bucket = cache._ranges[("t", "x")]
        # Reordered behind the LRU's back: the two stamps swapped.
        bucket.stamps[[0, 1]] = bucket.stamps[[1, 0]]
        with pytest.raises(InvariantViolation, match="interval index"):
            invariants.check_cache(cache)

    def test_interval_index_missing_key(self):
        cache = self.indexed_cache()
        key = ScanKey("t", "x < 5")
        cache._ranges[("t", "x")].remove(key)
        with pytest.raises(InvariantViolation, match="interval index"):
            invariants.check_cache(cache)

    def test_interval_slot_misstates_its_interval(self):
        cache = self.indexed_cache()
        cache._ranges[("t", "x")].hi[0] = 7.0
        with pytest.raises(InvariantViolation, match="misstates slot"):
            invariants.check_cache(cache)

    def test_interval_index_column_map_drift(self):
        cache = self.indexed_cache()
        cache._range_columns[ScanKey("t", "x < 5")] = "y"
        with pytest.raises(InvariantViolation, match="key -> column"):
            invariants.check_cache(cache)

    def test_empty_bucket_left_behind(self):
        cache = self.indexed_cache()
        cache._ranges[("t", "y")] = IntervalBucket()
        with pytest.raises(InvariantViolation, match="interval index"):
            invariants.check_cache(cache)

    def test_eviction_hook_fires(self, validate, monkeypatch):
        seen = []
        monkeypatch.setattr(
            invariants, "check_cache", lambda cache: seen.append(cache)
        )
        populated_cache(num_keys=1)
        assert seen  # _evict_if_needed ran the check


# -- check_snapshot_roundtrip --------------------------------------------------


class TestSnapshotRoundtrip:
    def records(self):
        return collect_records([populated_cache()])

    def test_clean_roundtrip_passes(self):
        records = self.records()
        invariants.check_snapshot_roundtrip(records, encode_snapshot(records, {}))

    def test_truncated_bytes_fail(self):
        records = self.records()
        data = encode_snapshot(records, {})
        with pytest.raises(InvariantViolation, match="damage"):
            invariants.check_snapshot_roundtrip(records, data[:-3])

    def test_lost_entry_fails(self):
        records = self.records()
        data = encode_snapshot(records, {})
        extra = collect_records([populated_cache(num_keys=3)])
        with pytest.raises(InvariantViolation, match="lost/invented"):
            invariants.check_snapshot_roundtrip(extra, data)

    def test_altered_entry_fails(self):
        records = self.records()
        data = encode_snapshot(records, {})
        next(iter(records.values())).hits += 7  # drift after encoding
        with pytest.raises(InvariantViolation, match="altered"):
            invariants.check_snapshot_roundtrip(records, data)

    def test_store_rotation_hook_fires(self, validate, tmp_path, monkeypatch):
        seen = []
        real = invariants.check_snapshot_roundtrip
        monkeypatch.setattr(
            invariants,
            "check_snapshot_roundtrip",
            lambda records, data: (seen.append(len(data)), real(records, data)),
        )
        store = CacheStore(str(tmp_path))
        assert store.snapshot([populated_cache()])
        assert len(seen) == 1

    def test_store_rotation_detects_seeded_encoder_bug(
        self, validate, tmp_path, monkeypatch
    ):
        import repro.persist.store as store_mod

        monkeypatch.setattr(
            store_mod,
            "encode_snapshot",
            lambda records, meta: encode_snapshot(records, meta)[:-3],
        )
        store = CacheStore(str(tmp_path))
        with pytest.raises(InvariantViolation, match="damage"):
            store.snapshot([populated_cache()])


# -- end to end ----------------------------------------------------------------


class TestEndToEnd:
    def test_validated_scan_workload_is_clean(self, validate):
        """A real insert/scan/extend/vacuum workload under validation."""
        from repro import Database, PredicateCache, QueryEngine
        from repro.storage import ColumnSpec, DataType, TableSchema

        db = Database(num_slices=2, rows_per_block=64)
        db.create_table(
            TableSchema("t", (ColumnSpec("x", DataType.INT64),))
        )
        engine = QueryEngine(db, predicate_cache=PredicateCache())
        engine.insert("t", {"x": list(range(500))})
        for _ in range(3):
            r = engine.execute("select count(*) as c from t where x < 100")
            assert r.scalar() == 100
        engine.insert("t", {"x": list(range(500, 600))})
        assert engine.execute(
            "select count(*) as c from t where x < 100"
        ).scalar() == 100
        engine.execute("delete from t where x >= 550")
        engine.vacuum(["t"])
        assert engine.execute(
            "select count(*) as c from t where x < 100"
        ).scalar() == 100
