"""Tables: distribution, MVCC visibility, vacuum, version stamps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.storage import ColumnSpec, Database, DataType, TableSchema
from repro.storage.slice import INFINITY_TX


def make_db(num_slices=2, rows_per_block=10):
    db = Database(num_slices=num_slices, rows_per_block=rows_per_block)
    db.create_table(
        TableSchema(
            "t",
            (
                ColumnSpec("k", DataType.INT64),
                ColumnSpec("v", DataType.FLOAT64),
            ),
        )
    )
    return db


class TestSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (ColumnSpec("a", DataType.INT64), ColumnSpec("a", DataType.INT64)),
            )

    def test_rejects_unknown_dist_key(self):
        with pytest.raises(ValueError):
            TableSchema("t", (ColumnSpec("a", DataType.INT64),), dist_key="b")

    def test_dtype_of(self):
        schema = TableSchema("t", (ColumnSpec("a", DataType.DATE),))
        assert schema.dtype_of("a") is DataType.DATE
        with pytest.raises(KeyError):
            schema.dtype_of("z")


class TestInsertAndDistribution:
    def test_round_robin_covers_all_slices(self):
        db = make_db(num_slices=4)
        table = db.table("t")
        table.insert({"k": np.arange(100), "v": np.zeros(100)}, db.begin())
        assert all(s.num_rows == 25 for s in table.slices)

    def test_hash_distribution_is_stable(self):
        db = Database(num_slices=4)
        db.create_table(
            TableSchema(
                "h",
                (ColumnSpec("k", DataType.INT64), ColumnSpec("v", DataType.INT64)),
                dist_key="k",
            )
        )
        table = db.table("h")
        table.insert({"k": np.arange(50), "v": np.zeros(50)}, db.begin())
        table.insert({"k": np.arange(50), "v": np.ones(50)}, db.begin())
        # Same key -> same slice: every slice's key set is duplicated.
        for s in table.slices:
            keys = s.columns["k"].read_all(table.rms)
            unique, counts = np.unique(keys, return_counts=True)
            assert (counts == 2).all()

    def test_insert_missing_column_raises(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.table("t").insert({"k": [1]}, db.begin())

    def test_insert_bumps_data_version_only(self):
        db = make_db()
        table = db.table("t")
        v_data, v_layout = table.data_version, table.layout_version
        table.insert({"k": [1], "v": [1.0]}, db.begin())
        assert table.data_version > v_data
        assert table.layout_version == v_layout


class TestMVCC:
    def test_snapshot_isolation_of_inserts(self):
        db = make_db()
        table = db.table("t")
        tx1 = db.begin()
        table.insert({"k": [1, 2], "v": [0.0, 0.0]}, tx1)
        read_old = tx1 - 1
        assert table.visible_row_count(read_old) == 0
        assert table.visible_row_count(tx1) == 2

    def test_delete_hides_rows_from_later_snapshots(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, db.begin())
        del_tx = db.begin()
        table.delete_local_rows(0, np.array([0, 1, 2]), del_tx)
        assert table.visible_row_count(db.begin()) == 7
        # A snapshot before the delete still sees all rows.
        assert table.visible_row_count(del_tx - 1) == 10

    def test_double_delete_is_idempotent(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(5), "v": np.zeros(5)}, db.begin())
        assert table.delete_local_rows(0, np.array([1]), db.begin()) == 1
        assert table.delete_local_rows(0, np.array([1]), db.begin()) == 0

    def test_visibility_mask(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(6), "v": np.zeros(6)}, db.begin())
        table.delete_local_rows(0, np.array([2, 3]), db.begin())
        mask = table.slices[0].visibility_mask(table.slices[0].cover(), db.begin())
        assert mask.tolist() == [True, True, False, False, True, True]


class TestMVCCSummary:
    """A slice's MVCC summary (newest ``xmin``, oldest ``xmax``) against
    the per-row mask it lets scans skip."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_summary_twins_the_per_row_mask(self, data):
        db = make_db(num_slices=2, rows_per_block=4)
        table = db.table("t")
        latest = 0
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            op = data.draw(
                st.sampled_from(["append", "delete", "update", "vacuum", "reorganize"]),
                label="op",
            )
            if op == "vacuum":
                horizon = data.draw(st.integers(0, latest + 1), label="horizon")
                # The full re-scan's answer, taken before the vacuum.
                before = [s.num_rows for s in table.slices]
                survivors = [
                    int(np.count_nonzero(s._xmax.values >= horizon))
                    for s in table.slices
                ]
                assert table.vacuum(horizon) == (survivors != before)
                assert [s.num_rows for s in table.slices] == survivors
            elif op == "reorganize":
                orders = [
                    np.asarray(
                        data.draw(st.permutations(range(s.num_rows)), label="order"),
                        dtype=np.int64,
                    )
                    for s in table.slices
                ]
                table.reorganize(lambda _table: orders)
            else:
                latest = db.begin()
                if op != "append":
                    for slice_id, s in enumerate(table.slices):
                        doomed = data.draw(
                            st.lists(st.integers(0, max(0, s.num_rows - 1)), max_size=4)
                            if s.num_rows
                            else st.just([]),
                            label="doomed",
                        )
                        table.delete_local_rows(
                            slice_id, np.array(doomed, dtype=np.int64), latest
                        )
                if op != "delete":
                    n = data.draw(st.integers(1, 9), label="rows")
                    table.insert({"k": np.arange(n), "v": np.zeros(n)}, latest)
            for s in table.slices:
                invariants.check_slice_visibility(s)
                full = s.cover()
                for txid in range(latest + 2):
                    mask = s.visibility_mask(full, txid)
                    assert s.all_visible(txid) == bool(mask.all())
                    assert s.visible_row_count(txid) == int(np.count_nonzero(mask))

    def test_summary_follows_writes_and_rewrites(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        s = table.slices[0]
        assert s.all_visible(0)  # an empty slice hides nothing
        tx1 = db.begin()
        table.insert({"k": np.arange(6), "v": np.zeros(6)}, tx1)
        assert (s.max_xmin, s.min_xmax) == (tx1, INFINITY_TX)
        assert not s.all_visible(tx1 - 1) and s.all_visible(tx1)
        tx2 = db.begin()
        table.delete_local_rows(0, np.array([1]), tx2)
        assert s.min_xmax == tx2
        assert s.all_visible(tx2 - 1) and not s.all_visible(tx2)
        assert s.visible_row_count(tx2) == 5
        # Nothing was deleted before tx2: vacuum answers from the summary.
        assert not s.vacuum(tx2, table.rms)
        assert table.vacuum(tx2 + 1)
        assert (s.num_rows, s.min_xmax) == (5, INFINITY_TX)
        assert s.all_visible(tx2)


class TestVacuum:
    def test_vacuum_reclaims_and_renumbers(self):
        db = make_db(num_slices=1, rows_per_block=4)
        table = db.table("t")
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, db.begin())
        table.delete_local_rows(0, np.array([0, 5]), db.begin())
        assert table.vacuum(db.horizon_txid)
        assert table.num_rows == 8
        kept = table.read_column_all("k")
        assert kept.tolist() == [1, 2, 3, 4, 6, 7, 8, 9]

    def test_vacuum_without_dead_rows_is_noop(self):
        db = make_db()
        table = db.table("t")
        table.insert({"k": [1], "v": [1.0]}, db.begin())
        assert not table.vacuum(db.horizon_txid)

    def test_vacuum_fires_layout_event(self):
        """The event is the layout stamp moving past every stamp seen."""
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(5), "v": np.zeros(5)}, db.begin())
        table.delete_local_rows(0, np.array([0]), db.begin())
        before = table.layout_version, table.data_version
        table.vacuum(db.horizon_txid)
        assert table.layout_version > max(before)

    def test_vacuum_preserves_visible_data_across_blocks(self):
        db = make_db(num_slices=2, rows_per_block=3)
        table = db.table("t")
        table.insert({"k": np.arange(40), "v": np.arange(40) * 1.5}, db.begin())
        # Delete every fourth row, per slice.
        tx = db.begin()
        for slice_id, s in enumerate(table.slices):
            keys = s.columns["k"].read_all(table.rms)
            doomed = np.flatnonzero(keys % 4 == 0)
            table.delete_local_rows(slice_id, doomed, tx)
        survivors_before = sorted(
            int(k)
            for k in table.read_column_all("k")
            if k % 4 != 0
        )
        table.vacuum(db.horizon_txid)
        assert sorted(table.read_column_all("k").tolist()) == survivors_before


class TestDatabase:
    def test_create_and_drop(self):
        db = make_db()
        assert "t" in db
        db.drop_table("t")
        assert "t" not in db
        with pytest.raises(KeyError):
            db.table("t")

    def test_a_recreated_table_takes_stamps_never_seen(self):
        db = make_db(num_slices=1)
        old = db.table("t")
        old.insert({"k": [1], "v": [1.0]}, db.begin())
        seen = {old.data_version, old.layout_version}
        db.drop_table("t")
        new = db.create_table(old.schema)
        assert min(new.data_version, new.layout_version) > max(seen)

    def test_duplicate_create_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))

    def test_txids_are_monotonic(self):
        db = make_db()
        assert db.begin() < db.begin() < db.begin()

    def test_reorganize_fires_layout_event_and_reorders(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.array([3, 1, 2]), "v": np.zeros(3)}, db.begin())
        before = table.layout_version, table.data_version
        table.reorganize(
            lambda t: [np.argsort(s.columns["k"].read_all(t.rms)) for s in t.slices]
        )
        assert table.read_column_all("k").tolist() == [1, 2, 3]
        assert table.layout_version > max(before)
