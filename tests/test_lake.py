"""Predicate caching over open data formats (§4.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.lake import LakeScanner, LakeTable, write_file
from repro.predicates import TruePredicate, parse_predicate
from repro.storage.compression import decode_block

from tests.test_storage import count_decodes


def make_table(num_files=3, rows_per_file=1000, rows_per_group=100, seed=0):
    table = LakeTable("events", rows_per_group=rows_per_group)
    rng = np.random.default_rng(seed)
    for _ in range(num_files):
        table.append_file(
            {
                "k": np.sort(rng.integers(0, 100, rows_per_file)),
                "v": rng.random(rows_per_file).round(4),
            }
        )
    return table


def stored(files, name):
    """Column ``name`` of ``files``, decoded chunk by chunk: the reference
    every scan result is checked against."""
    return np.concatenate(
        [decode_block(g.chunks[name].encoded) for f in files for g in f.row_groups]
    )


class TestFileFormat:
    def test_row_group_split(self):
        file = write_file({"x": np.arange(250)}, rows_per_group=100)
        assert file.num_row_groups == 3
        assert [g.num_rows for g in file.row_groups] == [100, 100, 50]
        assert file.num_rows == 250

    def test_statistics(self):
        file = write_file({"x": np.arange(100)}, rows_per_group=50)
        chunk = file.row_groups[1].chunks["x"]
        assert chunk.minimum == 50 and chunk.maximum == 99

    def test_roundtrip(self):
        data = {"x": np.arange(120), "s": np.array(["a", "b"] * 60, dtype=object)}
        file = write_file(data, rows_per_group=50)
        assert stored([file], "x").tolist() == list(range(120))
        assert stored([file], "s").tolist() == ["a", "b"] * 60

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            write_file({"a": [1, 2], "b": [1]})

    def test_stats_pruning(self):
        file = write_file({"x": np.arange(100)}, rows_per_group=25)
        bounds = parse_predicate("x between 30 and 40").bounds("x")
        prunable = [
            not g.chunks["x"].may_contain(bounds) for g in file.row_groups
        ]
        assert prunable == [True, False, True, True]


class TestLakeTable:
    def test_snapshots_accumulate(self):
        table = make_table(num_files=2)
        assert table.num_snapshots == 3  # empty + 2 appends
        assert len(table.current_snapshot.file_ids) == 2

    def test_time_travel(self):
        table = make_table(num_files=2, rows_per_file=500)
        old = table.snapshot(1)
        assert table.num_rows(old) == 500
        assert table.num_rows() == 1000

    def test_delete_file(self):
        table = make_table(num_files=2)
        victim = table.current_snapshot.file_ids[0]
        table.delete_file(victim)
        assert victim not in table.current_snapshot
        with pytest.raises(KeyError):
            table.delete_file(victim)

    def test_replace_files(self):
        table = make_table(num_files=2, rows_per_file=100)
        old_ids = list(table.current_snapshot.file_ids)
        merged = table.replace_files(old_ids, {"k": np.arange(200), "v": np.zeros(200)})
        assert table.current_snapshot.file_ids == (merged.file_id,)
        assert table.num_rows() == 200

    def test_file_ids_do_not_depend_on_process_history(self):
        # Ids come from the table's own commit counter, not a module
        # global: two tables built by the same calls name files alike.
        first, second = make_table(seed=3), make_table(seed=3)
        assert first.current_snapshot.file_ids == second.current_snapshot.file_ids
        assert [f.first_ordinal for f in first.files()] == [0, 10, 20]

    def test_diff(self):
        table = make_table(num_files=1)
        first = table.current_snapshot
        added_file = table.append_file({"k": [1], "v": [0.5]})
        added, removed = table.diff(first, table.current_snapshot)
        assert added == {added_file.file_id}
        assert removed == frozenset()


class TestLakeScanner:
    def test_scan_matches_brute_force(self):
        table = make_table(seed=1)
        scanner = LakeScanner(table)
        out, stats = scanner.scan(parse_predicate("k < 20"), ["k", "v"])
        all_k = stored(table.files(), "k")
        assert len(out["k"]) == int((all_k < 20).sum())
        assert (out["k"] < 20).all()

    def test_repeat_scan_skips_row_groups(self):
        table = make_table(seed=2)
        scanner = LakeScanner(table)
        _, cold = scanner.scan(parse_predicate("k between 40 and 45"), ["v"])
        _, warm = scanner.scan(parse_predicate("k between 40 and 45"), ["v"])
        assert warm.cache_hit
        assert warm.row_groups_read <= cold.row_groups_read
        assert warm.rows_qualifying == cold.rows_qualifying
        assert warm.row_groups_skipped_cache > 0

    def test_appended_file_scanned_incrementally(self):
        table = make_table(num_files=2, seed=3)
        scanner = LakeScanner(table)
        pred = parse_predicate("k < 10")
        _, cold = scanner.scan(pred, ["k"])
        before = scanner.num_entries
        rng = np.random.default_rng(9)
        table.append_file({"k": np.sort(rng.integers(0, 100, 500)), "v": rng.random(500)})
        out, warm = scanner.scan(pred, ["k"])
        assert warm.cache_hit  # append did NOT invalidate
        assert scanner.num_entries == before
        assert (out["k"] < 10).all()
        # Third scan caches the new file's groups too.
        _, third = scanner.scan(pred, ["k"])
        assert third.row_groups_read <= warm.row_groups_read

    def test_file_removal_invalidates_only_that_file(self):
        table = make_table(num_files=3, seed=4)
        scanner = LakeScanner(table)
        pred = parse_predicate("k < 50")
        scanner.scan(pred, ["k"])
        victim = table.current_snapshot.file_ids[0]
        table.delete_file(victim)
        out, stats = scanner.scan(pred, ["k"])
        # The entry survives (a removal invalidates nothing: the dead
        # file's ordinals are just never consulted again).
        assert stats.cache_hit
        assert len(scanner.cache) == 1
        assert scanner.cache.stats.invalidations == 0
        assert stats.row_groups_total == sum(f.num_row_groups for f in table.files())
        # Correctness after removal:
        all_k = stored(table.files(), "k")
        assert len(out["k"]) == int((all_k < 50).sum())

    def test_compaction_relearns(self):
        table = make_table(num_files=2, rows_per_file=300, seed=5)
        scanner = LakeScanner(table)
        pred = parse_predicate("k = 7")
        first, _ = scanner.scan(pred, ["k"])
        old = list(table.current_snapshot.file_ids)
        merged_data = {name: stored(table.files(), name) for name in ("k", "v")}
        table.replace_files(old, merged_data)
        second, stats = scanner.scan(pred, ["k"])
        assert len(second["k"]) == len(first["k"])
        third, stats3 = scanner.scan(pred, ["k"])
        assert stats3.row_groups_read <= stats.row_groups_read

    def test_time_travel_bypasses_cache(self):
        table = make_table(num_files=1, rows_per_file=200, seed=6)
        scanner = LakeScanner(table)
        old = table.current_snapshot
        table.append_file({"k": np.full(100, 5), "v": np.zeros(100)})
        pred = parse_predicate("k = 5")
        current, _ = scanner.scan(pred, ["k"])
        historic, stats = scanner.scan(pred, ["k"], snapshot=old)
        assert len(historic["k"]) <= len(current["k"])
        assert not stats.cache_hit

    def test_unfiltered_scan(self):
        table = make_table(num_files=1, rows_per_file=150, seed=7)
        scanner = LakeScanner(table)
        out, stats = scanner.scan(TruePredicate(), ["k"])
        assert len(out["k"]) == 150

    def test_predicate_columns_are_decoded_once(self):
        # Output columns the predicate already decoded come from its
        # batch: no second fetch (the parent re-read them, unbilled).
        table = make_table(seed=9)
        scanner = LakeScanner(table)
        pred = parse_predicate("k < 40 and v < 0.5")
        for columns in (["k"], ["v", "k"]):
            before = scanner.storage.stats.snapshot()
            _, stats = scanner.scan(pred, columns)
            assert stats.rows_qualifying > 0
            fetched = scanner.storage.stats.delta(before).remote_fetches
            assert fetched == stats.row_groups_read * 2

    def test_a_chunk_decodes_once_per_file(self, monkeypatch):
        # A file's chunks never change, so its decoded rows outlive any
        # scan: a cold scan decodes each chunk it reads once, a repeat
        # and a time-travel scan over the same groups decode nothing,
        # and every read is still billed as a remote fetch.
        table = make_table(seed=9)
        before_last = table.snapshot(table.num_snapshots - 2)
        scanner = LakeScanner(table)
        decoded = count_decodes(monkeypatch)
        pred = parse_predicate("k < 40 and v < 0.5")
        for step, snapshot in enumerate([None, None, before_last]):
            fetched = scanner.storage.stats.snapshot()
            out, stats = scanner.scan(pred, ["k", "v"], snapshot=snapshot)
            assert ((out["k"] < 40) & (out["v"] < 0.5)).all()
            assert len(out["k"]) == stats.rows_qualifying > 0
            read = scanner.storage.stats.delta(fetched).remote_fetches
            assert read == 2 * stats.row_groups_read > 0
            assert sum(decoded.values()) == (read if step == 0 else 0)
            decoded.clear()

    def test_every_group_reads_as_its_chunk_decodes(self):
        # 20 rows in groups of 7: the last group is shorter than its row.
        data = {
            "i": np.arange(20) * 3,
            "f": np.linspace(0.0, 1.0, 20),
            "s": np.array([f"s{n % 3}" for n in range(20)], dtype=object),
        }
        table = LakeTable("t", rows_per_group=7)
        table.append_file(data)
        scanner = LakeScanner(table)
        for _ in range(2):  # a cold read fills the rows, a warm one takes them
            out, stats = scanner.scan(TruePredicate(), list(data))
            assert stats.row_groups_read == 3
            for name in data:
                chunks = [g.chunks[name].encoded for g in table.files()[0].row_groups]
                assert {decode_block(c).dtype for c in chunks} == {out[name].dtype}
                assert out[name].tolist() == stored(table.files(), name).tolist()

    def test_chunk_reads_are_billed_in_storage_stats(self):
        table = make_table(seed=10)
        scanner = LakeScanner(table)
        pred = parse_predicate("k between 10 and 30")
        for step in range(4):
            if step == 2:
                table.delete_file(table.current_snapshot.file_ids[1])
                table.append_file({"k": np.arange(300) % 50, "v": np.zeros(300)})
            before = scanner.storage.stats.snapshot()
            _, stats = scanner.scan(pred, ["v"])
            read = scanner.storage.stats.delta(before)
            assert read.bytes_fetched == stats.chunk_bytes_read > 0
            # Capacity-0 storage: object-store reads are never served locally.
            assert read.local_hits == 0 and scanner.storage.cached_blocks == 0

    def test_memory_accounting(self):
        table = make_table(seed=8)
        scanner = LakeScanner(table)
        scanner.scan(parse_predicate("k < 10"), ["k"])
        # One bit per row group (30 groups -> a few bytes).
        assert 0 < scanner.total_nbytes < 100


@given(
    values=st.lists(st.integers(0, 30), min_size=1, max_size=300),
    threshold=st.integers(0, 30),
    extra=st.lists(st.integers(0, 30), max_size=100),
    commits=st.lists(
        st.tuples(
            st.sampled_from(["append", "delete", "replace"]),
            st.lists(st.integers(0, 30), min_size=1, max_size=40),
        ),
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lake_cache_soundness(values, threshold, extra, commits):
    """Cached repeats equal cold scans, across appends and removals."""
    was_validating = invariants.enabled()
    invariants.enable()  # check_slice_state / check_cache on every install
    try:
        _check_lake_cache_soundness(values, threshold, extra, commits)
    finally:
        if not was_validating:
            invariants.disable()


def _check_lake_cache_soundness(values, threshold, extra, commits):
    table = LakeTable("t", rows_per_group=7)
    table.append_file({"k": np.array(values)})
    scanner = LakeScanner(table)
    pred = parse_predicate(f"k < {threshold}")

    cold, _ = scanner.scan(pred, ["k"])
    warm, _ = scanner.scan(pred, ["k"])
    assert sorted(cold["k"].tolist()) == sorted(warm["k"].tolist())

    if extra:
        table.append_file({"k": np.array(extra)})
    expected = sorted(v for v in values + extra if v < threshold)
    after, _ = scanner.scan(pred, ["k"])
    assert sorted(after["k"].tolist()) == expected
    again, _ = scanner.scan(pred, ["k"])
    assert sorted(again["k"].tolist()) == expected

    # Foreign commits of every kind between scans; the model is the
    # live files' rows.  Removals never renumber the surviving groups.
    live = dict(zip(table.current_snapshot.file_ids, [values, extra]))
    for kind, data in commits:
        ids = list(live)
        if kind == "append" or not ids:
            live[table.append_file({"k": np.array(data)}).file_id] = data
        elif kind == "delete":
            victim = ids[len(data) % len(ids)]
            table.delete_file(victim)
            del live[victim]
        else:  # compaction of the two oldest files plus a few new rows
            merged = [v for fid in ids[:2] for v in live.pop(fid)] + data
            live[table.replace_files(ids[:2], {"k": np.array(merged)}).file_id] = merged
        assert list(live) == list(table.current_snapshot.file_ids)
        expected = sorted(v for rows in live.values() for v in rows if v < threshold)
        for _ in range(2):
            out, stats = scanner.scan(pred, ["k"])
            assert stats.cache_hit
            assert sorted(out["k"].tolist()) == expected
    assert len(scanner.cache) == 1 and scanner.cache.stats.invalidations == 0
