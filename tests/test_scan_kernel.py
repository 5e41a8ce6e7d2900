"""The scan kernel reads every slice of a table scan at once.

``engine/scan.py`` runs one kernel per table scan: one storage round per
read phase (head columns, tail columns, gather columns) covers every
slice.  These tests pin:

* how many rounds a scan makes: one per phase, not one per slice;
* the LRU order a bounded block cache keeps.  A scan is one read of the
  block cache: it stamps its blocks in the order its rounds name them,
  and evicts once, at its end, so a scan larger than the cache leaves
  resident the blocks of its last rounds.  The twin database below reads
  the same parts, round after round, one ``read_columns`` call each, and
  must end with the same resident blocks, in the same order, and the
  same counters;
* where a fetch that gives up under an armed injector stops the scan:
  phase by phase, not slice by slice.
"""

from collections import Counter

import numpy as np
import pytest

from repro import Database, PredicateCache, PredicateCacheConfig, parse_predicate
from repro.engine import scan as scan_module
from repro.engine.scan import execute_scan
from repro.engine.statement import StatementContext
from repro.faults import FaultInjector, RetryPolicy, TransientStorageError
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.column import read_columns
from repro.storage.rms import ManagedStorage, StorageStats

NUM_SLICES = 4
ROWS = 4_000


def database(capacity=None):
    db = Database(num_slices=NUM_SLICES, rows_per_block=16, cache_capacity=capacity)
    db.create_table(TableSchema("t", tuple(
        ColumnSpec(name, DataType.INT64) for name in ("k", "v", "w")
    )))
    db.table("t").insert(rows(0, ROWS), db.begin())
    return db


def rows(seed, count):
    rng = np.random.default_rng(seed)
    return {name: rng.integers(0, 1_000, count) for name in ("k", "v", "w")}


def scan(db, cache, sql="k < 300", gather=("v",)):
    statement = StatementContext(db.begin(), db.rms, cache=cache)
    result = execute_scan(
        db.table("t"), parse_predicate(sql), statement, gather_columns=list(gather)
    )
    return result, statement


def test_a_scan_makes_one_storage_round_per_read_phase(monkeypatch):
    db = database()
    cache = PredicateCache(PredicateCacheConfig(variant="range"))
    calls = Counter()
    original = ManagedStorage.read_columns

    def counting(self, columns, index, reader=None):
        calls[len({name[1] for name, _ in columns})] += 1
        return original(self, columns, index, reader)

    monkeypatch.setattr(ManagedStorage, "read_columns", counting)
    cold, _ = scan(db, cache)
    # A miss: the predicate column over the kept blocks, then the gather
    # column over the qualifying rows, each one round over all slices.
    assert calls == {NUM_SLICES: 2}
    calls.clear()
    warm, statement = scan(db, cache)
    assert statement.counters.cache_hits == 1
    assert all(state.exact for state in cache.entries()[0].slice_states)
    # An exact hit reads no predicate-only column: the gather alone.
    assert calls == {NUM_SLICES: 1}
    assert [len(r) for r in warm.per_slice] == [len(r) for r in cold.per_slice]
    np.testing.assert_array_equal(warm.gather(["v"])["v"], cold.gather(["v"])["v"])


def test_stamps_twin_reads_in_round_order(monkeypatch):
    """A miss, an append, then an exact hit whose tail is evaluated, on a
    block cache smaller than one scan's blocks: the kernel's database
    and a twin that reads each round's parts one call at a time end
    each scan with the same resident blocks in the same LRU order and
    equal storage counters."""
    capacity = 200
    db, twin = database(capacity), database(capacity)
    cache = PredicateCache(PredicateCacheConfig(variant="range"))
    rounds = []  # the kernel's read_columns calls of one scan, in order

    def recording(reads, size, rms, out=None):
        rounds.append(list(reads))
        return read_columns(reads, size, rms, out)

    monkeypatch.setattr(scan_module, "read_columns", recording)
    for step in ("miss", "append", "hit"):
        if step == "append":
            for target in (db, twin):
                target.table("t").insert(rows(1, 400), target.begin())
            continue
        rounds.clear()
        scan(db, cache)
        blocks = sum(
            len(columns) * len(coverage.blocks)
            for call in rounds for columns, coverage, _ in call
        )
        assert blocks > capacity, "the scan fits the cache: vacuous"
        replay(twin, rounds)
        assert db.rms.resident_keys() == twin.rms.resident_keys()
        assert db.rms.stats == twin.rms.stats
    assert len(rounds) == 2 and all(rounds), "the hit read no tail: vacuous"
    assert db.rms.stats.remote_fetches > capacity


def replay(twin, rounds):
    """Read what the kernel read, on ``twin``, in one scan phase: the
    rounds in order (head, tail, gather), each round's parts in order,
    one ``read_columns`` call per part."""
    reader = twin.rms.query_context()
    slices = twin.table("t").slices
    reader.begin_scan_phase()
    try:
        for call in rounds:
            for columns, coverage, _ in call:
                if columns:
                    own = slices[columns[0].slice_id].columns
                    mine = [own[column.column_name] for column in columns]
                    read_columns([(mine, coverage, 0)], len(coverage), reader)
    finally:
        reader.end_scan_phase()


def test_a_give_up_in_a_later_slice_leaves_every_later_phase_unread(monkeypatch):
    """Under an armed injector each column of each slice is a round of
    its own, in slice order within a read phase, and the phases follow
    one another over every slice.  So a fetch that gives up in slice 2's
    head read leaves slices 0 and 1's head blocks counted and resident,
    and no slice's gather column read, slice 0's included (a scan that
    ran its slices one after the other had read it).  The counters count
    every slice the scan covered before its first read."""
    clean, faulted = database(), database()
    rounds = []

    def recording(reads, size, rms, out=None):
        rounds.append(list(reads))
        return read_columns(reads, size, rms, out)

    monkeypatch.setattr(scan_module, "read_columns", recording)
    _, planned = scan(clean, None)
    head = {
        columns[0].slice_id: [(column.column_name, coverage.blocks) for column in columns]
        for columns, coverage, _ in rounds[0]
    }
    assert [name for name, _ in head[0]] == ["k"] and len(rounds) == 2
    first_of_slice_2 = sum(len(blocks) for s in (0, 1) for _, blocks in head[s])
    faulted.rms.attach_faults(
        FaultInjector(schedule={first_of_slice_2: "error"}),
        RetryPolicy(max_attempts=1),
    )
    statement = StatementContext(faulted.begin(), faulted.rms, cache=None)
    with pytest.raises(TransientStorageError):
        execute_scan(
            faulted.table("t"), parse_predicate("k < 300"), statement,
            gather_columns=["v"],
        )
    assert faulted.rms.stats == StorageStats(
        remote_fetches=first_of_slice_2,
        bytes_fetched=faulted.rms.stats.bytes_fetched,
        transient_errors=1,
        retry_giveups=1,
    )
    assert faulted.rms.resident_keys() == [
        ("t", s, name, b) for s in (0, 1) for name, blocks in head[s] for b in blocks
    ]
    counters, done = statement.counters, planned.counters
    assert (
        counters.rows_scanned, counters.rows_skipped_cache,
        counters.blocks_pruned_zonemap, counters.rows_qualifying,
    ) == (done.rows_scanned, 0, done.blocks_pruned_zonemap, 0)
