"""Persistent cache store & warm start (DESIGN.md §9).

Covers the snapshot round trip, journal write-through and replay (what
is journalled when, and that the store stays a mirror of the live
caches), the append handle's lifecycle, recovery revalidation against
the catalog, crash/corruption injection on the persistence write path,
compaction, warm-started clusters (construction, ``fail_node``
replacement, ``resize``), and the store's metrics surface.
"""

import numpy as np
import pytest

from repro import (
    CacheStore,
    ClusterCaches,
    Database,
    FaultInjector,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
)
from repro.obs import MetricsRegistry, Tracer
from repro.persist import collect_records, key_digest
from repro.persist.format import (
    DecodeIssues,
    decode_journal_payload,
    decode_snapshot,
    encode_snapshot,
    iter_journal,
)
from repro.serve import RecoveryOrchestrator
from repro.storage import ColumnSpec, DataType, TableSchema

COLUMNS = ("x", "v")

# An OR predicate has unbounded zone-map bounds, so block skipping can
# only come from the predicate cache — the cleanest warm-vs-cold signal.
OR_SQL = "select count(*) as c from t where x < 500 or x > 49500"


def make_db():
    db = Database(num_slices=4, rows_per_block=256)
    db.create_table(
        TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
    )
    return db


def make_engine(variant="range", num_nodes=2, store=None, db=None, **config):
    if db is None:
        db = make_db()
    caches = ClusterCaches(
        num_nodes=num_nodes,
        config=PredicateCacheConfig(variant=variant, bitmap_block_rows=256, **config),
        store=store,
    )
    engine = QueryEngine(db, predicate_cache=caches)
    return engine, caches


def populate(engine, rows=50_000):
    engine.insert("t", {"x": np.arange(rows), "v": np.arange(rows) % 97})


def make_stored_engine(tmp_path, variant="range", **config):
    """An engine over a 2-node cluster writing through to a fresh store."""
    db = make_db()
    store = CacheStore(tmp_path, catalog=db)
    engine, caches = make_engine(variant, store=store, db=db, **config)
    return engine, caches, store


def slice_rows(engine):
    return [s.num_rows for s in engine.database.tables["t"].slices]


def assert_store_mirrors(store, caches, revalidate=False):
    """What a restart would recover is what the caches hold, state for
    state.  (Scan stats lag by design: they are as of the last
    journalled state change.)  ``revalidate=True`` recovers the way a
    real restart does — against the store's catalog — so persisted
    metadata that would make the entries stale fails the comparison."""
    persisted = store.load(revalidate=revalidate).records
    live = collect_records(caches.nodes())
    assert set(persisted) == set(live)
    for digest, record in live.items():
        assert set(persisted[digest].states) == set(record.states), record.key
        for slice_id, state in record.states.items():
            assert persisted[digest].states[slice_id] == state, record.key


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_records_survive_encode_decode_bit_identical(self, variant):
        engine, caches = make_engine(variant)
        populate(engine)
        engine.execute(OR_SQL)
        engine.execute("select count(*) as c from t where x < 123")
        records = collect_records(caches.nodes())
        assert records

        decoded, meta, issues = decode_snapshot(
            encode_snapshot(records, {"tables": {}})
        )
        assert issues.clean
        assert meta["entries"] == len(records)
        assert set(decoded) == set(records)
        for digest, record in records.items():
            assert decoded[digest] == record, digest

    def test_snapshot_then_load_restores_into_fresh_cache(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        original = collect_records(caches.nodes())

        store = CacheStore(tmp_path, catalog=engine.database)
        assert store.snapshot(caches)
        assert store.snapshot_bytes > 0

        fresh = PredicateCache(PredicateCacheConfig())
        restored = CacheStore(tmp_path, catalog=engine.database).hydrate(fresh)
        assert restored == len(original)
        roundtrip = collect_records([fresh])
        for digest, record in original.items():
            assert roundtrip[digest] == record

    def test_snapshot_load_reports_catalog_meta(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)
        data = (tmp_path / "cache.snapshot").read_bytes()
        _, meta, issues = decode_snapshot(data)
        assert issues.clean
        assert meta["tables"]["t"]["slices"] == 4
        assert meta["tables"]["t"]["layout"] == engine.database.tables["t"].layout_version


class TestJournal:
    def test_write_through_journals_without_snapshot(self, tmp_path):
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(tmp_path, catalog=db)
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        engine.execute(OR_SQL)
        assert store.journal_records > 0
        assert store.journal_bytes > 0
        assert store.snapshot_bytes == 0  # never explicitly rotated

        result = CacheStore(tmp_path, catalog=db).load()
        assert result.journal_records > 0
        assert len(result.records) == 1

    def test_drop_events_remove_only_dropped_slices(self, tmp_path):
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(tmp_path, catalog=db)
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        engine.execute(OR_SQL)
        digest = key_digest(caches.node(0).entries()[0].key)
        before = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        assert set(before.records[digest].states) == {0, 1, 2, 3}

        # Node 0 evicts its share (slices 0 and 2); node 1's survive.
        caches.node(0).clear()
        after = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        assert set(after.records[digest].states) == {1, 3}

        caches.node(1).clear()
        empty = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        assert digest not in empty.records

    def test_replay_is_idempotent(self, tmp_path):
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(tmp_path, catalog=db)
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        engine.execute(OR_SQL)
        journal = (tmp_path / "cache.journal").read_bytes()
        (tmp_path / "cache.journal").write_bytes(journal + journal)
        once = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        twice_records = once.records
        engineless = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        assert set(engineless.records) == set(twice_records)
        for digest in twice_records:
            assert engineless.records[digest] == twice_records[digest]


@pytest.mark.parametrize("variant", ["range", "bitmap"])
class TestJournalsWhatChanged:
    def test_warm_repeat_appends_nothing(self, tmp_path, variant):
        engine, caches, store = make_stored_engine(tmp_path, variant)
        populate(engine)
        engine.execute(OR_SQL)
        records, size = store.journal_records, store.journal_bytes
        assert size == (tmp_path / "cache.journal").stat().st_size > 0
        for _ in range(3):
            engine.execute(OR_SQL)
        assert store.journal_records == records
        assert store.journal_bytes == size
        assert (tmp_path / "cache.journal").stat().st_size == size
        assert caches.aggregate_stats().extensions == 0

    def test_insert_then_repeat_appends_one_record_per_extended_slice(
        self, tmp_path, variant
    ):
        engine, caches, store = make_stored_engine(tmp_path, variant)
        populate(engine)
        engine.execute(OR_SQL)
        engine.execute(OR_SQL)
        before_rows = slice_rows(engine)
        engine.insert("t", {"x": np.array([7, 49_999]), "v": np.array([1, 2])})
        grown = sum(a > b for a, b in zip(slice_rows(engine), before_rows))
        assert 1 <= grown <= 2
        records = store.journal_records
        engine.execute(OR_SQL)
        assert store.journal_records == records + grown
        assert caches.aggregate_stats().extensions == grown
        engine.execute(OR_SQL)  # the tail is cached now: a plain repeat again
        assert store.journal_records == records + grown
        assert caches.aggregate_stats().extensions == grown
        assert_store_mirrors(store, caches)

    def test_never_seen_predicate_appends_one_record_per_slice(
        self, tmp_path, variant
    ):
        engine, caches, store = make_stored_engine(tmp_path, variant)
        populate(engine)
        engine.execute(OR_SQL)
        records = store.journal_records
        engine.execute("select count(*) as c from t where x < 123")
        assert store.journal_records == records + 4
        assert caches.aggregate_stats().extensions == 0

    def test_store_mirrors_live_caches_through_a_seeded_mix(self, tmp_path, variant):
        # Small enough that installs evict: the mirror has to survive
        # drop events interleaved with the states that caused them.
        engine, caches, store = make_stored_engine(tmp_path, variant, max_bytes=160)
        populate(engine, rows=8_000)
        plain = QueryEngine(engine.database)
        rng = np.random.default_rng(20)
        next_x = 8_000
        for step in range(200):
            draw = rng.random()
            if draw < 0.70:
                lo = int(rng.integers(0, 12)) * 600
                sql = f"select count(*) as c from t where x >= {lo} and x < {lo + 450}"
                assert engine.execute(sql).scalar() == plain.execute(sql).scalar()
            elif draw < 0.85:
                count = int(rng.integers(1, 40))
                engine.insert(
                    "t",
                    {"x": np.arange(next_x, next_x + count), "v": np.zeros(count, int)},
                )
                next_x += count
            elif draw < 0.95:
                engine.execute(f"delete from t where x = {int(rng.integers(next_x))}")
            else:
                engine.execute("vacuum t")
            if step == 120:
                assert store.snapshot(caches)
                assert_store_mirrors(store, caches)
        assert caches.aggregate_stats().evictions > 0
        assert caches.aggregate_stats().extensions > 0
        assert caches.aggregate_stats().invalidations > 0
        assert store.journal_records > 0
        assert_store_mirrors(store, caches)


class TestSnapshotRacesAnExtendingWriter:
    def test_every_load_is_a_state_the_writer_published(self, tmp_path):
        """Snapshots read slice states outside the cache lock.  A state
        is an immutable value, so whatever instant a snapshot catches,
        it (plus the journal behind it) loads to a state the writer
        stored into the slot — never a watermark from one and bits from
        another."""
        import sys
        import threading

        from repro.core.keys import ScanKey
        from repro.core.rowrange import RangeList

        cache = PredicateCache(PredicateCacheConfig(variant="bitmap", bitmap_block_rows=8))
        store = CacheStore(tmp_path)
        store.attach(cache)
        entry = cache.get_or_create(ScanKey("t", "x < 5"), 1)
        published, loaded, failures = [], [], []
        done = threading.Event()

        def writer():
            try:
                upto = 0
                for step in range(400):
                    tail = RangeList([(upto, upto + 1)]) if step % 3 else RangeList()
                    upto += 1 + step % 13
                    cache.record_slice_scan(entry, 0, tail, upto)
                    published.append(entry.slice_states[0])
            except BaseException as error:  # pragma: no cover - reported below
                failures.append(error)
            finally:
                done.set()

        def snapshotter():
            try:
                while not done.is_set() or not loaded:
                    assert store.snapshot(cache)
                    records = store.load(revalidate=False).records
                    loaded.extend(r.states[0] for r in records.values())
            except BaseException as error:  # pragma: no cover - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=f) for f in (writer, snapshotter)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert len(published) == 400 and loaded
        for state in loaded:
            assert any(state == known for known in published)
        assert_store_mirrors(store, cache)


class TestJournalHandle:
    def test_appends_after_a_rotation_land_in_the_new_journal(self, tmp_path):
        engine, caches, store = make_stored_engine(tmp_path)
        populate(engine)
        engine.execute(OR_SQL)
        assert store.snapshot(caches)
        assert store.journal_bytes == 0
        assert (tmp_path / "cache.journal").stat().st_size == 0
        engine.execute("select count(*) as c from t where x < 123")
        assert store.journal_bytes == (tmp_path / "cache.journal").stat().st_size > 0
        result = CacheStore(tmp_path, catalog=engine.database).load()
        assert result.journal_records == 4
        assert len(result.records) == 2

    def test_close_is_idempotent_and_the_next_append_reopens(self, tmp_path):
        engine, caches, store = make_stored_engine(tmp_path)
        populate(engine)
        engine.execute(OR_SQL)
        store.close()
        store.close()
        engine.execute("select count(*) as c from t where x < 123")
        assert store.journal_records == 8
        assert store.journal_bytes == (tmp_path / "cache.journal").stat().st_size
        assert_store_mirrors(store, caches)

    def test_second_store_after_close_replays_everything_and_continues(self, tmp_path):
        engine, caches, store = make_stored_engine(tmp_path)
        populate(engine)
        engine.execute(OR_SQL)
        engine.execute("select count(*) as c from t where x < 123")
        for node in caches.nodes():
            node.detach_store()
        store.close()

        second = CacheStore(tmp_path, catalog=engine.database)
        assert second.journal_bytes == store.journal_bytes
        warm_engine, warm = make_engine(store=second, db=engine.database)
        assert second.journal_replayed == 2 * store.journal_records  # two nodes load
        assert collect_records(warm.nodes()).keys() == collect_records(
            caches.nodes()
        ).keys()
        # The one writer left appends behind what the first one wrote.
        warm_engine.execute("select count(*) as c from t where x > 40000")
        assert second.journal_bytes == (tmp_path / "cache.journal").stat().st_size
        assert second.journal_bytes > store.journal_bytes
        assert_store_mirrors(second, warm)

    def test_detach_discards_what_was_not_yet_appended(self, tmp_path):
        engine, caches, store = make_stored_engine(tmp_path)
        populate(engine)
        engine.execute(OR_SQL)
        records = store.journal_records
        for node in caches.nodes():
            node.detach_store()
        engine.execute("select count(*) as c from t where x < 123")
        caches.clear()
        assert store.journal_records == records


class TestRevalidation:
    def test_vacuum_after_snapshot_drops_stale_entries(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        store = CacheStore(tmp_path, catalog=engine.database)
        store.snapshot(caches)

        engine.delete_where("t", __import__("repro").parse_predicate("x < 100"))
        assert engine.vacuum(["t"]) == ["t"]

        recovery = CacheStore(tmp_path, catalog=engine.database)
        result = recovery.load()
        assert result.records == {}
        assert result.stale_dropped > 0
        assert recovery.stale_dropped > 0

        # A warm start over the stale snapshot is just a cold start —
        # and still answers correctly.
        warm_engine, warm = make_engine(store=recovery, db=engine.database)
        assert warm.store.warm_restores == 0
        plain = QueryEngine(engine.database)
        assert warm_engine.execute(OR_SQL).scalar() == plain.execute(OR_SQL).scalar()

    def test_missing_table_drops_entries(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        store = CacheStore(tmp_path, catalog=engine.database)
        store.snapshot(caches)

        fresh_db = Database(num_slices=4, rows_per_block=256)  # no table "t"
        result = CacheStore(tmp_path, catalog=fresh_db).load()
        assert result.records == {}
        assert result.stale_dropped > 0

    def test_build_side_dml_invalidates_join_entries(self, tmp_path):
        from repro.engine.expr import Col
        from repro.engine.plan import AggregateNode, Aggregation, JoinNode, ScanNode
        from repro.predicates import parse_predicate

        db = Database(num_slices=2, rows_per_block=256)
        db.create_table(
            TableSchema(
                "fact",
                (ColumnSpec("fk", DataType.INT64), ColumnSpec("amount", DataType.INT64)),
            )
        )
        db.create_table(TableSchema("dim", (ColumnSpec("pk", DataType.INT64),)))
        caches = ClusterCaches(num_nodes=2)
        engine = QueryEngine(db, predicate_cache=caches)
        rng = np.random.default_rng(5)
        engine.insert(
            "fact",
            {"fk": rng.integers(0, 500, 20_000), "amount": rng.integers(0, 100, 20_000)},
        )
        engine.insert("dim", {"pk": np.arange(0, 40)})
        plan = AggregateNode(
            JoinNode(
                ScanNode("fact"),
                ScanNode("dim", parse_predicate("pk < 20")),
                "fk",
                "pk",
            ),
            [],
            [Aggregation("count", None, "c")],
        )
        engine.execute_plan(plan)
        records = collect_records(caches.nodes())
        join_records = [r for r in records.values() if r.build_versions]
        assert join_records, "expected a join-index entry with build versions"

        store = CacheStore(tmp_path, catalog=db)
        store.snapshot(caches)
        baseline = CacheStore(tmp_path, catalog=db).load()
        assert any(r.build_versions for r in baseline.records.values())

        # DML on the build side bumps its data_version: join entries die,
        # the plain fact entry survives (vacuum epoch unchanged).
        engine.insert("dim", {"pk": [999]})
        result = CacheStore(tmp_path, catalog=db).load()
        assert result.stale_dropped > 0
        assert all(not r.build_versions for r in result.records.values())

    def test_watermark_beyond_slice_rows_is_dropped(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        records = collect_records(caches.nodes())
        record = next(iter(records.values()))
        state = next(iter(record.states.values()))
        state.last_cached_row = 10**9  # claims rows the slice never had
        store = CacheStore(tmp_path, catalog=engine.database)
        assert store.snapshot_records(records)
        result = CacheStore(tmp_path, catalog=engine.database).load()
        assert result.stale_dropped > 0


class TestUnreadableStates:
    """Bytes that pass their CRC but describe no state a constructor
    builds: decoded as stored, refused at install, counted."""

    def records(self):
        from repro.core.entry import BitmapSliceState, RangeSliceState
        from repro.core.keys import ScanKey
        from repro.core.rowrange import RangeList
        from repro.persist import EntryRecord

        def record(predicate, state):
            key = ScanKey("t", predicate)
            return EntryRecord(
                key=key, digest=key_digest(key), table_layout=0, num_slices=1,
                generation=0, states={0: state},
            )

        good = record("x < 5", RangeSliceState(RangeList([(0, 5)]), 100, 8))
        zero_block = record("x < 6", BitmapSliceState._wrap(np.ones(3, dtype=bool), 24, 0))
        past_watermark = record("x < 7", RangeSliceState._wrap(RangeList([(0, 50)]), 10, 8))
        short_bitmap = record("x < 8", BitmapSliceState._wrap(np.ones(2, dtype=bool), 24, 8))
        return good, [zero_block, past_watermark, short_bitmap]

    def test_hydrate_counts_them_and_installs_the_rest(self, tmp_path):
        good, broken = self.records()
        store = CacheStore(tmp_path)
        assert store.snapshot_records({r.digest: r for r in [good, *broken]})
        result = store.load(revalidate=False)
        assert result.corrupt_sections == 0  # decoding judges nothing
        assert all(result.records[r.digest] == r for r in [good, *broken])
        cache = PredicateCache(PredicateCacheConfig())
        before = store.corrupt_sections
        assert store.hydrate(cache) == 1
        assert store.corrupt_sections - before == len(broken)
        assert cache.keys() == [good.key]
        assert cache.entries()[0].slice_states[0] == good.states[0]

    def test_journal_replay_does_not_stop_at_one(self, tmp_path):
        good, broken = self.records()
        store = CacheStore(tmp_path)
        for record in [*broken, good]:
            assert store.log_state(record, 0, record.states[0])
        result = store.load(revalidate=False)
        assert result.journal_records == len(broken) + 1
        assert good.digest in result.records


class TestCrashSafety:
    def test_torn_snapshot_keeps_previous_snapshot(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        store = CacheStore(tmp_path, catalog=engine.database)
        assert store.snapshot(caches)
        good_bytes = (tmp_path / "cache.snapshot").read_bytes()

        engine.execute("select count(*) as c from t where x < 777")
        torn = CacheStore(
            tmp_path,
            catalog=engine.database,
            injector=FaultInjector(schedule={0: "error"}),
        )
        assert not torn.snapshot(caches)
        assert torn.torn_writes == 1
        assert (tmp_path / "cache.snapshot").read_bytes() == good_bytes

        result = CacheStore(tmp_path, catalog=engine.database).load()
        assert len(result.records) == 1  # the pre-crash snapshot

    def test_corrupt_snapshot_degrades_to_cold_start(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        corrupting = CacheStore(
            tmp_path,
            catalog=engine.database,
            injector=FaultInjector(seed=11, schedule={0: "corrupt"}),
        )
        assert corrupting.snapshot(caches)
        assert corrupting.corrupt_writes == 1

        recovery = CacheStore(tmp_path, catalog=engine.database)
        result = recovery.load()  # must not raise
        assert result.corrupt_sections > 0 or result.records == {}
        warm_engine, warm = make_engine(store=recovery, db=engine.database)
        plain = QueryEngine(engine.database)
        assert warm_engine.execute(OR_SQL).scalar() == plain.execute(OR_SQL).scalar()

    def test_torn_journal_append_wedges_until_snapshot(self, tmp_path):
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(
            tmp_path, catalog=db, injector=FaultInjector(schedule={2: "error"})
        )
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        engine.execute(OR_SQL)  # 4 slice installs; the third append tears
        assert store.torn_writes == 1
        assert store.journal_dropped > 0

        # Replay never raises and recovers exactly the pre-tear prefix.
        result = CacheStore(tmp_path, catalog=db).load(revalidate=False)
        assert result.journal_records == 2
        states = next(iter(result.records.values())).states
        assert len(states) == 2

        # A snapshot rotation resets the log and unwedges the store.
        assert store.snapshot(caches)
        engine.execute("select count(*) as c from t where x < 55")
        assert store.journal_records > 2

    def test_truncated_snapshot_never_raises(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)
        data = (tmp_path / "cache.snapshot").read_bytes()
        for cut in (0, 1, 7, len(data) // 2, len(data) - 1):
            (tmp_path / "cache.snapshot").write_bytes(data[:cut])
            result = CacheStore(tmp_path, catalog=engine.database).load()
            assert result.records == {} or all(
                rec.digest in result.records for rec in result.records.values()
            )

    def test_future_format_version_refused_wholesale(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)
        data = bytearray((tmp_path / "cache.snapshot").read_bytes())
        data[8] = 99  # format version u16 little-endian low byte
        (tmp_path / "cache.snapshot").write_bytes(bytes(data))
        result = CacheStore(tmp_path, catalog=engine.database).load()
        assert result.unsupported_version
        assert result.records == {}


class TestCompaction:
    def test_journal_folds_into_snapshot(self, tmp_path):
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(tmp_path, catalog=db, min_compact_bytes=256, compact_factor=1.0)
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        for hi in range(100, 2000, 100):
            engine.execute(f"select count(*) as c from t where x < {hi}")
        assert store.compactions > 0
        assert store.snapshot_bytes > 0
        assert store.journal_bytes <= store.compact_factor * store.snapshot_bytes

        assert_store_mirrors(
            CacheStore(tmp_path, catalog=db), caches, revalidate=True
        )


class TestWarmStart:
    def test_warm_cluster_hits_on_first_execution(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        for _ in range(2):
            expected = engine.execute(OR_SQL).scalar()
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)

        warm_store = CacheStore(tmp_path, catalog=engine.database)
        warm_engine, warm = make_engine(store=warm_store, db=engine.database)
        assert warm_store.warm_restores > 0

        cold_engine, _ = make_engine(db=engine.database)
        cold = cold_engine.execute(OR_SQL)
        first = warm_engine.execute(OR_SQL)
        assert first.scalar() == expected == cold.scalar()
        assert first.counters.cache_hits > 0
        assert first.counters.rows_skipped_cache > 0
        assert first.counters.blocks_accessed < cold.counters.blocks_accessed

    def test_fail_node_replacement_hydrates_from_store(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        expected = engine.execute(OR_SQL).scalar()
        store = CacheStore(tmp_path, catalog=engine.database)
        store.snapshot(caches)
        warm_engine, warm = make_engine(
            store=CacheStore(tmp_path, catalog=engine.database), db=engine.database
        )
        replacement = warm.fail_node(0)
        assert len(replacement) == 1  # hydrated, not cold
        first = warm_engine.execute(OR_SQL)
        assert first.scalar() == expected
        assert first.counters.cache_hits > 0
        assert first.counters.cache_misses == 0

    def test_store_backed_resize_keeps_serving_hits(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        expected = engine.execute(OR_SQL).scalar()
        store = CacheStore(tmp_path, catalog=engine.database)
        store.snapshot(caches)
        warm_engine, warm = make_engine(
            store=CacheStore(tmp_path, catalog=engine.database), db=engine.database
        )
        for n in (3, 1, 2):
            warm.resize(n)
            result = warm_engine.execute(OR_SQL)
            assert result.scalar() == expected, n
            assert result.counters.cache_hits > 0, n
            assert result.counters.cache_misses == 0, n
            # Re-shard is clean: every node holds exactly its share.
            for node_id in range(n):
                for entry in warm.node(node_id).entries():
                    for sid, state in enumerate(entry.slice_states):
                        if state is not None:
                            assert sid % n == node_id

    def test_resize_after_vacuum_does_not_resurrect_stale_state(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        store = CacheStore(tmp_path, catalog=engine.database)
        store.snapshot(caches)
        warm_engine, warm = make_engine(
            store=CacheStore(tmp_path, catalog=engine.database), db=engine.database
        )
        engine.delete_where("t", __import__("repro").parse_predicate("x < 100"))
        assert engine.vacuum(["t"]) == ["t"]
        warm.resize(3)
        plain = QueryEngine(engine.database)
        assert warm_engine.execute(OR_SQL).scalar() == plain.execute(OR_SQL).scalar()

    def test_set_predicate_cache_swaps_executor_reference(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        expected = engine.execute(OR_SQL).scalar()
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)
        warm = ClusterCaches(
            2,
            config=PredicateCacheConfig(),
            store=CacheStore(tmp_path, catalog=engine.database),
        )
        engine.set_predicate_cache(warm)
        result = engine.execute(OR_SQL)
        assert result.scalar() == expected
        assert result.counters.cache_hits > 0
        assert engine.predicate_cache is warm


class TestRetiredCaches:
    """A replaced cache lets go: of the store and of its tables."""

    FIVE = [f"select count(*) as c from t where v = {v}" for v in range(5)]

    def journalled_drops(self, directory):
        payloads = iter_journal(
            (directory / "cache.journal").read_bytes(), DecodeIssues()
        )
        events = [decode_journal_payload(payload) for payload in payloads]
        return [event for event in events if event[0] == "drop"]

    def test_replaced_nodes_unsubscribe_and_a_vacuum_journals_live_drops_only(
        self, tmp_path
    ):
        engine, caches, store = make_stored_engine(tmp_path)
        populate(engine, rows=8_000)
        table = engine.database.tables["t"]
        for sql in self.FIVE:
            engine.execute(sql)
        assert len(table._listeners) == 2
        for round_ in range(6):
            retired = caches.node(round_ % 2)
            caches.fail_node(round_ % 2)
            assert retired.store is None
            assert len(table._listeners) == 2
        caches.kill_node(1)
        assert len(table._listeners) == 1
        caches.fail_node(1)
        engine.execute(self.FIVE[0])  # the replacement subscribes by scanning
        assert len(table._listeners) == 2
        for num_nodes in (3, 1, 2):
            caches.resize(num_nodes)
            assert len(table._listeners) == num_nodes
        orchestrator = RecoveryOrchestrator(engine, store)
        orchestrator.restart()
        assert len(table._listeners) == 2
        caches, store = engine.predicate_cache, orchestrator.store

        live = sum(len(node) for node in caches.nodes())
        assert live == 10  # 5 keys, each with a share on both nodes
        assert store.snapshot(caches)
        engine.execute("delete from t where x < 10")
        engine.execute("vacuum t")
        drops = self.journalled_drops(tmp_path)
        assert len(drops) == live
        assert len({digest for _, digest, _ in drops}) == 5
        assert len(caches) == 0

    def test_a_retired_cache_does_not_resubscribe(self, tmp_path):
        engine, caches, _store = make_stored_engine(tmp_path)
        populate(engine, rows=2_000)
        engine.execute(self.FIVE[0])
        table = engine.database.tables["t"]
        retired = caches.node(0)
        caches.fail_node(0)
        retired.watch_table(table)  # an orphaned scan still in flight
        retired.close()  # idempotent
        assert len(table._listeners) == 2
        assert retired._on_table_event not in table._listeners


class TestObservability:
    def test_store_metrics_and_spans(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer()
        db = Database(num_slices=4, rows_per_block=256)
        db.create_table(
            TableSchema("t", tuple(ColumnSpec(c, DataType.INT64) for c in COLUMNS))
        )
        store = CacheStore(tmp_path, catalog=db, tracer=tracer)
        store.register_metrics(registry)
        engine, caches = make_engine(store=store, db=db)
        populate(engine)
        engine.execute(OR_SQL)
        store.snapshot(caches)
        CacheStore(tmp_path, catalog=db, tracer=tracer).load()

        text = registry.render_prometheus()
        assert "repro_persist_snapshot_bytes" in text
        assert "repro_persist_journal_records_total" in text
        names = [span.name for root in tracer.roots for span in root.walk()]
        assert "persist.snapshot" in names
        assert "persist.load" in names

    def test_warm_restore_counters(self, tmp_path):
        engine, caches = make_engine()
        populate(engine)
        engine.execute(OR_SQL)
        CacheStore(tmp_path, catalog=engine.database).snapshot(caches)
        registry = MetricsRegistry()
        store = CacheStore(tmp_path, catalog=engine.database)
        store.register_metrics(registry)
        make_engine(store=store, db=engine.database)
        flat = {
            line.split(" ")[0]: float(line.rsplit(" ", 1)[1])
            for line in registry.render_prometheus().splitlines()
            if line and not line.startswith("#")
        }
        assert flat["repro_persist_warm_restores_total"] > 0
        assert flat["repro_persist_recoveries_total"] >= 1
