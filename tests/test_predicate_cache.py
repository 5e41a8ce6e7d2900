"""The PredicateCache: keys, lookups, invalidation, eviction (§4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PredicateCache,
    PredicateCacheConfig,
    RangeList,
    ScanKey,
    SemiJoinDescriptor,
)
from repro import invariants
from repro.core.entry import BitmapSliceState, CacheEntry, RangeSliceState
from repro.persist.format import (
    decode_journal_payload,
    decode_snapshot,
    encode_snapshot,
    encode_state_event,
)
from repro.persist.records import EntryRecord

from tests.rowsets import pairs, rows


def make_cache(**kwargs):
    return PredicateCache(PredicateCacheConfig(**kwargs))


def install(cache, key):
    """Create ``key``'s entry with one recorded slice state."""
    entry = cache.get_or_create(key, 1)
    cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
    return entry


class TestKeys:
    def test_plain_key_equality(self):
        assert ScanKey("t", "x = 1") == ScanKey("t", "x = 1")
        assert ScanKey("t", "x = 1") != ScanKey("t", "x = 2")
        assert ScanKey("a", "x = 1") != ScanKey("b", "x = 1")

    def test_semijoin_order_is_canonical(self):
        s1 = SemiJoinDescriptor("a = b", "dim1")
        s2 = SemiJoinDescriptor("c = d", "dim2")
        assert ScanKey("t", "TRUE", (s1, s2)) == ScanKey("t", "TRUE", (s2, s1))

    def test_referenced_tables_recursive(self):
        inner = SemiJoinDescriptor("x = y", "region")
        outer = SemiJoinDescriptor("a = b", "nation", "TRUE", (inner,))
        key = ScanKey("supplier", "TRUE", (outer,))
        assert key.referenced_tables() == frozenset({"nation", "region"})

    def test_key_text_mirrors_paper_layout(self):
        descriptor = SemiJoinDescriptor(
            "l_orderkey = o_orderkey",
            "orders",
            "o_orderdate BETWEEN 9131 AND 9161",
        )
        text = ScanKey("lineitem", "l_discount = 0.1", (descriptor,)).key()
        assert "table=orders" in text
        assert "l_orderkey = o_orderkey" in text


class TestLookupAndInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        key = ScanKey("t", "x = 1")
        assert cache.lookup(key) is None
        entry = cache.get_or_create(key, num_slices=2)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
        found = cache.lookup(key)
        assert found is entry
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_get_or_create_is_idempotent(self):
        cache = make_cache()
        key = ScanKey("t", "x = 1")
        assert cache.get_or_create(key, 1) is cache.get_or_create(key, 1)
        assert cache.stats.inserts == 1

    def test_record_extends_existing_slice(self):
        cache = make_cache(variant="range")
        entry = cache.get_or_create(ScanKey("t", "x = 1"), 1)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
        cache.record_slice_scan(entry, 0, rows((100, 110)), 200)
        assert cache.stats.extensions == 1
        assert entry.slice_states[0].last_cached_row == 200

    def test_select_entry_prefers_most_selective(self):
        cache = make_cache()
        plain = cache.get_or_create(ScanKey("t", "x = 1"), 1)
        plain.rows_qualifying, plain.rows_considered = 500, 1000
        join_key = ScanKey("t", "x = 1", (SemiJoinDescriptor("a = b", "d"),))
        join = cache.get_or_create(join_key, 1)
        join.rows_qualifying, join.rows_considered = 10, 1000
        chosen = cache.select_entry([join_key, ScanKey("t", "x = 1")])
        assert chosen is join

    def test_select_entry_falls_back_to_plain(self):
        cache = make_cache()
        plain_key = ScanKey("t", "x = 1")
        plain = cache.get_or_create(plain_key, 1)
        join_key = ScanKey("t", "x = 1", (SemiJoinDescriptor("a = b", "d"),))
        assert cache.select_entry([join_key, plain_key]) is plain

    def test_select_entry_counts_one_lookup(self):
        cache = make_cache()
        cache.select_entry([ScanKey("t", "a"), ScanKey("t", "b")])
        assert cache.stats.lookups == 1
        assert cache.stats.misses == 1


class TestInvalidation:
    def test_layout_invalidation_drops_table_entries(self):
        cache = make_cache()
        cache.get_or_create(ScanKey("t", "x = 1"), 1)
        cache.get_or_create(ScanKey("u", "y = 2"), 1)
        assert cache.invalidate_table("t") == 1
        assert ScanKey("t", "x = 1") not in cache
        assert ScanKey("u", "y = 2") in cache

    def test_build_side_invalidation_spares_plain_entries(self):
        cache = make_cache()
        plain = ScanKey("fact", "x = 1")
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(plain, 1)
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.select_entry([join, plain], {"dim": 4}).key == plain
        assert cache.stats.stale_rejections == 1
        assert plain in cache
        assert join not in cache

    def test_stale_version_rejected_at_lookup(self):
        cache = make_cache()
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.lookup(join, {"dim": 4}) is None
        assert cache.stats.stale_rejections == 1
        assert join not in cache

    def test_matching_version_accepted(self):
        cache = make_cache()
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.lookup(join, {"dim": 3}) is not None

    def test_table_events_wire_invalidation(self):
        """A table calls into no cache: a write moves its stamps, and the
        cache drops what they make stale when a scan reads — a join
        entry at the next probe of its key, every entry on a table at
        the next layout check of it."""
        from repro.storage import ColumnSpec, Database, DataType, TableSchema

        db = Database(num_slices=1)
        db.create_table(TableSchema("fact", (ColumnSpec("x", DataType.INT64),)))
        db.create_table(TableSchema("dim", (ColumnSpec("y", DataType.INT64),)))
        fact, dim = db.table("fact"), db.table("dim")
        cache = make_cache()
        cache.check_layout(fact)
        plain = ScanKey("fact", "x = 1")
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("x = y", "dim"),))
        cache.get_or_create(plain, 1)
        cache.get_or_create(join, 1, {"dim": dim.data_version})
        # DML on dim leaves both entries in place; the next probe drops
        # the join entry and keeps the plain one (§4.4).
        dim.insert({"y": [1]}, db.begin())
        assert plain in cache and join in cache
        versions = {"dim": dim.data_version}
        assert cache.select_entry([join, plain], versions).key == plain
        assert plain in cache and join not in cache
        # DML on fact moves no layout stamp: its entries stay current.
        fact.insert({"x": [1]}, db.begin())
        cache.check_layout(fact)
        assert plain in cache
        # A vacuum does: the next layout check drops everything on fact.
        assert fact.delete_local_rows(0, [0], db.begin()) == 1
        fact.vacuum(db.horizon_txid)
        assert plain in cache
        cache.check_layout(fact)
        assert plain not in cache
        assert cache.table_layout_of("fact") == fact.layout_version


class TestEviction:
    def test_lookup_refreshes_lru_position(self):
        a, b, c = (ScanKey("t", f"x = {i}") for i in range(3))
        entry_bytes = install(make_cache(), a).nbytes
        cache = make_cache(max_bytes=2 * entry_bytes)  # room for two
        install(cache, a)
        install(cache, b)
        cache.lookup(a)  # refresh a
        install(cache, c)
        assert a in cache and b not in cache and c in cache
        assert cache.stats.evictions == 1

    def test_byte_budget(self):
        cache = make_cache(max_bytes=100, variant="range")
        for i in range(10):
            entry = cache.get_or_create(ScanKey("t", f"x = {i}"), 1)
            cache.record_slice_scan(entry, 0, rows((0, 5)), 100)
            cache._evict_if_needed()
        assert cache.total_nbytes <= 100 or len(cache) == 1

    def test_byte_count_follows_every_payload_change(self):
        """The running count equals the re-sum after an install, an
        extension, a restore over a live key, an eviction, an
        invalidation and a clear."""
        a, b, c = (ScanKey("t", f"x = {i}") for i in range(3))
        entry_bytes = install(make_cache(variant="range"), a).nbytes
        cache = make_cache(variant="range", max_bytes=4 * entry_bytes)

        def resummed():
            return sum(entry.nbytes for entry in cache.entries())

        entry = install(cache, a)
        install(cache, b)
        assert cache.total_nbytes == resummed() == 2 * entry_bytes
        cache.record_slice_scan(entry, 0, rows((120, 130)), 200)
        assert cache.total_nbytes == resummed() > 2 * entry_bytes
        restored = entry.slice_states[0]
        cache.install_restored(b, 1, {}, {0: restored})
        assert cache.total_nbytes == resummed() == 2 * restored.nbytes
        install(cache, c)  # over budget: evicts the least recently used
        assert cache.stats.evictions == 1
        assert cache.total_nbytes == resummed()
        cache.invalidate_table("t")
        assert cache.total_nbytes == resummed() == 0
        install(cache, a)
        cache.clear()
        assert cache.total_nbytes == 0

    def test_join_keys_disabled_by_config(self):
        cache = make_cache(cache_join_keys=False)
        join = ScanKey("t", "x", (SemiJoinDescriptor("a = b", "d"),))
        with pytest.raises(ValueError):
            cache.get_or_create(join, 1)


class TestConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            PredicateCacheConfig(variant="tree")

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            PredicateCacheConfig(max_ranges_per_slice=0)
        with pytest.raises(ValueError):
            PredicateCacheConfig(bitmap_block_rows=0)

    def test_stats_snapshot_delta(self):
        cache = make_cache()
        cache.lookup(ScanKey("t", "x"))
        before = cache.stats.snapshot()
        cache.lookup(ScanKey("t", "x"))
        delta = cache.stats.delta(before)
        assert delta.lookups == 1


class TestExactStates:
    """A range state is exact only while every list it was built from
    was the truth and ``coalesce`` never merged (``core/entry.py``)."""

    @staticmethod
    def ranges(count):
        return rows(*((10 * i, 10 * i + 3) for i in range(count)))

    def test_exact_up_to_the_bound_and_not_past_it(self):
        at_bound = RangeSliceState(self.ranges(4), 100, 4, exact=True)
        past_bound = RangeSliceState(self.ranges(5), 100, 4, exact=True)
        assert at_bound.exact and pairs(at_bound.ranges) == pairs(self.ranges(4))
        assert not past_bound.exact and len(past_bound.ranges) == 4

    def test_constructor_defaults_to_inexact(self):
        assert not RangeSliceState(self.ranges(1), 100, 4).exact
        assert not RangeSliceState._wrap(RangeList.from_rows(self.ranges(1)), 100, 4).exact

    def test_extension_ands_old_flag_new_flag_and_the_bound(self):
        exact = RangeSliceState(self.ranges(2), 100, 4, exact=True)
        assert exact.extended(rows((100, 105)), 120, exact=True).exact
        assert not exact.extended(rows((100, 105)), 120).exact
        coalesced = exact.extended(
            rows((100, 101), (103, 104), (106, 107)), 120, exact=True
        )
        assert not coalesced.exact and len(coalesced.ranges) == 4
        inexact = RangeSliceState(self.ranges(2), 100, 4)
        assert not inexact.extended(rows((100, 105)), 120, exact=True).exact

    def test_a_repeat_with_no_tail_keeps_the_state(self):
        exact = RangeSliceState(self.ranges(2), 100, 4, exact=True)
        assert exact.extended(rows(), 100) is exact

    def test_flag_is_not_part_of_equality_or_bytes(self):
        exact = RangeSliceState(self.ranges(2), 100, 4, exact=True)
        inexact = RangeSliceState(self.ranges(2), 100, 4)
        assert exact == inexact and exact.nbytes == inexact.nbytes

    def test_conjunct_list_extension_demotes_an_exact_state(self):
        cache = make_cache(variant="range", max_ranges_per_slice=8)
        entry = cache.get_or_create(ScanKey("t", "x < 5"), 1)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100, exact=True)
        assert entry.slice_states[0].exact
        cache.record_slice_scan(entry, 0, rows((100, 150)), 150)
        assert not entry.slice_states[0].exact
        cache.record_slice_scan(entry, 0, rows((150, 151)), 160, exact=True)
        assert not entry.slice_states[0].exact

    def test_bitmap_states_are_never_exact(self):
        cache = make_cache(variant="bitmap")
        entry = cache.get_or_create(ScanKey("t", "x < 5"), 1)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100, exact=True)
        cache.record_slice_scan(entry, 0, rows((100, 101)), 120, exact=True)
        assert not entry.slice_states[0].exact
        assert not BitmapSliceState(rows((0, 5)), 100, 20).exact

    @staticmethod
    def exact_record():
        entry = CacheEntry(ScanKey("t", "x < 5"), 1, {})
        entry.slice_states[0] = RangeSliceState(
            rows((0, 5), (9, 12)), 100, 8, exact=True
        )
        return EntryRecord.from_entry(entry, table_layout=0)

    def test_decoded_snapshot_states_are_inexact(self):
        record = self.exact_record()
        decoded, _meta, issues = decode_snapshot(
            encode_snapshot({record.digest: record})
        )
        assert issues.clean
        state = decoded[record.digest].states[0]
        assert state == record.states[0] and not state.exact

    def test_journal_replayed_states_are_inexact(self):
        record = self.exact_record()
        _op, _meta, _slice, state = decode_journal_payload(
            encode_state_event(record, 0, record.states[0])
        )
        assert state == record.states[0] and not state.exact

    def test_hydrated_states_are_inexact(self, tmp_path):
        from repro.persist import CacheStore

        cache = make_cache(variant="range")
        CacheStore(tmp_path).attach(cache)
        entry = cache.get_or_create(ScanKey("t", "x < 5"), 1)
        cache.record_slice_scan(entry, 0, rows((0, 5)), 100, exact=True)
        assert entry.slice_states[0].exact
        warm = make_cache(variant="range")
        assert CacheStore(tmp_path).attach(warm) == 1
        (restored,) = warm.entries()
        assert restored.slice_states[0] == entry.slice_states[0]
        assert not restored.slice_states[0].exact


# -- the entry ledger: the entry table alone decides liveness -----------------

_LEDGER_KEYS = (
    ScanKey("t", "x < 1"),
    ScanKey("t", "x < 2"),
    ScanKey("u", "y < 1"),
    ScanKey("t", "x < 3", (SemiJoinDescriptor("x = z", "d"),)),
)

_ledger_op = st.one_of(
    st.tuples(st.just("get"), st.integers(0, len(_LEDGER_KEYS) - 1)),
    # (captured entry index, slice, rows the install adds)
    st.tuples(st.just("install"), st.integers(0, 63), st.integers(0, 1),
              st.integers(1, 12)),
    st.tuples(st.just("restore"), st.integers(0, len(_LEDGER_KEYS) - 1)),
    st.tuples(st.just("invalidate_table"), st.sampled_from(("t", "u"))),
    st.just(("stale_probe",)),
    st.just(("clear",)),
    st.tuples(st.just("drop_stale"), st.integers(0, len(_LEDGER_KEYS) - 1)),
)


class TestEntryLedger:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_ledger_op, max_size=40))
    def test_an_install_lands_exactly_when_its_entry_is_live(self, ops):
        """Entry objects captured by ``get_or_create`` and
        ``install_restored`` install later, after invalidations, clears,
        stale drops (a join entry probed with a moved build-side stamp
        among them), evictions under a small ``max_bytes`` and restores
        over a live key.  An install lands (its state and counts change)
        exactly when its object is still the one under its key, and
        ``stale_installs`` counts every other install."""
        cache = make_cache(variant="range", max_bytes=40)
        captured, refused, upto = [], 0, 0
        for op in ops:
            kind = op[0]
            if kind == "get":
                key = _LEDGER_KEYS[op[1]]
                versions = {"d": 1} if key.is_join_key else {}
                captured.append(cache.get_or_create(key, 2, versions))
            elif kind == "restore":
                state = RangeSliceState(rows((upto, upto + 1)), upto + 1, 16)
                upto += 1
                captured.append(
                    cache.install_restored(_LEDGER_KEYS[op[1]], 2, {}, {0: state})
                )
            elif kind == "install":
                if not captured:
                    continue
                entry = captured[op[1] % len(captured)]
                live = any(e is entry for e in cache.entries())
                before = (entry.rows_considered, entry.slice_states[op[2]])
                upto += op[3]
                cache.record_slice_scan(entry, op[2], rows((upto - op[3], upto)), upto)
                landed = (entry.rows_considered, entry.slice_states[op[2]]) != before
                assert landed == live, op
                refused += not live
            elif kind == "invalidate_table":
                cache.invalidate_table(op[1])
            elif kind == "stale_probe":
                cache.lookup(_LEDGER_KEYS[3], {"d": 2})
            elif kind == "clear":
                cache.clear()
            else:
                cache.drop_stale(_LEDGER_KEYS[op[1]])
            invariants.check_cache(cache)
        assert cache.stats.stale_installs == refused

    def test_selectivity_is_the_installs_summed_counts(self):
        """Every install folds ``scanned_upto`` considered rows and the
        rows its set holds into the entry: a repeat that found nothing
        appended counts again, and a rejected set holds every row but
        the ones handed over."""
        cache = make_cache(variant="range")
        entry = cache.get_or_create(ScanKey("t", "x < 9"), 2)
        script = (  # slice, rows, scanned_upto, rejected
            (0, rows((0, 10)), 100, False),
            (1, rows((5, 8)), 50, False),
            (0, rows((100, 130)), 200, False),
            (0, rows((100, 130)), 200, False),
            (1, rows((60, 70)), 80, True),
        )
        qualifying = considered = 0
        for slice_id, ids, scanned_upto, rejected in script:
            cache.record_slice_scan(
                entry, slice_id, ids, scanned_upto, rejected=rejected
            )
            qualifying += scanned_upto - len(ids) if rejected else len(ids)
            considered += scanned_upto
        assert (entry.rows_qualifying, entry.rows_considered) == (143, 630)
        assert entry.selectivity == qualifying / considered
