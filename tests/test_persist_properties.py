"""Property tests for the persistence formats (DESIGN.md §9).

Three invariants, hypothesis-driven:

* **Digest stability**: the scalar key digest a ``ScanKey`` memoises is
  the vectorised FNV-1a of its canonical string, bit for bit, and three
  digests written down at the commit before the scalar one existed pin
  the persisted value itself.

* **Round trip**: arbitrary cache entries → snapshot bytes (+ journal
  events) → load reproduces them *bit-identically* — ranges, bitmaps,
  stats, generations, build versions, keys.
* **Totality under damage**: truncate the files anywhere, flip any bit
  — ``load`` always returns a valid (possibly empty) state with the
  damage counted in the issue counters, and it never raises.  Entries
  that survive damage are always bit-identical to originals (CRCs make
  "silently altered" impossible, up to CRC32 collisions which these
  single-flip/truncation cases cannot produce).
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.entry import PROVENANCES
from repro.core.keys import ScanKey, SemiJoinDescriptor
from repro.engine.hashing import fnv1a_hash
from repro.persist import CacheStore
from repro.persist.format import (
    DecodeIssues,
    decode_snapshot,
    encode_drop_event,
    encode_snapshot,
    encode_state_event,
    frame_record,
    replay_journal,
)
from repro.persist.records import (
    KIND_BITMAP,
    KIND_RANGE,
    EntryRecord,
    StateRecord,
    key_digest,
)

# -- strategies ---------------------------------------------------------------

_name = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


@st.composite
def range_states(draw):
    """Normalized (disjoint, non-adjacent, sorted) bounds arrays — the
    only shape a live RangeList ever holds, so round trips are exact."""
    n = draw(st.integers(min_value=0, max_value=8))
    # 2n strictly increasing cut points with a gap >= 2 between pairs.
    steps = draw(
        st.lists(
            st.integers(min_value=1, max_value=50), min_size=2 * n, max_size=2 * n
        )
    )
    cuts, acc = [], 0
    for i, step in enumerate(steps):
        acc += step + (1 if i % 2 == 0 and i > 0 else 0)
        cuts.append(acc)
    bounds = np.array(cuts, dtype=np.int64).reshape(-1, 2)
    last = draw(st.integers(min_value=int(bounds[-1, 1]) if n else 0, max_value=10**6))
    max_ranges = draw(st.integers(min_value=max(1, n), max_value=4096))
    return StateRecord(KIND_RANGE, last, max_ranges, bounds)


@st.composite
def bitmap_states(draw):
    bits = np.array(
        draw(st.lists(st.booleans(), min_size=0, max_size=64)), dtype=bool
    )
    block_size = draw(st.integers(min_value=1, max_value=4096))
    last = draw(st.integers(min_value=0, max_value=10**6))
    return StateRecord(KIND_BITMAP, last, block_size, bits)


@st.composite
def semijoins(draw, depth=1):
    nested = ()
    if depth > 0 and draw(st.booleans()):
        nested = (draw(semijoins(depth=depth - 1)),)
    return SemiJoinDescriptor(
        draw(_name), draw(_name), draw(_name) if draw(st.booleans()) else "TRUE", nested
    )


@st.composite
def entry_records(draw):
    key = ScanKey(
        draw(_name),
        draw(_name),
        tuple(draw(st.lists(semijoins(), min_size=0, max_size=2))),
    )
    num_slices = draw(st.integers(min_value=1, max_value=8))
    slice_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_slices - 1),
            min_size=1,
            max_size=num_slices,
            unique=True,
        )
    )
    states = {
        sid: draw(st.one_of(range_states(), bitmap_states())) for sid in slice_ids
    }
    # Reuse-lattice provenance (DESIGN.md §14): derived entries carry
    # the digests of the conjunct entries they were composed from.
    provenance = draw(st.sampled_from(PROVENANCES))
    if provenance in ("composed", "subsumed"):
        source_digests = tuple(
            draw(
                st.lists(
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    min_size=1,
                    max_size=4,
                )
            )
        )
    else:
        source_digests = ()
    return EntryRecord(
        key=key,
        digest=key_digest(key),
        table_layout=draw(st.integers(min_value=0, max_value=2**40)),
        num_slices=num_slices,
        generation=draw(st.integers(min_value=0, max_value=2**40)),
        build_versions={
            draw(_name): draw(st.integers(min_value=0, max_value=2**40))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        },
        hits=draw(st.integers(min_value=0, max_value=2**40)),
        rows_qualifying=draw(st.integers(min_value=0, max_value=2**40)),
        rows_considered=draw(st.integers(min_value=0, max_value=2**40)),
        provenance=provenance,
        source_digests=source_digests,
        states=states,
    )


@st.composite
def record_sets(draw):
    entries = draw(st.lists(entry_records(), min_size=0, max_size=4))
    return {record.digest: record for record in entries}


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_records_equal(a, b):
    assert set(a) == set(b)
    for digest in a:
        assert a[digest].equals(b[digest]), digest


# -- key digests --------------------------------------------------------------

_text = st.text(max_size=24)  # any unicode, embedded NULs included


@st.composite
def unicode_semijoins(draw, depth=1):
    nested = ()
    if depth > 0 and draw(st.booleans()):
        nested = (draw(unicode_semijoins(depth=depth - 1)),)
    return SemiJoinDescriptor(draw(_text), draw(_text), draw(_text), nested)


class TestKeyDigest:
    @SETTINGS
    @given(
        table=_text,
        predicate=_text,
        semijoins=st.lists(unicode_semijoins(), max_size=2),
    )
    @example(table="täble", predicate="näme = 'Zoë'", semijoins=[])
    @example(table="t", predicate="a = 'x\x00y' AND b < 3", semijoins=[])
    @example(table="\x00", predicate="", semijoins=[])
    def test_scalar_digest_is_the_vectorised_one(self, table, predicate, semijoins):
        key = ScanKey(table, predicate, tuple(semijoins))
        expected = int(fnv1a_hash(np.array([key.key()], dtype=object))[0])
        assert key_digest(key) == expected
        assert key_digest(key) == expected  # the memoised read
        assert key_digest(ScanKey(table, predicate, tuple(semijoins))) == expected

    def test_digests_written_by_earlier_commits_still_verify(self):
        # Captured at 1723fe9, when key_digest was fnv1a_hash over a
        # one-element array: every snapshot and journal on disk holds
        # values like these, and a drifted digest drops the entry.
        nested = SemiJoinDescriptor(
            "o_orderkey = l_orderkey",
            "orders",
            "o_orderdate < 9200",
            (
                SemiJoinDescriptor(
                    "c_custkey = o_custkey", "customer", "c_mktsegment = 'BUILDING'"
                ),
            ),
        )
        assert key_digest(
            ScanKey(
                "lineitem",
                "l_shipdate >= 9000 AND l_discount BETWEEN 0.05 AND 0.07",
            )
        ) == -6744684239901970853
        assert key_digest(
            ScanKey("täble", "näme = 'Zoë' OR x < 5")
        ) == 464255686937529974
        assert key_digest(
            ScanKey("lineitem", "l_quantity < 24", (nested,))
        ) == 7818946230905347585

    def test_memo_is_not_part_of_the_key(self):
        key, twin = ScanKey("t", "x < 5"), ScanKey("t", "x < 5")
        key_digest(key)
        assert key == twin and hash(key) == hash(twin)
        assert repr(key) == repr(twin)


# -- round trips --------------------------------------------------------------


def _colliding_record(slice_ids):
    """A fixed-key record: two of these share a digest, which random
    draws of ``entry_records()`` almost never do."""
    key = ScanKey("t", "a < 5")
    return EntryRecord(
        key=key,
        digest=key_digest(key),
        table_layout=0,
        num_slices=3,
        generation=1,
        states={
            sid: StateRecord(
                KIND_RANGE, 10 + sid, 16, np.array([[0, 4 + sid]], dtype=np.int64)
            )
            for sid in slice_ids
        },
    )


_SNAPSHOTTED = _colliding_record([0, 1])


class TestRoundTripProperties:
    @SETTINGS
    @given(records=record_sets())
    def test_snapshot_round_trip_bit_identical(self, records):
        decoded, _meta, issues = decode_snapshot(encode_snapshot(records))
        assert issues.clean
        assert_records_equal(decoded, records)

    @SETTINGS
    @given(records=record_sets())
    def test_store_round_trip_through_files(self, records, tmp_path_factory):
        directory = tmp_path_factory.mktemp("store")
        writer = CacheStore(directory)
        assert writer.snapshot_records(records)
        result = CacheStore(directory).load(revalidate=False)
        assert_records_equal(result.records, records)

    @SETTINGS
    # ``extra`` re-journals slice 1 of a key the snapshot already holds
    # (with slice 0 beside it): the merge and survivor branches below
    # run on every invocation, not only when hypothesis draws a collision.
    @example(
        records={_SNAPSHOTTED.digest: _SNAPSHOTTED},
        extra=_colliding_record([1, 2]),
    )
    @given(records=record_sets(), extra=entry_records())
    def test_journal_replay_matches_direct_install(self, records, extra, tmp_path_factory):
        directory = tmp_path_factory.mktemp("store")
        store = CacheStore(directory)
        assert store.snapshot_records(records)
        # Journal the extra entry's states one event at a time, the way
        # the write-through hook does.
        for slice_id, state in extra.states.items():
            store._append(encode_state_event(extra, slice_id, state))
        result = CacheStore(directory).load(revalidate=False)
        assert extra.digest in result.records
        replayed = result.records[extra.digest]
        # Replay merges into the snapshot's copy of the same key, so the
        # journaled slices are a subset of the replayed ones.
        assert set(extra.states) <= set(replayed.states)
        for sid, state in extra.states.items():
            assert replayed.states[sid].equals(state)

        # Dropping every slice removes the record entirely.
        store._append(encode_drop_event(extra.digest, list(extra.states)))
        after = CacheStore(directory).load(revalidate=False)
        if extra.digest in records:
            # The snapshot copy also lost those slices; whatever is left
            # must come from the snapshot's other slices.
            survivor = after.records.get(extra.digest)
            if survivor is not None:
                assert not (set(survivor.states) & set(extra.states))
        else:
            assert extra.digest not in after.records


# -- damage totality ----------------------------------------------------------


class TestDamageProperties:
    @SETTINGS
    @given(records=record_sets(), cut=st.floats(min_value=0.0, max_value=1.0))
    def test_truncated_snapshot_loads_subset(self, records, cut):
        data = encode_snapshot(records)
        truncated = data[: int(cut * len(data))]
        decoded, _meta, issues = decode_snapshot(truncated)
        for digest, record in decoded.items():
            assert record.equals(records[digest])
        # A zero-byte file is "no snapshot yet" — a clean cold start,
        # not damage.  Any other strict prefix must be flagged.
        if 0 < len(truncated) < len(data):
            assert issues.truncated or issues.corrupt_sections > 0

    @SETTINGS
    @given(
        records=record_sets().filter(bool),
        position=st.floats(min_value=0.0, max_value=1.0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flip_never_yields_altered_entries(self, records, position, bit):
        data = bytearray(encode_snapshot(records))
        index = min(int(position * len(data)), len(data) - 1)
        data[index] ^= 1 << bit
        decoded, _meta, issues = decode_snapshot(bytes(data))
        # Whatever survives is bit-identical to an original; the flip
        # either hit a section (dropped + counted) or the header.
        for digest, record in decoded.items():
            assert record.equals(records[digest])
        if len(decoded) < len(records):
            assert (
                issues.corrupt_sections > 0
                or issues.truncated
                or issues.unsupported_version
            )

    @SETTINGS
    @given(
        records=record_sets().filter(bool),
        events=st.integers(min_value=1, max_value=5),
        cut=st.floats(min_value=0.0, max_value=1.0),
        flip=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    def test_damaged_journal_replays_clean_prefix(self, records, events, cut, flip):
        ordered = list(records.values())
        journal = bytearray()
        for i in range(events):
            record = ordered[i % len(ordered)]
            slice_id = next(iter(record.states))
            journal += frame_record(
                encode_state_event(record, slice_id, record.states[slice_id])
            )
        journal = journal[: int(cut * len(journal))]
        if flip is not None and journal:
            index = min(int(flip * len(journal)), len(journal) - 1)
            journal[index] ^= 1
        issues = DecodeIssues()
        replayed_records = {}
        count = replay_journal(replayed_records, bytes(journal), issues)
        assert 0 <= count <= events
        for digest, record in replayed_records.items():
            original = records[digest]
            for sid, state in record.states.items():
                assert state.equals(original.states[sid])

    @SETTINGS
    @given(
        records=record_sets(),
        snap_cut=st.floats(min_value=0.0, max_value=1.0),
        journal_flip=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_load_is_total_with_counters(
        self, records, snap_cut, journal_flip, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("store")
        store = CacheStore(directory)
        assert store.snapshot_records(records)
        for record in records.values():
            for slice_id, state in record.states.items():
                store._append(encode_state_event(record, slice_id, state))

        snap = directory / "cache.snapshot"
        data = snap.read_bytes()
        snap.write_bytes(data[: int(snap_cut * len(data))])
        journal_path = directory / "cache.journal"
        journal = bytearray(journal_path.read_bytes())
        if journal:
            index = min(int(journal_flip * len(journal)), len(journal) - 1)
            journal[index] ^= 1
            journal_path.write_bytes(bytes(journal))

        recovery = CacheStore(directory)
        result = recovery.load(revalidate=False)  # must never raise
        for digest, record in result.records.items():
            original = records[digest]
            for sid, state in record.states.items():
                assert state.equals(original.states[sid])
        damage_seen = (
            result.truncated
            or result.corrupt_sections > 0
            or set(result.records) == set(records)
        )
        assert damage_seen
        assert recovery.recoveries == 1
        assert recovery.last_recovery_seconds >= 0.0
