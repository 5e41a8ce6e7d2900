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

from repro.core.entry import BitmapSliceState, RangeSliceState
from repro.core.keys import ScanKey, SemiJoinDescriptor
from repro.engine.hashing import fnv1a_hash
from repro.persist import CacheStore
from repro.persist.format import (
    _PROVENANCES,
    FORMAT_VERSION,
    DecodeIssues,
    decode_journal_payload,
    decode_snapshot,
    encode_drop_event,
    encode_snapshot,
    encode_state_event,
    frame_record,
    replay_journal,
)
from repro.persist.records import EntryRecord, key_digest

from tests.rowsets import rows

# -- strategies ---------------------------------------------------------------

_name = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


@st.composite
def range_states(draw):
    """Range states as the public constructor builds them, from
    normalized (disjoint, non-adjacent, sorted) bounds no longer than
    ``max_ranges`` — so nothing is coalesced away and round trips are
    exact."""
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
    state = RangeSliceState(rows(*bounds.tolist()), last, max_ranges)
    assert np.array_equal(state.ranges.bounds, bounds)
    return state


@st.composite
def bitmap_states(draw):
    """Bitmap states as the public constructor builds them: any bit
    pattern, the watermark anywhere inside the last block."""
    bits = draw(st.lists(st.booleans(), min_size=0, max_size=64))
    block_size = draw(st.integers(min_value=1, max_value=4096))
    last = 0
    if bits:
        last = draw(
            st.integers(
                min_value=(len(bits) - 1) * block_size + 1,
                max_value=len(bits) * block_size,
            )
        )
    first_rows = np.flatnonzero(bits).astype(np.int64) * block_size
    state = BitmapSliceState(first_rows, last, block_size)
    assert state.bits.tolist() == bits
    return state


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
    # The version-2 layout's reserved provenance fields: a live cache
    # writes "scan" and no digests, but any code decodes.
    provenance = draw(st.sampled_from(_PROVENANCES))
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
        assert a[digest] == b[digest], digest


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
            sid: RangeSliceState(rows((0, 4 + sid)), 10 + sid, 16)
            for sid in slice_ids
        },
    )


_SNAPSHOTTED = _colliding_record([0, 1])


def _golden_records():
    """Both variants, an empty state of each, a join key, provenance."""
    plain = ScanKey("t", "x < 5")
    joined = ScanKey(
        "lineitem",
        "l_quantity < 24",
        (SemiJoinDescriptor("o_orderkey = l_orderkey", "orders", "o_orderdate < 9200"),),
    )
    records = [
        EntryRecord(
            key=plain,
            digest=key_digest(plain),
            table_layout=3,
            num_slices=4,
            generation=2,
            hits=7,
            rows_qualifying=22,
            rows_considered=4000,
            states={
                0: RangeSliceState(rows((0, 10), (20, 32)), 40, 16),
                2: BitmapSliceState(rows((0, 5), (2100, 2450)), 2500, 1000),
            },
        ),
        EntryRecord(
            key=joined,
            digest=key_digest(joined),
            table_layout=0,
            num_slices=2,
            generation=0,
            build_versions={"orders": 5},
            provenance="composed",
            source_digests=(key_digest(plain),),
            states={
                1: BitmapSliceState(rows(), 0, 64),
                0: RangeSliceState(rows(), 9, 4),
            },
        ),
    ]
    return {record.digest: record for record in records}


# ``encode_snapshot(_golden_records(), {"tables": {}})`` as commit 1110587
# wrote it: format v2, byte for byte.  Stores on disk hold these bytes.
_GOLDEN_SNAPSHOT_HEX = (
    "52505043534e41500200000000000000010000001c00000000000000fee499a9"
    "7b22656e7472696573223a20322c20227461626c6573223a207b7d7d02000000"
    "2401000000000000c6a9356b850000007b2270223a20226c5f7175616e746974"
    "79203c203234222c202273223a205b7b2262223a20226f7264657273222c2022"
    "66223a20226f5f6f7264657264617465203c2039323030222c20226a223a2022"
    "6f5f6f726465726b6579203d206c5f6f726465726b6579222c20226e223a205b"
    "5d7d5d2c202274223a20226c696e656974656d227db0743d8b6d1f0bf5000000"
    "0000000000020000000000000000000000000000000000000000000000000000"
    "00000000000000000001000000060000006f7264657273050000000000000002"
    "010000009a4ce5d4b0ab8d3f0200000000000000000000000900000000000000"
    "0400000000000000000000000000000001000000010000000000000000000000"
    "4000000000000000000000000000000002000000c700000000000000d0a32d40"
    "210000007b2270223a202278203c2035222c202273223a205b5d2c202274223a"
    "202274227d9a4ce5d4b0ab8d3f03000000000000000400000002000000000000"
    "0007000000000000001600000000000000a00f00000000000000000000000000"
    "0000020000000000000000000000280000000000000010000000000000000200"
    "00000000000000000000000000000a0000000000000014000000000000002000"
    "0000000000000200000001000000c409000000000000e8030000000000000300"
    "000000000000a0ff000000000000000000000069df2265"
)


class TestRoundTripProperties:
    @SETTINGS
    @given(state=st.one_of(range_states(), bitmap_states()), slice_id=st.integers(0, 2**20))
    def test_state_round_trip_is_the_same_value(self, state, slice_id):
        meta = _colliding_record([])
        payload = encode_state_event(meta, slice_id, state)
        op, decoded_meta, decoded_slice, decoded = decode_journal_payload(payload)
        assert (op, decoded_slice) == ("state", slice_id)
        assert decoded_meta == meta
        assert type(decoded) is type(state) and decoded == state
        assert decoded.nbytes == state.nbytes
        probe = state.last_cached_row + 1
        assert np.array_equal(decoded.rows(probe), state.rows(probe))

    def test_snapshot_bytes_match_the_parent_commits(self):
        assert FORMAT_VERSION == 2
        data = encode_snapshot(_golden_records(), {"tables": {}})
        assert data.hex() == _GOLDEN_SNAPSHOT_HEX
        decoded, _meta, issues = decode_snapshot(data)
        assert issues.clean
        assert_records_equal(decoded, _golden_records())

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
            assert replayed.states[sid] == state

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
            assert record == records[digest]
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
            assert record == records[digest]
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
                assert state == original.states[sid]

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
                assert state == original.states[sid]
        damage_seen = (
            result.truncated
            or result.corrupt_sections > 0
            or set(result.records) == set(records)
        )
        assert damage_seen
        assert recovery.recoveries == 1
        assert recovery.last_recovery_seconds >= 0.0
