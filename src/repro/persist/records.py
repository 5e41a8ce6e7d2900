"""In-memory transfer records between live caches and the on-disk store.

The persistence layer never serializes live :class:`CacheEntry` /
:class:`SliceState` objects directly.  Everything funnels through two
plain records:

* :class:`StateRecord` — one slice's qualifying-row state, reduced to
  raw arrays: an ``(N, 2)`` int64 bounds array for the range variant, a
  bool bit vector for the bitmap variant.  Both reconstruct the exact
  live object (``to_state``) without re-running builder logic, so a
  snapshot → load round trip is bit-identical.
* :class:`EntryRecord` — one cache entry's metadata (key, generation,
  per-table vacuum epoch, build-side DML versions, scan stats) plus its
  slice states.  Records are keyed by the stable FNV-1a digest of the
  canonical key string, which the journal uses to reference entries
  compactly and the decoder re-derives to detect key drift.

``collect_records`` merges entries across cluster nodes (each node holds
only its owned slices' states of an entry) into one record per key —
the shape a snapshot stores and a re-shard redistributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..core.entry import BitmapSliceState, CacheEntry, RangeSliceState, SliceState
from ..core.keys import ScanKey, SemiJoinDescriptor
from ..core.rowrange import RangeList

__all__ = [
    "StateRecord",
    "EntryRecord",
    "key_digest",
    "key_to_obj",
    "key_from_obj",
    "collect_records",
]


def key_digest(key: ScanKey) -> int:
    """Stable 64-bit digest of a scan key (FNV-1a over the canonical
    string), memoised on the key object."""
    return key.digest


def key_to_obj(key: ScanKey) -> dict:
    """JSON-serializable structural form of a scan key."""
    return {
        "t": key.table,
        "p": key.predicate_key,
        "s": [_semijoin_to_obj(sj) for sj in key.semijoins],
    }


def _semijoin_to_obj(sj: SemiJoinDescriptor) -> dict:
    return {
        "j": sj.join_predicate,
        "b": sj.build_table,
        "f": sj.build_predicate_key,
        "n": [_semijoin_to_obj(nested) for nested in sj.build_semijoins],
    }


def key_from_obj(obj: Mapping) -> ScanKey:
    return ScanKey(
        str(obj["t"]),
        str(obj["p"]),
        tuple(_semijoin_from_obj(s) for s in obj.get("s", ())),
    )


def _semijoin_from_obj(obj: Mapping) -> SemiJoinDescriptor:
    return SemiJoinDescriptor(
        str(obj["j"]),
        str(obj["b"]),
        str(obj["f"]),
        tuple(_semijoin_from_obj(n) for n in obj.get("n", ())),
    )


KIND_RANGE = 0
KIND_BITMAP = 1


@dataclass
class StateRecord:
    """One slice's state reduced to raw arrays.

    ``param`` is ``max_ranges`` for the range variant and ``block_size``
    for the bitmap variant; ``data`` is the ``(N, 2)`` int64 bounds
    array or the bool bit vector respectively.
    """

    kind: int
    last_cached_row: int
    param: int
    data: np.ndarray

    @classmethod
    def from_state(cls, state: SliceState) -> "StateRecord":
        """The state as of now.  The range variant's bounds array is
        shared, not copied — range lists are immutable, ``extend``
        publishes a new one."""
        if isinstance(state, RangeSliceState):
            return cls(
                KIND_RANGE,
                int(state.last_cached_row),
                int(state.max_ranges),
                np.asarray(state.ranges.bounds, dtype=np.int64),
            )
        if isinstance(state, BitmapSliceState):
            return cls(
                KIND_BITMAP,
                int(state.last_cached_row),
                int(state.block_size),
                # A copy: ``_set_bits`` writes the live vector in place,
                # and a record may outlive the lock it was taken under.
                np.array(state.bits, dtype=bool),
            )
        raise TypeError(f"unknown slice-state type {type(state).__name__}")

    def to_state(self) -> SliceState:
        """Reconstruct the live state object, bit-identical to the
        original (no re-coalescing, no bit re-derivation)."""
        if self.kind == KIND_RANGE:
            state = RangeSliceState.__new__(RangeSliceState)
            state.max_ranges = int(self.param)
            # from_bounds re-validates: corrupt bounds that slipped past
            # the CRC (or a hand-edited file) raise here and the loader
            # drops the entry instead of installing garbage.
            state.ranges = RangeList.from_bounds(self.data)
            state.last_cached_row = int(self.last_cached_row)
            return state
        if self.kind == KIND_BITMAP:
            if self.param < 1:
                raise ValueError("bitmap block_size must be >= 1")
            state = BitmapSliceState.__new__(BitmapSliceState)
            state.block_size = int(self.param)
            state.bits = np.asarray(self.data, dtype=bool)
            state.last_cached_row = int(self.last_cached_row)
            return state
        raise ValueError(f"unknown state kind {self.kind}")

    def equals(self, other: "StateRecord") -> bool:
        return (
            self.kind == other.kind
            and self.last_cached_row == other.last_cached_row
            and self.param == other.param
            and np.array_equal(self.data, other.data)
        )


@dataclass
class EntryRecord:
    """One cache entry in transfer form (metadata + slice states).

    ``table_layout`` is the scanned table's ``layout_version`` (vacuum
    epoch) observed when the states were recorded — the load-time
    validity anchor: a mismatch means row numbering changed and the
    states describe rows that no longer exist.  ``build_versions`` are
    the build-side tables' ``data_version`` stamps with the same role
    for join-index entries (§4.4 invalidation across restarts).
    """

    key: ScanKey
    digest: int
    table_layout: int
    num_slices: int
    generation: int
    build_versions: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    rows_qualifying: int = 0
    rows_considered: int = 0
    provenance: str = "scan"
    source_digests: Tuple[int, ...] = ()
    states: Dict[int, StateRecord] = field(default_factory=dict)

    @classmethod
    def from_entry(
        cls, entry: CacheEntry, table_layout: int, with_states: bool = True
    ) -> "EntryRecord":
        states: Dict[int, StateRecord] = {}
        if with_states:
            states = {
                slice_id: StateRecord.from_state(state)
                for slice_id, state in enumerate(entry.slice_states)
                if state is not None
            }
        return cls(
            key=entry.key,
            digest=key_digest(entry.key),
            table_layout=int(table_layout),
            num_slices=len(entry.slice_states),
            generation=int(entry.generation),
            build_versions=dict(entry.build_versions),
            hits=int(entry.hits),
            rows_qualifying=int(entry.rows_qualifying),
            rows_considered=int(entry.rows_considered),
            provenance=entry.provenance,
            source_digests=tuple(entry.source_digests),
            states=states,
        )

    def install_into(
        self, cache, owned: Optional[Callable[[int], bool]] = None
    ) -> bool:
        """Install this record's states into ``cache`` (the inverse of
        :meth:`from_entry`), keeping only slices ``owned`` accepts.

        Returns False when no owned slice has state.  A state that does
        not reconstruct (``to_state`` raises) propagates to the caller
        before the cache is touched.
        """
        states = {
            slice_id: state_record.to_state()
            for slice_id, state_record in self.states.items()
            if owned is None or owned(slice_id)
        }
        if not states:
            return False
        cache.install_restored(
            self.key,
            self.num_slices,
            self.build_versions,
            states,
            stats=(self.hits, self.rows_qualifying, self.rows_considered),
            table_layout=self.table_layout,
            provenance=self.provenance,
            source_digests=self.source_digests,
        )
        return True

    def merge_meta(self, other: "EntryRecord") -> None:
        """Take ``other``'s metadata (journal replay: last writer wins)."""
        self.table_layout = other.table_layout
        self.num_slices = max(self.num_slices, other.num_slices)
        self.generation = other.generation
        self.build_versions = dict(other.build_versions)
        self.hits = other.hits
        self.rows_qualifying = other.rows_qualifying
        self.rows_considered = other.rows_considered
        self.provenance = other.provenance
        self.source_digests = tuple(other.source_digests)

    def equals(self, other: "EntryRecord") -> bool:
        """Bit-identical comparison (the round-trip property)."""
        return (
            self.key == other.key
            and self.digest == other.digest
            and self.table_layout == other.table_layout
            and self.num_slices == other.num_slices
            and self.generation == other.generation
            and self.build_versions == other.build_versions
            and self.hits == other.hits
            and self.rows_qualifying == other.rows_qualifying
            and self.rows_considered == other.rows_considered
            and self.provenance == other.provenance
            and self.source_digests == other.source_digests
            and set(self.states) == set(other.states)
            and all(self.states[s].equals(other.states[s]) for s in self.states)
        )


def collect_records(caches: Iterable) -> Dict[int, EntryRecord]:
    """Merge live cache entries (one cache per cluster node) into one
    record per distinct key, union-ing per-slice states.

    Nodes hold disjoint slice shares of each entry, so the union never
    conflicts; entry metadata comes from whichever node saw the entry
    last (they agree up to per-node hit counters, which are summed).
    """
    records: Dict[int, EntryRecord] = {}
    for cache in caches:
        for entry in cache.entries():
            record = EntryRecord.from_entry(
                entry, cache.table_layout_of(entry.key.table)
            )
            if not record.states:
                continue
            existing = records.get(record.digest)
            if existing is None:
                records[record.digest] = record
            else:
                hits = existing.hits + record.hits
                qualifying = existing.rows_qualifying + record.rows_qualifying
                considered = existing.rows_considered + record.rows_considered
                existing.merge_meta(record)
                existing.hits = hits
                existing.rows_qualifying = qualifying
                existing.rows_considered = considered
                existing.states.update(record.states)
    return records
