"""In-memory transfer records between live caches and the on-disk store.

A slice's state travels as itself: a
:class:`~repro.core.entry.SliceState` is an immutable value, so the
journal capture, the snapshot, a re-shard and the decoder all hold (or
build) the very object a cache serves from — nothing is copied and
nothing is rebuilt on the way in, which is what makes a snapshot → load
round trip bit-identical.  What the persistence layer adds is one plain
record per entry:

* :class:`EntryRecord` — one cache entry's metadata (key, per-table
  vacuum epoch, build-side DML versions, scan stats) plus its slice
  states.  Records are keyed by the stable FNV-1a digest of the
  canonical key string, which the journal uses to reference entries
  compactly and the decoder re-derives to detect key drift.

``collect_records`` merges entries across cluster nodes (each node holds
only its owned slices' states of an entry) into one record per key —
the shape a snapshot stores and a re-shard redistributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from ..core.entry import CacheEntry, SliceState
from ..core.keys import ScanKey, SemiJoinDescriptor
from ..storage.table import INCARNATION

__all__ = [
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


@dataclass
class EntryRecord:
    """One cache entry in transfer form (metadata + slice states).

    ``table_layout`` is the scanned table's ``layout_version`` stamp
    the cache held when the states were recorded — the load-time
    validity anchor: a mismatch means row numbering changed and the
    states describe rows that no longer exist.  ``build_versions`` are
    the build-side tables' ``data_version`` stamps with the same role
    for join-index entries (§4.4 invalidation across restarts).

    ``generation`` is the :data:`~repro.storage.table.INCARNATION` of
    the process whose stamps these are: a live record carries its own
    process's, and a load drops a record of another (0, written before
    incarnations, keeps the stamp rule alone).  ``provenance`` and
    ``source_digests`` are reserved fields of the version-2 layout
    (:mod:`repro.persist.format`): a live cache writes them as
    ``"scan"`` and ``()``, and nothing reads what a decode finds there.
    """

    key: ScanKey
    digest: int
    table_layout: int
    num_slices: int
    generation: int = 0
    build_versions: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    rows_qualifying: int = 0
    rows_considered: int = 0
    provenance: str = "scan"
    source_digests: Tuple[int, ...] = ()
    states: Dict[int, SliceState] = field(default_factory=dict)

    @classmethod
    def from_entry(
        cls, entry: CacheEntry, table_layout: int, with_states: bool = True
    ) -> "EntryRecord":
        states: Dict[int, SliceState] = {}
        if with_states:
            states = {
                slice_id: state
                for slice_id, state in enumerate(entry.slice_states)
                if state is not None
            }
        return cls(
            key=entry.key,
            digest=key_digest(entry.key),
            table_layout=int(table_layout),
            num_slices=len(entry.slice_states),
            generation=INCARNATION,
            build_versions=dict(entry.build_versions),
            hits=int(entry.hits),
            rows_qualifying=int(entry.rows_qualifying),
            rows_considered=int(entry.rows_considered),
            states=states,
        )

    def install_into(
        self, cache, owned: Optional[Callable[[int], bool]] = None
    ) -> bool:
        """Install this record's states into ``cache`` (the inverse of
        :meth:`from_entry`), keeping only slices ``owned`` accepts.

        Returns False when no owned slice has state.  The states are
        installed as they are; one that breaks its invariants makes
        ``install_restored`` raise before the cache is touched.
        """
        states = {
            slice_id: state
            for slice_id, state in self.states.items()
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
