"""The durable cache store: snapshot rotation, journaling, warm start.

A :class:`CacheStore` owns one directory holding two files:

* ``cache.snapshot`` — the last complete snapshot, rotated atomically
  (write to a temp file, ``os.replace``): readers always see either the
  old complete snapshot or the new one, never a half-written file.
* ``cache.journal`` — the append-only event log since that snapshot
  (or since an earlier one, when an append raced the snapshot's reads:
  see :meth:`CacheStore.snapshot`).  Install/extend events carry the
  full new slice state (idempotent replay); invalidate/evict events
  carry the entry digest plus the dropped slice ids.

``load`` = read snapshot + replay journal + **revalidate**: every
restored entry is checked against the bound catalog's current table
layout stamps (``layout_version``), slice counts, and build-side data
stamps (``data_version``); stale entries are dropped and counted,
never installed.  Stamps are never reused (:mod:`repro.storage.table`),
so no record of a dropped table revalidates against a table re-created
under its name.  Nothing here watches a table: a restored entry keeps
the stamp it was revalidated against, and the cache checks it when a
scan reads (DESIGN.md §5).  The whole read path is total — torn tails, bit flips, and truncation
degrade toward a cold cache without ever raising through ``load``.

Crash injection: an attached :class:`~repro.faults.FaultInjector`
decides every snapshot write and journal append by what is written
(``"snapshot"``, or a record's entry digest and slice ids), never by
write order.  An injected *error* models a crash mid-write: the
snapshot write leaves only a partial temp file (the previous snapshot
survives), a journal append a torn record that wedges the journal (the
process "crashed" — later appends are dropped until the next snapshot
resets the log).  An injected *corruption* flips one bit, which the
CRCs catch at load time.

Compaction: once the journal outgrows the snapshot by
:data:`COMPACT_FACTOR` (and :data:`MIN_COMPACT_BYTES`), the store folds
the journal into a fresh snapshot and truncates the log.

Handle ownership: the store keeps **one** open append handle on the
journal (flushed after every record, so the file always holds whole
records) and its own byte counts of both files, so an append costs no
``open``/``close`` and no ``stat``.  The handle is opened by the first
append that needs it and released by whatever ends the file it points
into — a snapshot rotation (compaction included), a torn append — and
by :meth:`close`.  A process that reopens the directory with a fresh
store (a restart) closes, or at least stops appending through, the old
one first.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    BinaryIO,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Optional,
    Tuple,
)

from .. import invariants as _inv
from ..core.entry import CacheEntry, SliceState
from ..core.keys import ScanKey
from ..obs import lockwitness
from ..storage.table import INCARNATION
from .format import (
    DecodeIssues,
    decode_snapshot,
    encode_drop_event,
    encode_snapshot,
    encode_state_event,
    frame_record,
    replay_journal,
)
from .records import EntryRecord, collect_records, key_digest

__all__ = ["CacheStore", "LoadResult"]

#: Journal-to-snapshot size ratio that triggers compaction.
COMPACT_FACTOR = 2.0
#: Journal size below which compaction never triggers (avoids thrashing
#: on tiny caches).
MIN_COMPACT_BYTES = 64 * 1024


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@dataclass
class LoadResult:
    """Outcome of one recovery (snapshot + journal replay + revalidate)."""

    records: Dict[int, EntryRecord] = field(default_factory=dict)
    snapshot_entries: int = 0
    journal_records: int = 0
    stale_dropped: int = 0
    corrupt_sections: int = 0
    truncated: bool = False
    unsupported_version: bool = False
    seconds: float = 0.0


class CacheStore:
    """Durable snapshot + journal persistence for predicate caches."""

    SNAPSHOT_NAME = "cache.snapshot"
    JOURNAL_NAME = "cache.journal"

    def __init__(
        self,
        directory,
        catalog=None,
        injector=None,
        fsync: bool = False,
    ) -> None:
        """Args:
            directory: where the snapshot and journal live (created).
            catalog: the :class:`~repro.storage.Database` to revalidate
                restored entries against.  Without one, ``load`` skips
                revalidation (round-trip tests over synthetic entries).
            injector: optional :class:`~repro.faults.FaultInjector`
                consulted before every write (crash points).
            fsync: fsync snapshot temp files before rotation (off by
                default; the reproduction's crash model is process-level).
        """
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.catalog = catalog
        self.injector = injector
        self.fsync = bool(fsync)
        self._snapshot_path = os.path.join(self.directory, self.SNAPSHOT_NAME)
        self._journal_path = os.path.join(self.directory, self.JOURNAL_NAME)
        # A torn journal append models a crash: the store is wedged
        # (appends dropped) until a snapshot resets the log, the way a
        # crashed process would not keep writing after its torn record.
        self._wedged = False
        # One store is shared by every cluster node's cache; this lock
        # serializes snapshot rotation, journal appends, and recovery
        # reads so concurrent write-throughs never interleave frames.
        # Re-entrant because an append can trigger compaction, which
        # snapshots, and because a cache drains a run of events under
        # it (:attr:`io_lock`).  No cache lock is ever held while this
        # one is taken, and the store never calls into a cache while
        # holding it — the two locks do not nest in either direction.
        self._io_lock = lockwitness.named_rlock("CacheStore._io_lock")
        # The one append handle (None until an append needs it) and the
        # store's own byte counts of the two files.
        self._journal: Optional[BinaryIO] = None
        self._journal_size = _file_size(self._journal_path)
        self._snapshot_size = _file_size(self._snapshot_path)
        # Monotonic counters (scrape-time metrics read these directly).
        self.snapshots_written = 0
        self.journal_records = 0
        self.journal_dropped = 0
        self.torn_writes = 0
        self.corrupt_writes = 0
        self.warm_restores = 0
        self.stale_dropped = 0
        self.corrupt_sections = 0
        self.recoveries = 0
        self.journal_replayed = 0
        self.recovery_seconds = 0.0
        self.last_recovery_seconds = 0.0
        self.compactions = 0

    # -- introspection ---------------------------------------------------------

    @property
    def snapshot_bytes(self) -> int:
        """Size of the snapshot file, as this store last wrote or saw it."""
        return self._snapshot_size

    @property
    def journal_bytes(self) -> int:
        """Size of the journal file, as this store last wrote or saw it."""
        return self._journal_size

    @property
    def io_lock(self) -> ContextManager:
        """The I/O lock, for a writer appending a run of events.

        A cache drains its captured events under it so that taking an
        event off its queue and appending it is one step: two threads
        draining the same cache cannot swap two records, and an emptied
        queue means every event is in the journal (or was dropped).
        """
        return self._io_lock

    def close(self) -> None:
        """Release the append handle.  Idempotent; every record was
        flushed when it was appended, and a later append reopens it.
        Required only before a second store appends to the directory: a
        store that is simply dropped closes its handle with itself and
        loses nothing."""
        with self._io_lock:
            self._release_journal()

    # -- fault hooks -----------------------------------------------------------

    def _draw(self, site: object, data: bytes) -> Tuple[bytes, bool]:
        """The bytes the next write of ``site`` leaves — a strict prefix
        if an injected crash tore it (then True), one bit flipped if it
        is corrupted.  Caller holds ``_io_lock`` (shared counters)."""
        if self.injector is None or not self.injector.can_fault:
            return data, False
        decision, stream = self.injector.decide(
            site, self.injector.next_ordinal(site)
        )
        if decision.fail:
            self.torn_writes += 1
            return data[: stream.randrange(1, len(data))], True
        if decision.corrupt:
            self.corrupt_writes += 1
            damaged = bytearray(data)
            damaged[stream.randrange(len(damaged))] ^= 1 << stream.randrange(8)
            return bytes(damaged), False
        return data, False

    # -- snapshot --------------------------------------------------------------

    def snapshot(self, caches) -> bool:
        """Serialize the live cache(s) — a ``PredicateCache``, a
        ``ClusterCaches`` router, or a plain list of caches — into a
        fresh snapshot and reset the journal (kept when an append raced
        the reads, see below).  Returns False if an injected crash tore
        the write (the previous snapshot and journal survive
        untouched)."""
        if not isinstance(caches, (list, tuple)):
            caches = caches.nodes()
        appended = self.journal_records
        records = collect_records(caches)
        with self._io_lock:
            # The states were read with no lock held, so an append that
            # landed meanwhile may carry a newer state than the one read.
            # Such a rotation keeps the journal: replay is last-writer-
            # wins, so it ends on the newest appended state.  A wedged
            # journal ends in a torn record and is reset as always.
            raced = self.journal_records != appended and not self._wedged
            return self._write_snapshot_locked(records, keep_journal=raced)

    def snapshot_records(self, records: Dict[int, EntryRecord]) -> bool:
        """Write ``records`` as the new snapshot and reset the journal;
        False if an injected crash tore the write."""
        with self._io_lock:
            return self._write_snapshot_locked(records)

    def _write_snapshot_locked(
        self, records: Dict[int, EntryRecord], keep_journal: bool = False
    ) -> bool:
        """Caller holds ``_io_lock``."""
        data = encode_snapshot(records, self._catalog_meta())
        if _inv.ACTIVE:
            # Round-trip self-check on the pristine bytes, before any
            # injected fault gets a chance to touch them.
            _inv.check_snapshot_roundtrip(records, data)
        temp_path = self._snapshot_path + ".tmp"
        data, torn = self._draw("snapshot", data)
        with open(temp_path, "wb") as handle:
            handle.write(data)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if torn:
            # Crash mid-write: the partial temp file is never renamed —
            # recovery still sees the old snapshot.
            return False
        os.replace(temp_path, self._snapshot_path)
        self._snapshot_size = len(data)
        if not keep_journal:
            self._release_journal()
            with open(self._journal_path, "wb"):
                pass
            self._journal_size = 0
            self._wedged = False
        self.snapshots_written += 1
        return True

    def _catalog_meta(self) -> dict:
        if self.catalog is None:
            return {}
        return {
            "tables": {
                name: {
                    "layout": table.layout_version,
                    "data": table.data_version,
                    "slices": table.num_slices,
                }
                for name, table in self.catalog.tables.items()
            }
        }

    # -- journal (write-through event hooks) ----------------------------------

    @staticmethod
    def capture_state(
        entry: CacheEntry, slice_id: int, state: SliceState, table_layout: int
    ) -> Tuple[EntryRecord, int, SliceState]:
        """:meth:`log_state`'s arguments for one slice's state as of
        now: the entry's metadata copied into a record, and the state
        itself — an immutable value no later cache mutation changes.
        Takes no lock and touches no file — a cache calls it under its
        own lock and appends the result after releasing it."""
        return (
            EntryRecord.from_entry(entry, table_layout, with_states=False),
            slice_id,
            state,
        )

    def log_state(self, meta: EntryRecord, slice_id: int, state: SliceState) -> bool:
        """Journal an install/extend: entry metadata (a record taken
        ``with_states=False``) + the slice's new state."""
        return self._append(
            encode_state_event(meta, slice_id, state), (meta.digest, (slice_id,))
        )

    def log_drop(self, key: ScanKey, slice_ids: Iterable[int]) -> bool:
        """Journal an invalidate/evict of ``key``'s listed slice states."""
        slice_ids = tuple(slice_ids)
        if not slice_ids:
            return True
        digest = key_digest(key)
        return self._append(encode_drop_event(digest, slice_ids), (digest, slice_ids))

    def _append(self, payload: bytes, site: object = "journal") -> bool:
        """Append one record; ``site`` names it to the fault injector."""
        with self._io_lock:
            if self._wedged:
                self.journal_dropped += 1
                return False
            framed, torn = self._draw(site, frame_record(payload))
            journal = self._open_journal_locked()
            journal.write(framed)
            self._journal_size += len(framed)
            if torn:
                self._release_journal()
                self._wedged = True
                return False
            journal.flush()
            self.journal_records += 1
            self._maybe_compact()
            return True

    def _open_journal_locked(self) -> BinaryIO:
        """The append handle, opened if the last rotation, torn append
        or :meth:`close` released it.  Caller holds ``_io_lock``."""
        if self._journal is None:
            # Append mode starts at the end of the file: its position
            # is the size of whatever is already there.
            self._journal = open(self._journal_path, "ab")
            self._journal_size = self._journal.tell()
        return self._journal

    def _release_journal(self) -> None:
        """Caller holds ``_io_lock``."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- compaction ------------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Caller holds ``_io_lock``."""
        if self._journal_size <= MIN_COMPACT_BYTES:
            return
        if self._journal_size <= COMPACT_FACTOR * max(1, self._snapshot_size):
            return
        self.compact()

    def compact(self) -> bool:
        """Fold the journal into a fresh snapshot and truncate it.

        Replays the raw persisted state (no revalidation — compaction
        must not consult the live catalog, it only rewrites what the
        log already says).  A torn compaction write leaves snapshot and
        journal as they were.
        """
        # Hold the I/O lock across read-then-rewrite: an append landing
        # between the replay and the truncating snapshot would be lost.
        with self._io_lock:
            records, _issues, _replayed = self._read_state()
            if self.snapshot_records(records):
                self.compactions += 1
                return True
            return False

    # -- recovery --------------------------------------------------------------

    def _read_state(self) -> Tuple[Dict[int, EntryRecord], DecodeIssues, int]:
        """Snapshot + journal replay, damage-tolerant; never raises.
        Returns the records, the damage found, and the number of journal
        records replayed.

        Runs under ``_io_lock`` so a recovery never reads a snapshot
        mid-rotation or a journal mid-append.
        """
        with self._io_lock:
            issues = DecodeIssues()
            records: Dict[int, EntryRecord] = {}
            try:
                with open(self._snapshot_path, "rb") as handle:
                    snapshot_data = handle.read()
            except OSError:
                snapshot_data = b""
            try:
                records, _meta, issues = decode_snapshot(snapshot_data)
            except Exception:  # pragma: no cover - decode_snapshot is total
                issues.corrupt_sections += 1
            try:
                with open(self._journal_path, "rb") as handle:
                    journal_data = handle.read()
            except OSError:
                journal_data = b""
            replayed = replay_journal(records, journal_data, issues)
        return records, issues, replayed

    def load(self, revalidate: bool = True) -> LoadResult:
        """Recover the persisted cache state.

        Reads the snapshot, replays the journal tail, and (with a bound
        catalog) revalidates every record against current table layout
        versions and build-side data versions.  Stale and damaged
        records are dropped and counted; the method never raises.
        """
        start = time.perf_counter()
        records, issues, replayed = self._read_state()
        result = LoadResult(
            records=records,
            snapshot_entries=len(records),
            journal_records=replayed,
            corrupt_sections=issues.corrupt_sections + (1 if issues.truncated else 0),
            truncated=issues.truncated,
            unsupported_version=issues.unsupported_version,
        )
        if revalidate and self.catalog is not None:
            result.stale_dropped = self._revalidate(records)
        result.seconds = time.perf_counter() - start
        # Recovery counters are read by other threads (metric scrapes,
        # concurrent failover hydrations) — update them under the
        # I/O lock (re-entrant, so the nested _read_state acquire above
        # already released it).
        with self._io_lock:
            self.recoveries += 1
            self.journal_replayed += result.journal_records
            self.recovery_seconds += result.seconds
            self.last_recovery_seconds = result.seconds
            self.stale_dropped += result.stale_dropped
            self.corrupt_sections += result.corrupt_sections
        return result

    def _revalidate(self, records: Dict[int, EntryRecord]) -> int:
        """Drop records the current catalog says are stale; return count.

        Validity rules (DESIGN.md §9): a record stamped with an
        incarnation must carry this process's (another process's stamps
        name nothing here); the scanned table must still exist with the
        same slice count and the same layout stamp (``layout_version``);
        every build-side table must still be at the recorded
        ``data_version`` stamp; each state's watermark must not exceed
        its slice's current row count.
        """
        dropped = 0
        for digest in list(records):
            record = records[digest]
            table = self.catalog.tables.get(record.key.table)
            valid = (
                record.generation in (0, INCARNATION)
                and table is not None
                and record.table_layout == table.layout_version
                and record.num_slices == table.num_slices
            )
            if valid:
                for build_table, version in record.build_versions.items():
                    build = self.catalog.tables.get(build_table)
                    if build is None or build.data_version != version:
                        valid = False
                        break
            if not valid:
                del records[digest]
                dropped += 1
                continue
            bad_states = [
                slice_id
                for slice_id, state in record.states.items()
                if slice_id >= table.num_slices
                or state.last_cached_row > table.slices[slice_id].num_rows
            ]
            for slice_id in bad_states:
                del record.states[slice_id]
                dropped += 1
            if not record.states:
                del records[digest]
        return dropped

    # -- warm start ------------------------------------------------------------

    def hydrate(
        self,
        cache,
        owned: Optional[Callable[[int], bool]] = None,
    ) -> int:
        """Install the persisted (revalidated) entries into ``cache``.

        ``owned`` filters slice ids for cluster nodes (a node restores
        only its own slices' states).  Each restored entry brings the
        layout stamp it was revalidated against; a vacuum between
        hydration and the first scan leaves them stale, and the first
        scan checks the stamp (:meth:`PredicateCache.check_layout`).
        Returns the number of entries restored.

        The installs run with no store lock held (only the underlying
        :meth:`load` takes ``_io_lock``): an install that evicts in a
        cache already writing through journals the drop like any other
        mutation, after the cache's lock is released.
        """
        result = self.load()
        restored = 0
        unreadable = 0
        for record in result.records.values():
            try:
                installed = record.install_into(cache, owned)
            except Exception:
                unreadable += 1
                continue
            restored += installed
        # Read by other threads while failover hydrations run:
        # published in one lock round, like load's.
        with self._io_lock:
            self.warm_restores += restored
            self.corrupt_sections += unreadable
        return restored

    def attach(self, cache, owned: Optional[Callable[[int], bool]] = None) -> int:
        """Hydrate ``cache`` from the store, then enable write-through."""
        restored = self.hydrate(cache, owned)
        cache.attach_store(self)
        return restored

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "repro_persist") -> None:
        """Expose the store on a :class:`~repro.obs.MetricsRegistry`."""
        for name, help_text in (
            ("journal_records", "Journal events appended"),
            ("journal_dropped", "Journal events dropped while wedged"),
            ("torn_writes", "Writes torn by injected crashes"),
            ("corrupt_writes", "Writes bit-flipped by injected corruption"),
            ("warm_restores", "Entries restored into caches at warm start"),
            ("stale_dropped", "Restored entries/states dropped as stale"),
            ("corrupt_sections", "Sections/records dropped by checksum or framing"),
            ("snapshots_written", "Complete snapshots rotated in"),
            ("compactions", "Journal compactions folded into snapshots"),
            ("recoveries", "Load (recovery) operations"),
            ("journal_replayed", "Journal events replayed during recoveries"),
            ("recovery_seconds", "Wall-clock seconds spent in recovery"),
        ):
            registry.counter(
                f"{prefix}_{name}_total",
                f"Cache store: {help_text}",
                fn=lambda s=self, n=name: getattr(s, n),
            )
        registry.gauge(
            f"{prefix}_snapshot_bytes",
            "Current snapshot file size",
            fn=lambda: self.snapshot_bytes,
        )
        registry.gauge(
            f"{prefix}_journal_bytes",
            "Current journal file size",
            fn=lambda: self.journal_bytes,
        )
        registry.gauge(
            f"{prefix}_last_recovery_seconds",
            "Duration of the most recent recovery",
            fn=lambda: self.last_recovery_seconds,
        )
