"""The durable cache store: snapshot rotation, journaling, warm start.

A :class:`CacheStore` owns one directory holding two files:

* ``cache.snapshot`` — the last complete snapshot, rotated atomically
  (write to a temp file, ``os.replace``): readers always see either the
  old complete snapshot or the new one, never a half-written file.
* ``cache.journal`` — the append-only event log since that snapshot.
  Install/extend events carry the full new slice state (idempotent
  replay); invalidate/evict events carry the entry digest plus the
  dropped slice ids.

``load`` = read snapshot + replay journal + **revalidate**: every
restored entry is checked against the bound catalog's current table
vacuum epochs (``layout_version``), slice counts, and build-side DML
versions; stale entries are dropped and counted, never installed.  The
whole read path is total — torn tails, bit flips, and truncation
degrade toward a cold cache without ever raising through ``load``.

Crash injection: an attached :class:`~repro.faults.FaultInjector` is
consulted before every snapshot write and journal append.  An injected
*error* models a crash mid-write: the snapshot write leaves only a
partial temp file (the previous snapshot survives), a journal append
leaves a torn record and wedges the journal (the process "crashed" —
later appends are dropped until the next snapshot resets the log).  An
injected *corruption* flips one bit in the written bytes, which the
CRCs catch at load time.

Compaction: once the journal outgrows the snapshot by
``compact_factor`` (and ``min_compact_bytes``), the store folds the
journal into a fresh snapshot and truncates the log.

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
        tracer=None,
        compact_factor: float = 2.0,
        min_compact_bytes: int = 64 * 1024,
        fsync: bool = False,
    ) -> None:
        """Args:
            directory: where the snapshot and journal live (created).
            catalog: the :class:`~repro.storage.Database` to revalidate
                restored entries against.  Without one, ``load`` skips
                revalidation (round-trip tests over synthetic entries).
            injector: optional :class:`~repro.faults.FaultInjector`
                consulted before every write (crash points).
            tracer: optional :class:`~repro.obs.Tracer` for persistence
                spans (``persist.snapshot`` / ``persist.load``).
            compact_factor: journal-to-snapshot size ratio that triggers
                compaction.
            min_compact_bytes: journal size below which compaction never
                triggers (avoids thrashing on tiny caches).
            fsync: fsync snapshot temp files before rotation (off by
                default; the reproduction's crash model is process-level).
        """
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.catalog = catalog
        self.injector = injector
        self.tracer = tracer
        self.compact_factor = float(compact_factor)
        self.min_compact_bytes = int(min_compact_bytes)
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
        self.injected_latency_seconds = 0.0

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

    def bind_catalog(self, catalog) -> None:
        self.catalog = catalog

    # -- fault hooks -----------------------------------------------------------

    def _draw(self):
        """Caller holds ``_io_lock`` (fault counters are shared state)."""
        if self.injector is None or not self.injector.can_fault:
            return None
        decision = self.injector.draw()
        if decision.latency_seconds:
            self.injected_latency_seconds += decision.latency_seconds
        return decision

    def _flip_bit(self, data: bytes) -> bytes:
        corrupted = bytearray(data)
        index = min(int(self.injector.uniform() * len(corrupted)), len(corrupted) - 1)
        corrupted[index] ^= 1 << int(self.injector.uniform() * 8)
        return bytes(corrupted)

    # -- snapshot --------------------------------------------------------------

    def snapshot(self, caches) -> bool:
        """Serialize the live cache(s) — a ``PredicateCache``, a
        ``ClusterCaches`` router, or a plain list of caches — into a
        fresh snapshot and reset the journal.  Returns False if an
        injected crash tore the write (the previous snapshot and journal
        survive untouched)."""
        if not isinstance(caches, (list, tuple)):
            caches = caches.nodes()
        return self.snapshot_records(collect_records(caches))

    def snapshot_records(self, records: Dict[int, EntryRecord]) -> bool:
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("persist.snapshot", entries=len(records))
        ok = self._write_snapshot(records)
        if span is not None:
            span.set("ok", ok)
            span.set("snapshot_bytes", self.snapshot_bytes)
            self.tracer.end(span)
        return ok

    def _write_snapshot(self, records: Dict[int, EntryRecord]) -> bool:
        with self._io_lock:
            return self._write_snapshot_locked(records)

    def _write_snapshot_locked(self, records: Dict[int, EntryRecord]) -> bool:
        """Caller holds ``_io_lock``."""
        data = encode_snapshot(records, self._catalog_meta())
        if _inv.ACTIVE:
            # Round-trip self-check on the pristine bytes, before any
            # injected fault gets a chance to touch them.
            _inv.check_snapshot_roundtrip(records, data)
        temp_path = self._snapshot_path + ".tmp"
        decision = self._draw()
        if decision is not None and decision.fail:
            # Crash mid-write: a partial temp file is left behind and
            # never renamed — recovery still sees the old snapshot.
            cut = 1 + int(self.injector.uniform() * (len(data) - 1))
            with open(temp_path, "wb") as handle:
                handle.write(data[:cut])
            self.torn_writes += 1
            return False
        if decision is not None and decision.corrupt:
            data = self._flip_bit(data)
            self.corrupt_writes += 1
        with open(temp_path, "wb") as handle:
            handle.write(data)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, self._snapshot_path)
        self._release_journal()
        with open(self._journal_path, "wb"):
            pass
        self._snapshot_size = len(data)
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
        return self._append(encode_state_event(meta, slice_id, state))

    def log_drop(self, key: ScanKey, slice_ids: Iterable[int]) -> bool:
        """Journal an invalidate/evict of ``key``'s listed slice states."""
        slice_ids = list(slice_ids)
        if not slice_ids:
            return True
        return self._append(encode_drop_event(key_digest(key), slice_ids))

    def _append(self, payload: bytes) -> bool:
        with self._io_lock:
            if self._wedged:
                self.journal_dropped += 1
                return False
            framed = frame_record(payload)
            decision = self._draw()
            journal = self._open_journal_locked()
            if decision is not None and decision.fail:
                cut = 1 + int(self.injector.uniform() * (len(framed) - 1))
                journal.write(framed[:cut])
                self._journal_size += cut
                self._release_journal()
                self.torn_writes += 1
                self._wedged = True
                return False
            if decision is not None and decision.corrupt:
                framed = self._flip_bit(framed)
                self.corrupt_writes += 1
            journal.write(framed)
            journal.flush()
            self._journal_size += len(framed)
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
        if self._journal_size <= self.min_compact_bytes:
            return
        if self._journal_size <= self.compact_factor * max(1, self._snapshot_size):
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
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("persist.load")
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
        # Recovery counters are read by the health monitor thread while
        # failover hydrations run on workers — update them under the
        # I/O lock (re-entrant, so the nested _read_state acquire above
        # already released it).
        with self._io_lock:
            self.recoveries += 1
            self.journal_replayed += result.journal_records
            self.recovery_seconds += result.seconds
            self.last_recovery_seconds = result.seconds
            self.stale_dropped += result.stale_dropped
            self.corrupt_sections += result.corrupt_sections
        if span is not None:
            span.set("entries", len(records))
            span.set("journal_records", result.journal_records)
            span.set("stale_dropped", result.stale_dropped)
            span.set("corrupt_sections", result.corrupt_sections)
            self.tracer.end(span)
        return result

    def _revalidate(self, records: Dict[int, EntryRecord]) -> int:
        """Drop records the current catalog says are stale; return count.

        Validity rules (DESIGN.md §9): the scanned table must still
        exist with the same slice count and the same vacuum epoch
        (``layout_version``); every build-side table must still be at
        the recorded ``data_version``; each state's watermark must not
        exceed its slice's current row count.
        """
        dropped = 0
        for digest in list(records):
            record = records[digest]
            table = self.catalog.tables.get(record.key.table)
            valid = (
                table is not None
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
        only its own slices' states).  Restored tables are watched
        immediately, so a vacuum between hydration and the first scan
        still invalidates — there is no unwatched window.  Returns the
        number of entries restored.

        The installs run with no store lock held (only the underlying
        :meth:`load` takes ``_io_lock``): an install that evicts in a
        cache already writing through journals the drop like any other
        mutation, after the cache's lock is released.
        """
        result = self.load()
        restored = 0
        unreadable = 0
        tables = set()
        for record in result.records.values():
            try:
                installed = record.install_into(cache, owned)
            except Exception:
                unreadable += 1
                continue
            if not installed:
                continue
            tables.add(record.key.table)
            restored += 1
        # Read by the health monitor thread while failover hydrations
        # run on workers: published in one lock round, like load's.
        with self._io_lock:
            self.warm_restores += restored
            self.corrupt_sections += unreadable
        if self.catalog is not None:
            for name in tables:
                table = self.catalog.tables.get(name)
                if table is not None:
                    cache.watch_table(table)
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
            ("injected_latency_seconds", "Model-time latency injected on writes"),
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
