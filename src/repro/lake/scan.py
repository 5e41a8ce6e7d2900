"""Scanning lake tables through the predicate cache (§4.5).

The lake cache *is* the predicate cache under a different row address:
a lake table is one slice whose "rows" are row-group ordinals in commit
order (:attr:`LakeFile.first_ordinal`), and the scanner owns a plain
bitmap-variant :class:`~repro.core.cache.PredicateCache`, one bit per
row group.  The paper's three requirements hold by construction:

(a) a row group is uniquely addressed by its ordinal,
(b) ordinals never change and are never reused (files are immutable),
(c) commits are detectable — and invalidate nothing: a removed file's
    ordinals are never consulted again, and an appended file's ordinals
    lie above every entry's watermark, so a foreign append is literally
    the uncached tail of §4.3.1 (scanned in full once, then folded in).

Chunk reads go through a scanner-owned capacity-0
:class:`~repro.storage.rms.ManagedStorage` (object-store reads are never
served locally): lake reads are billed in ``StorageStats`` like native
block reads and, under a :class:`~repro.faults.FaultInjector`, verified,
retried and given up on by the same loop.  A read that loop gives up on
raises out of :meth:`LakeScanner.scan` exactly as a native block read
raises out of a native scan; the cached entry stays, because the
storage failed, not the cached bits.  The storage only counts: values
come from the file's :class:`~repro.storage.column.DecodedBlocks`, by
the sequence a column reads with — fill the group's rows, read the
chunks, take the rows — so a chunk decodes once per file, however often
it is read (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import invariants as _inv
from ..core.cache import PredicateCache
from ..core.config import PredicateCacheConfig
from ..core.keys import ScanKey
from ..faults import FaultInjector, RetryPolicy
from ..predicates.ast import Predicate
from ..storage.compression import array_checksum
from ..storage.rms import ManagedStorage, QueryStorageContext
from .format import LakeFile, RowGroup
from .table import LakeSnapshot, LakeTable

__all__ = ["LakeScanner", "LakeScanStats"]


@dataclass
class LakeScanStats:
    """Counters of one lake scan."""

    files_visited: int = 0
    row_groups_total: int = 0
    row_groups_read: int = 0
    row_groups_skipped_cache: int = 0
    row_groups_skipped_stats: int = 0
    rows_scanned: int = 0
    rows_qualifying: int = 0
    cache_hit: bool = False
    # Read off the scan's StorageStats sink (faults: zero unless injected).
    chunk_bytes_read: int = 0
    transient_errors: int = 0
    corrupt_chunks: int = 0
    retries: int = 0
    backoff_model_seconds: float = 0.0


@dataclass
class _ScanRun:
    """Working state of one :meth:`LakeScanner.scan` call."""

    key: ScanKey
    predicate: Predicate
    predicate_columns: List[str]
    stats: LakeScanStats
    pieces: Dict[str, List[np.ndarray]]
    # The scan's reader of the scanner's storage: its sink and retry budget.
    reader: QueryStorageContext
    # A hit's candidate ordinals (cached qualifying groups plus the
    # uncached tail) and the watermark they were cached up to.
    candidates: Optional[np.ndarray] = None
    watermark: int = 0
    # Ordinals of the row groups found qualifying: the scan's install.
    qualifying: List[int] = field(default_factory=list)


class LakeScanner:
    """Scans one lake table, caching qualifying row groups per predicate."""

    def __init__(
        self,
        table: LakeTable,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.table = table
        self.cache = PredicateCache(
            PredicateCacheConfig(variant="bitmap", bitmap_block_rows=1)
        )
        self.storage = ManagedStorage(cache_capacity=0)
        self.storage.attach_faults(fault_injector, retry_policy)

    def attach_faults(
        self,
        injector: Optional[FaultInjector],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """Arm (or, with None, disarm) fault injection on chunk reads."""
        self.storage.attach_faults(injector, retry_policy)

    # -- scanning ----------------------------------------------------------------

    def scan(
        self,
        predicate: Predicate,
        columns: Sequence[str],
        snapshot: Optional[LakeSnapshot] = None,
    ) -> Tuple[Dict[str, np.ndarray], LakeScanStats]:
        """All rows of the (current) snapshot satisfying ``predicate``.

        Returns the requested columns of qualifying rows plus the scan
        counters.  The cache is only consulted and updated for scans of
        the *current* snapshot (time-travel reads bypass it: historic
        snapshots may predate cached state).
        """
        table = self.table
        current = snapshot is None or snapshot == table.current_snapshot
        files = table.files(snapshot)
        committed = table.groups_committed
        run = _ScanRun(
            key=ScanKey(table.name, predicate.cache_key()),
            predicate=predicate,
            predicate_columns=sorted(predicate.columns()),
            stats=LakeScanStats(),
            pieces={name: [] for name in columns},
            reader=self.storage.query_context(),
        )
        stats = run.stats
        if current:
            entry = self.cache.lookup(run.key)
            state = entry.slice_states[0] if entry is not None else None
            if state is not None:
                stats.cache_hit = True
                run.watermark = state.last_cached_row
                run.candidates = state.rows(committed)

        for file in files:
            self._scan_file(file, run)
        read = run.reader.stats
        stats.chunk_bytes_read = read.bytes_fetched
        stats.transient_errors = read.transient_errors
        stats.corrupt_chunks = read.corrupt_blocks
        stats.retries = read.retries
        stats.backoff_model_seconds = read.backoff_model_seconds

        if current:
            # The whole install: a first scan creates the state, a repeat
            # extends it over the ordinals committed since (§4.3.1).
            entry = self.cache.get_or_create(run.key, 1)
            qualifying = np.array(run.qualifying, dtype=np.int64)
            self.cache.record_slice_scan(entry, 0, qualifying, committed)

        out = {
            name: np.concatenate(parts) if parts else np.empty(0)
            for name, parts in run.pieces.items()
        }
        return out, stats

    def _scan_file(self, file: LakeFile, run: _ScanRun) -> None:
        """Count one file, then scan its candidate row groups."""
        stats = run.stats
        stats.files_visited += 1
        stats.row_groups_total += file.num_row_groups
        groups: Sequence[RowGroup] = file.row_groups
        first = file.first_ordinal
        # A file has cached bits iff it committed below the watermark;
        # later files are the uncached tail and are scanned in full.
        if run.candidates is not None and first < run.watermark:
            # Cache hit: jump straight to the candidate groups — the
            # entry's ordinals clipped to this file's window.
            lo, hi = np.searchsorted(run.candidates, (first, first + len(groups)))
            live = run.candidates[lo:hi]
            stats.row_groups_skipped_cache += len(groups) - len(live)
            groups = [groups[ordinal - first] for ordinal in live]
        for group in groups:
            if self._stats_prune(group, run):
                stats.row_groups_skipped_stats += 1
            elif self._scan_group(file, group, run):
                run.qualifying.append(first + group.index)

    def _stats_prune(self, group: RowGroup, run: _ScanRun) -> bool:
        for name in run.predicate_columns:
            bounds = run.predicate.bounds(name)
            if bounds is None or bounds.unbounded:
                continue
            chunk = group.chunks.get(name)
            if chunk is not None and not chunk.may_contain(bounds):
                return True
        return False

    def _scan_group(self, file: LakeFile, group: RowGroup, run: _ScanRun) -> bool:
        stats = run.stats
        stats.row_groups_read += 1
        stats.rows_scanned += group.num_rows
        batch = self._read_columns(file, group, run.predicate_columns, run)
        mask = run.predicate.evaluate(batch) if batch else np.ones(
            group.num_rows, dtype=bool
        )
        count = int(np.count_nonzero(mask))
        stats.rows_qualifying += count
        if count == 0:
            return False
        # Output columns the predicate already decoded come from `batch`.
        payload = [name for name in run.pieces if name not in batch]
        batch.update(self._read_columns(file, group, payload, run))
        for name, parts in run.pieces.items():
            parts.append(batch[name][mask])
        return True

    def _read_columns(
        self, file: LakeFile, group: RowGroup, names: Sequence[str], run: _ScanRun
    ) -> Dict[str, np.ndarray]:
        """One row group's values of columns ``names``: fill the group's
        row of each column, fetch the chunks through managed storage in
        one read round (capacity 0: every read counts a remote fetch),
        then take the rows."""
        if not names:
            return {}
        index, ordinal = np.array([group.index]), file.first_ordinal + group.index
        for name in names:
            file.decoded[name].fill(index, file.encoded[name])
        run.reader.read_columns(
            [((self.table.name, 0, name), {ordinal: group.chunk(name).encoded})
             for name in names],
            np.array([ordinal]),
        )
        if _inv.ACTIVE:
            for name in names:
                _inv.check_decoded_rows(
                    file.decoded[name], file.encoded[name], index, array_checksum
                )
        size = group.num_rows  # a file's last group may be shorter than its row
        return {name: file.decoded[name].row(group.index)[:size] for name in names}

    # -- observability --------------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "repro_lake_cache") -> None:
        """Expose this scanner's cache and chunk reads on a metrics registry.

        Series carry the lake table's name as a label so several scanners
        share one family: the cache's own series (``_lookups_total``,
        ``_hits_total``, ``_entries``, ...) and one counter per
        ``StorageStats`` field.
        """
        labels = {"table": self.table.name}
        self.cache.register_metrics(registry, labels, prefix=prefix)
        for field_name in vars(self.storage.stats):
            registry.counter(
                f"{prefix}_{field_name}_total",
                f"Lake chunk reads: {field_name.replace('_', ' ')}",
                labels=labels,
                fn=lambda f=field_name: getattr(self.storage.stats, f),
            )

    # -- introspection --------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self.cache)

    @property
    def total_nbytes(self) -> int:
        return self.cache.total_nbytes
