"""The database catalog: tables, transaction ids, shared managed storage.

One :class:`Database` is the substrate a query engine session runs on.
It owns the monotonic transaction counter (MVCC timestamps), the shared
:class:`~repro.storage.rms.ManagedStorage` block layer, and the table
catalog.  The engine (leader node) and the caching layers all hang off
this object.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from .rms import ManagedStorage
from .table import Table, TableSchema

__all__ = ["Database"]


class Database:
    """A named collection of tables sharing storage and a tx counter."""

    def __init__(
        self,
        num_slices: int = 4,
        rows_per_block: int = 1000,
        cache_capacity: Optional[int] = None,
    ) -> None:
        self.num_slices = num_slices
        self.rows_per_block = rows_per_block
        self.rms = ManagedStorage(cache_capacity=cache_capacity)
        self.tables: Dict[str, Table] = {}
        self._next_txid = 1
        self._txid_lock = threading.Lock()

    # -- transactions ---------------------------------------------------------

    def begin(self) -> int:
        """Allocate the next transaction id.

        Locked: concurrent serving threads each begin their own reads;
        an unguarded read-increment would hand two queries the same
        MVCC timestamp.  Writers are additionally serialized above this
        layer (the serving layer's write lock) — the lock here only
        makes id allocation itself safe.
        """
        with self._txid_lock:
            txid = self._next_txid
            self._next_txid += 1
            return txid

    @property
    def horizon_txid(self) -> int:
        """Oldest tx that could still be active.

        The reproduction serializes writers (DML), so the horizon is
        simply the next tx id: everything deleted before it is globally
        invisible and vacuum may reclaim it.
        """
        return self._next_txid

    # -- catalog ------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema,
        num_slices: Optional[int] = None,
        rows_per_block: Optional[int] = None,
    ) -> Table:
        if schema.name in self.tables:
            raise ValueError(f"table {schema.name!r} already exists")
        table = Table(
            schema,
            num_slices=num_slices if num_slices is not None else self.num_slices,
            rows_per_block=(
                rows_per_block if rows_per_block is not None else self.rows_per_block
            ),
            rms=self.rms,
        )
        self.tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        table = self.tables.pop(name, None)
        if table is None:
            raise KeyError(f"no table {name!r}")
        self.rms.invalidate_table(name)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r} (have: {sorted(self.tables)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    # -- resilience -----------------------------------------------------------

    def attach_faults(self, injector, retry_policy=None) -> None:
        """Arm fault injection on this database's managed storage.

        ``injector`` is a :class:`~repro.faults.FaultInjector` (or None
        to disarm); ``retry_policy`` optionally replaces the storage
        layer's :class:`~repro.faults.RetryPolicy`.
        """
        self.rms.attach_faults(injector, retry_policy)

    # -- observability --------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "repro_storage") -> None:
        """Expose managed-storage traffic and table storage shape.

        Block-fetch counters come straight from :class:`StorageStats`
        (the ground truth behind the paper's "blocks accessed" columns);
        per-table gauges are summed from each column's
        :meth:`~repro.storage.column.ColumnStore.metrics_snapshot` at
        scrape time, so they track the live catalog with no write-path
        hooks.
        """
        stats = self.rms.stats
        registry.counter(
            f"{prefix}_remote_fetches_total",
            "Blocks fetched from managed storage (cold reads)",
            fn=lambda: stats.remote_fetches,
        )
        registry.counter(
            f"{prefix}_local_hits_total",
            "Block reads served locally (the block was resident)",
            fn=lambda: stats.local_hits,
        )
        registry.counter(
            f"{prefix}_blocks_accessed_total",
            "Total block reads, remote + local (the paper's metric)",
            fn=lambda: stats.blocks_accessed,
        )
        registry.counter(
            f"{prefix}_bytes_fetched_total",
            "Compressed bytes fetched from managed storage",
            fn=lambda: stats.bytes_fetched,
        )
        registry.counter(
            f"{prefix}_blocks_invalidated_total",
            "Cached blocks dropped by vacuum/reseal",
            fn=lambda: stats.blocks_invalidated,
        )
        registry.counter(
            f"{prefix}_transient_errors_total",
            "Injected transient fetch errors encountered",
            fn=lambda: stats.transient_errors,
        )
        registry.counter(
            f"{prefix}_corrupt_blocks_total",
            "Fetched blocks that failed checksum verification",
            fn=lambda: stats.corrupt_blocks,
        )
        registry.counter(
            f"{prefix}_retries_total",
            "Block fetches re-attempted after a fault",
            fn=lambda: stats.retries,
        )
        registry.counter(
            f"{prefix}_retry_giveups_total",
            "Block fetches abandoned after exhausting attempts/budget",
            fn=lambda: stats.retry_giveups,
        )
        registry.counter(
            f"{prefix}_backoff_model_seconds_total",
            "Model-time spent in retry backoff and injected latency",
            fn=lambda: stats.backoff_model_seconds,
        )
        registry.gauge(
            f"{prefix}_cached_blocks",
            "Blocks currently resident locally",
            fn=lambda: self.rms.cached_blocks,
        )
        registry.gauge(
            f"{prefix}_tables", "Tables in the catalog",
            fn=lambda: len(self.tables),
        )
        for metric, help_text in (
            ("blocks_sealed", "Sealed compressed blocks"),
            ("rows_tail", "Rows in unsealed insert buffers"),
            ("compressed_nbytes", "Compressed bytes across sealed blocks"),
        ):
            registry.gauge(
                f"{prefix}_{metric}",
                f"{help_text} across all tables",
                fn=lambda m=metric: self._sum_column_metric(m),
            )

    def _sum_column_metric(self, metric: str) -> int:
        return sum(
            column.metrics_snapshot()[metric]
            for table in self.tables.values()
            for data_slice in table.slices
            for column in data_slice.columns.values()
        )

    def vacuum(self, tables: Optional[Iterable[str]] = None) -> List[str]:
        """Vacuum the given tables (default: all); returns changed names."""
        names = list(tables) if tables is not None else self.table_names()
        changed = []
        for name in names:
            if self.table(name).vacuum(self.horizon_txid):
                changed.append(name)
        return changed
