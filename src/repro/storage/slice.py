"""Data slices: the unit of distribution and scanning.

Redshift splits every relation into data slices assigned to compute
nodes (§4.2.1).  Each :class:`DataSlice` owns its rows end-to-end:
column stores, MVCC timestamps, and local row numbering starting at 0.
Appends always go to the slice's end, which is the property that keeps
predicate-cache entries valid under inserts (§4.3.1).

Beside the per-row ``xmin`` / ``xmax`` arrays a slice keeps an **MVCC
summary**: the newest ``xmin`` and the oldest ``xmax`` of any of its
rows.  Every row is visible at ``txid`` exactly when ``max_xmin <= txid
< min_xmax``, so a scan at such a snapshot needs no per-row visibility
mask (:meth:`DataSlice.all_visible`).  Appends and deletes move the
summary in O(1) — before they touch a row, so a reader never pairs new
rows with an old summary — and a rewrite recomputes it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..predicates.ast import Bounds
from .column import BlockCoverage, ColumnStore, GrowableArray
from .dtypes import DataType
from .rms import ManagedStorage

__all__ = ["DataSlice", "INFINITY_TX"]

# Sentinel "never deleted" transaction id.
INFINITY_TX = np.iinfo(np.int64).max


class DataSlice:
    """One data slice of one table."""

    def __init__(
        self,
        table_name: str,
        slice_id: int,
        columns: Mapping[str, DataType],
        rows_per_block: int,
    ) -> None:
        self.table_name = table_name
        self.slice_id = slice_id
        self.rows_per_block = rows_per_block
        self.columns: Dict[str, ColumnStore] = {
            name: ColumnStore(table_name, slice_id, name, dtype, rows_per_block)
            for name, dtype in columns.items()
        }
        self._xmin = GrowableArray(np.dtype(np.int64))
        self._xmax = GrowableArray(np.dtype(np.int64))
        self.num_rows = 0
        #: The MVCC summary: the newest creator and the oldest deleter
        #: of any row (0 and "never" while the slice is empty).
        self.max_xmin = 0
        self.min_xmax = INFINITY_TX

    # -- writes -----------------------------------------------------------------

    def append_rows(
        self,
        rows: Mapping[str, Sequence[object]],
        txid: int,
    ) -> None:
        """Append rows (column name -> values) at the slice's end."""
        lengths = {name: len(values) for name, values in rows.items()}
        if set(rows) != set(self.columns):
            missing = set(self.columns) - set(rows)
            extra = set(rows) - set(self.columns)
            raise ValueError(
                f"column mismatch appending to {self.table_name}: "
                f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        distinct = set(lengths.values())
        if len(distinct) > 1:
            raise ValueError(f"ragged append: column lengths {lengths}")
        count = distinct.pop() if distinct else 0
        if count == 0:
            return
        self.max_xmin = max(self.max_xmin, txid)
        for name, values in rows.items():
            self.columns[name].append(values)
        self._xmin.append_many(np.full(count, txid, dtype=np.int64))
        self._xmax.append_many(np.full(count, INFINITY_TX, dtype=np.int64))
        self.num_rows += count

    def mark_deleted(self, local_rows: np.ndarray, txid: int) -> int:
        """MVCC delete: set xmax for still-visible rows; returns count."""
        local_rows = np.asarray(local_rows, dtype=np.int64)
        xmax = self._xmax.values
        alive = local_rows[xmax[local_rows] == INFINITY_TX]
        if len(alive):
            self.min_xmax = min(self.min_xmax, txid)
        xmax[alive] = txid
        return int(len(alive))

    # -- visibility ----------------------------------------------------------------

    def cover(
        self,
        rows: Optional[np.ndarray] = None,
        dropped: Optional[np.ndarray] = None,
    ) -> BlockCoverage:
        """The block coverage of ``rows`` (ascending local row ids),
        valid for every column; rows in the sealed blocks ``dropped``
        marks are left out.

        ``None`` covers every row by the block (a scan with no cached
        candidates): no row id is expanded or placed.  The tail carries
        no zone map (it is still mutable), so it is always in — matching
        Redshift, where the insert buffer is always scanned.
        """
        size = self.rows_per_block
        if rows is not None:
            return BlockCoverage(rows, size, self.num_rows, dropped)
        kept = (
            np.arange(self.num_rows // size) if dropped is None
            else np.flatnonzero(~dropped)
        )
        return BlockCoverage.of_blocks(kept, size, self.num_rows)

    def pruned_blocks(
        self, zone_bounds: Sequence[Tuple[str, Bounds]]
    ) -> Optional[np.ndarray]:
        """Step 1 of the standard scan: one mask over the sealed blocks,
        True where some bounded column's zone map rules the block out,
        or ``None`` when no column has bounds here."""
        dropped: Optional[np.ndarray] = None
        for name, bounds in zone_bounds:
            column = self.columns.get(name)
            if column is not None:
                pruned = column.zonemap.pruned_blocks(bounds)
                dropped = pruned if dropped is None else dropped | pruned
        return dropped

    def all_visible(self, txid: int) -> bool:
        """Whether every row is visible to ``txid``: none was created
        after it or deleted at or before it (the MVCC summary)."""
        return self.max_xmin <= txid < self.min_xmax

    def visibility_mask(self, coverage: BlockCoverage, txid: int) -> np.ndarray:
        """Visibility of each covered row (ascending row order).

        A row is visible to ``txid`` when it was created by a
        transaction ``<= txid`` and not deleted by one ``<= txid``.  A
        side the MVCC summary already answers for every row is not
        looked at.
        """
        if self.max_xmin <= txid:
            return coverage.take(self._xmax.values) > txid
        if txid < self.min_xmax:
            return coverage.take(self._xmin.values) <= txid
        xmin = coverage.take(self._xmin.values)
        xmax = coverage.take(self._xmax.values)
        return (xmin <= txid) & (xmax > txid)

    def visible_row_count(self, txid: int) -> int:
        if self.all_visible(txid):
            return self.num_rows
        xmin = self._xmin.values
        xmax = self._xmax.values
        return int(np.count_nonzero((xmin <= txid) & (xmax > txid)))

    # -- physical rewrites ---------------------------------------------------------

    def rewrite(self, order: np.ndarray, rms: ManagedStorage) -> None:
        """Replace the slice by its rows ``order``, renumbered densely:
        every column, ``xmin`` / ``xmax`` and ``num_rows``.

        The one physical rewrite — ``order`` is the kept rows for vacuum,
        a permutation for reorganization.  Row numbering and block
        indices change, so the caller (the table, once for all its
        slices) makes none of its blocks resident and broadcasts the
        ``layout`` event before the slice is read again.
        """
        for column in self.columns.values():
            column.rebuild(column.read_all(rms)[order])
        xmin = self._xmin.values[order]
        xmax = self._xmax.values[order]
        self._xmin.replace(xmin)
        self._xmax.replace(xmax)
        self.num_rows = len(order)
        self.max_xmin = int(xmin.max(initial=0))
        self.min_xmax = int(xmax.min(initial=INFINITY_TX))

    def vacuum(self, horizon_txid: int, rms: ManagedStorage) -> bool:
        """Physically remove globally invisible rows; True if changed.

        Vacuum rewrites the slice with new (dense) row numbering, which
        is exactly the event that invalidates predicate-cache entries
        (§4.3.2) — the table layer broadcasts it to listeners.
        """
        if self.min_xmax >= horizon_txid:
            return False  # no row was deleted before the horizon
        self.rewrite(np.flatnonzero(self._xmax.values >= horizon_txid), rms)
        return True

    # -- introspection ------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Blocks of the widest materialized representation (per column max)."""
        if not self.columns:
            return 0
        return max(column.num_blocks for column in self.columns.values())

    def compressed_nbytes(self) -> int:
        return sum(column.compressed_nbytes for column in self.columns.values())
