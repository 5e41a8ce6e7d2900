"""Data slices: the unit of distribution and scanning.

Redshift splits every relation into data slices assigned to compute
nodes (§4.2.1).  Each :class:`DataSlice` owns its rows end-to-end:
column stores, MVCC timestamps, and local row numbering starting at 0.
Appends always go to the slice's end, which is the property that keeps
predicate-cache entries valid under inserts (§4.3.1).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..core.rowrange import RangeList
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
        block_store=None,
    ) -> None:
        self.table_name = table_name
        self.slice_id = slice_id
        self.rows_per_block = rows_per_block
        self.columns: Dict[str, ColumnStore] = {
            name: ColumnStore(
                table_name, slice_id, name, dtype, rows_per_block,
                block_store=block_store,
            )
            for name, dtype in columns.items()
        }
        self._xmin = GrowableArray(np.dtype(np.int64))
        self._xmax = GrowableArray(np.dtype(np.int64))
        self.num_rows = 0

    # -- writes -----------------------------------------------------------------

    def append_rows(
        self,
        rows: Mapping[str, Sequence[object]],
        txid: int,
    ) -> RangeList:
        """Append rows (column name -> values), returning their local range."""
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
            return RangeList.empty()
        for name, values in rows.items():
            self.columns[name].append(values)
        self._xmin.append_many(np.full(count, txid, dtype=np.int64))
        self._xmax.append_many(np.full(count, INFINITY_TX, dtype=np.int64))
        start = self.num_rows
        self.num_rows += count
        return RangeList([(start, start + count)])

    def mark_deleted(self, local_rows: np.ndarray, txid: int) -> int:
        """MVCC delete: set xmax for still-visible rows; returns count."""
        local_rows = np.asarray(local_rows, dtype=np.int64)
        xmax = self._xmax.values
        alive = local_rows[xmax[local_rows] == INFINITY_TX]
        xmax[alive] = txid
        return int(len(alive))

    # -- visibility ----------------------------------------------------------------

    def cover(
        self, ranges: RangeList, dropped: Optional[np.ndarray] = None
    ) -> BlockCoverage:
        """The block coverage of ``ranges``, valid for every column;
        rows in the sealed blocks ``dropped`` marks are left out."""
        return BlockCoverage(ranges, self.rows_per_block, self.num_rows, dropped)

    def unpruned_rows(self, dropped: Optional[np.ndarray]) -> RangeList:
        """Every row of the slice outside the sealed blocks ``dropped``
        marks: what a scan with no cached candidates starts from.  The
        tail carries no zone map (it is still mutable), so it is always
        in — matching Redshift, where the insert buffer is always scanned.
        """
        if dropped is None:
            return RangeList.full(self.num_rows)
        size = self.rows_per_block
        sealed_rows = len(dropped) * size
        # Runs of kept blocks scaled to rows are sorted, disjoint and
        # non-adjacent already; the tail extends a run that ends at it.
        bounds = RangeList.from_mask(~dropped).bounds * size
        if self.num_rows > sealed_rows:
            if len(bounds) and bounds[-1, 1] == sealed_rows:
                bounds[-1, 1] = self.num_rows
            else:
                tail = np.array([[sealed_rows, self.num_rows]], dtype=np.int64)
                bounds = np.concatenate((bounds, tail))
        return RangeList._wrap(bounds)

    def visibility_mask(
        self, ranges: Union[RangeList, BlockCoverage], txid: int
    ) -> np.ndarray:
        """Visibility of each row in ``ranges`` (concatenated order).

        A row is visible to ``txid`` when it was created by a
        transaction ``<= txid`` and not deleted by one ``<= txid``.
        """
        if isinstance(ranges, BlockCoverage):
            rows = ranges.row_ids
        else:
            rows = ranges.to_row_ids()
        xmin = self._xmin.values[rows]
        xmax = self._xmax.values[rows]
        return (xmin <= txid) & (xmax > txid)

    def visible_row_count(self, txid: int) -> int:
        xmin = self._xmin.values
        xmax = self._xmax.values
        return int(np.count_nonzero((xmin <= txid) & (xmax > txid)))

    def deleted_row_ids(self, horizon_txid: int) -> np.ndarray:
        """Rows deleted and invisible to every transaction >= horizon."""
        return np.flatnonzero(self._xmax.values < horizon_txid)

    # -- physical rewrites ---------------------------------------------------------

    def rewrite(self, order: np.ndarray, rms: ManagedStorage) -> None:
        """Replace the slice by its rows ``order``, renumbered densely:
        every column, ``xmin`` / ``xmax`` and ``num_rows``.

        The one physical rewrite — ``order`` is the kept rows for vacuum,
        a permutation for reorganization.  Row numbering and block
        indices change, so the caller (the table, once for all its
        slices) invalidates the decoded blocks and broadcasts the
        ``layout`` event before the slice is read again.
        """
        full = RangeList.full(self.num_rows)
        for column in self.columns.values():
            column.rebuild(column.read_ranges(full, rms)[order])
        self._xmin.replace(self._xmin.values[order])
        self._xmax.replace(self._xmax.values[order])
        self.num_rows = len(order)

    def vacuum(self, horizon_txid: int, rms: ManagedStorage) -> bool:
        """Physically remove globally invisible rows; True if changed.

        Vacuum rewrites the slice with new (dense) row numbering, which
        is exactly the event that invalidates predicate-cache entries
        (§4.3.2) — the table layer broadcasts it to listeners.
        """
        dead = self._xmax.values < horizon_txid
        if not dead.any():
            return False
        self.rewrite(np.flatnonzero(~dead), rms)
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
