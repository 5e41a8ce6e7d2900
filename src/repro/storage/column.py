"""Per-slice column storage: sealed compressed blocks plus a tail buffer.

A :class:`ColumnStore` holds one column of one data slice.  Rows arrive
appended to an in-memory *tail* (Redshift's insert buffer, §4.3.1); once
the tail reaches the block size it is *sealed* into a compressed block
with a zone-map entry.  Values are numpy arrays of the column's dtype
(object for strings) from ``append`` on: converted once on the way in,
held in a tail array shorter than one block, sealed from array slices.
Sealed blocks are immutable; reads go through
:class:`~repro.storage.rms.ManagedStorage` so every block access is
counted.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

from ..core.rowrange import RangeList
from .compression import EncodedBlock, choose_codec
from .dtypes import DataType
from .rms import ManagedStorage
from .zonemap import ZoneMap

__all__ = ["BlockCoverage", "ColumnStore", "GrowableArray"]


class GrowableArray:
    """An amortized-append numpy array (doubling growth)."""

    __slots__ = ("_data", "_size")

    def __init__(self, dtype: np.dtype, capacity: int = 64) -> None:
        self._data = np.empty(max(capacity, 1), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        """A view of the live portion (do not keep across appends)."""
        return self._data[: self._size]

    def append_many(self, values: np.ndarray) -> None:
        needed = self._size + len(values)
        if needed > len(self._data):
            capacity = max(needed, 2 * len(self._data))
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed

    def replace(self, values: np.ndarray) -> None:
        """Swap in entirely new contents (vacuum rebuild)."""
        self._data = np.array(values, dtype=self._data.dtype)
        self._size = len(values)


class BlockCoverage:
    """Where the rows of a range list sit in a slice's blocks and tail.

    A function of ``(ranges, rows_per_block, num_rows, dropped)`` alone
    — every column of a slice seals at the same row counts — so one
    coverage serves each column read, the visibility mask and the scan's
    own row ids over the same ranges.  Built per scan; nothing is kept
    on the range list.

    ``dropped`` is an optional boolean mask over the sealed blocks (the
    zone-map verdict): rows of a dropped block are left out of the
    coverage, exactly as if their row ranges had been subtracted from
    ``ranges`` first.  The tail has no zone map and is never dropped.

    Attributes:
        row_ids: every covered row id below ``num_rows``, ascending.
        sealed_rows: rows in sealed blocks (the rest is the tail).
        blocks: indices of the sealed blocks touched, ascending.
        offsets: position of each covered sealed row in the
            concatenation of the touched blocks; ``None`` when the
            ranges cover those blocks completely.
        tail_offsets: covered tail rows, relative to ``sealed_rows``.
    """

    __slots__ = (
        "row_ids", "sealed_rows", "blocks", "offsets", "tail_offsets",
        "_rows_per_block",
    )

    def __init__(
        self,
        ranges: RangeList,
        rows_per_block: int,
        num_rows: int,
        dropped: Optional[np.ndarray] = None,
    ) -> None:
        self._place(
            ranges.clip(0, num_rows).to_row_ids(),
            rows_per_block,
            num_rows // rows_per_block * rows_per_block,
            dropped,
        )

    def _place(
        self,
        rows: np.ndarray,
        size: int,
        sealed_rows: int,
        dropped: Optional[np.ndarray] = None,
    ) -> None:
        """Fill every attribute from ascending row ids below the slice's
        row count, leaving out the rows of ``dropped`` blocks."""
        split = int(np.searchsorted(rows, sealed_rows))
        block_of = rows[:split] // size
        if dropped is not None:
            keep = np.ones(len(rows), dtype=bool)
            np.logical_not(dropped[block_of], out=keep[:split])
            rows = rows[keep]
            block_of = block_of[keep[:split]]
            split = len(block_of)
        self.row_ids = rows
        self.sealed_rows = sealed_rows
        self._rows_per_block = size
        sealed = rows[:split]
        self.tail_offsets = rows[split:] - sealed_rows
        # rows ascend, so a block's rows are one run: mark each run's start.
        first = np.ones(split, dtype=bool)
        first[1:] = block_of[1:] != block_of[:-1]
        touched = block_of[first]
        self.blocks: List[int] = touched.tolist()
        if split == len(touched) * size:
            self.offsets = None
        else:
            # Rows of untouched blocks ahead of each touched one drop out.
            skipped = (touched - np.arange(len(touched))) * size
            self.offsets = sealed - skipped[np.cumsum(first) - 1]

    def select(self, mask: np.ndarray) -> "BlockCoverage":
        """The coverage of the rows of this one where ``mask`` is True.

        Equal to a fresh coverage of ``RangeList.from_rows(row_ids[mask])``
        — the scan's qualifying rows, for the gather — without the range
        list in between: the row ids are already expanded and clipped.
        """
        selected = BlockCoverage.__new__(BlockCoverage)
        selected._place(self.row_ids[mask], self._rows_per_block, self.sealed_rows)
        return selected


class ColumnStore:
    """One column of one slice: sealed blocks + unsealed tail."""

    def __init__(
        self,
        table_name: str,
        slice_id: int,
        column_name: str,
        dtype: DataType,
        rows_per_block: int,
        block_store=None,
    ) -> None:
        self.table_name = table_name
        self.slice_id = slice_id
        self.column_name = column_name
        self.dtype = dtype
        self.rows_per_block = rows_per_block
        # Optional MemmapBlockStore: sealed payloads spill to disk and
        # page in on demand (out-of-core tables); None keeps payloads
        # resident, byte-for-byte the historical layout.
        self.block_store = block_store
        self.blocks: List[EncodedBlock] = []
        self.zonemap = ZoneMap()
        # Fewer than rows_per_block values of the column's numpy dtype.
        self._tail = np.empty(0, dtype=dtype.numpy_dtype)

    # -- size -----------------------------------------------------------------

    @property
    def num_sealed_rows(self) -> int:
        return len(self.blocks) * self.rows_per_block

    @property
    def num_rows(self) -> int:
        return self.num_sealed_rows + len(self._tail)

    @property
    def num_blocks(self) -> int:
        """Sealed blocks plus the tail counted as one open block."""
        return len(self.blocks) + (1 if len(self._tail) else 0)

    @property
    def compressed_nbytes(self) -> int:
        """Compressed size of all sealed blocks."""
        return sum(b.nbytes for b in self.blocks)

    def metrics_snapshot(self) -> dict:
        """Current storage shape of this column (observability rollup).

        :meth:`Database.register_metrics` sums these per table at scrape
        time; keeping the raw numbers here means the storage layer owns
        its own accounting and the registry never reaches into internals.
        """
        return {
            "blocks_sealed": len(self.blocks),
            "rows_sealed": self.num_sealed_rows,
            "rows_tail": len(self._tail),
            "compressed_nbytes": self.compressed_nbytes,
        }

    # -- writes ---------------------------------------------------------------

    def append(self, values: Iterable[object]) -> None:
        """Append values to the tail, sealing full blocks as they fill."""
        pending = np.concatenate((self._tail, self._to_array(values)))
        size = self.rows_per_block
        full = len(pending) - len(pending) % size
        for start in range(0, full, size):
            self._seal(pending[start : start + size])
        # A copy: a view would keep the whole batch alive behind the tail.
        self._tail = pending[full:].copy() if full else pending

    def _seal(self, values: np.ndarray) -> None:
        """Seal one block of values.  The codecs copy what they keep, so
        ``values`` may be a view.  Nothing is invalidated: a key enters
        the decoded-block cache only by reading a sealed block, and
        whoever restarts block indices (a rewrite, ``drop_table``)
        invalidates the table first."""
        block = choose_codec(values)
        if self.block_store is not None:
            # nbytes and checksum are already stamped; only payload
            # residency changes (see blockstore module doc).
            block = self.block_store.externalize(block)
        self.blocks.append(block)
        self.zonemap.append_block(values)

    def _to_array(self, values: Iterable[object]) -> np.ndarray:
        """The one conversion, where values enter the column."""
        if hasattr(values, "__len__"):
            return np.asarray(values, dtype=self._tail.dtype)
        # A generator: numpy will not size an array from one.
        return np.fromiter(values, dtype=self._tail.dtype)

    def rebuild(self, values: np.ndarray) -> None:
        """Replace the whole column (:meth:`DataSlice.rewrite`): reseal
        everything.  Block indices restart, so the caller invalidates the
        table's decoded blocks before the column is read again."""
        if self.block_store is not None:
            for block in self.blocks:
                self.block_store.release(block)
        self.blocks = []
        self.zonemap = ZoneMap()
        self._tail = self._tail[:0]
        self.append(values)

    # -- reads ----------------------------------------------------------------

    def tail_values(self) -> np.ndarray:
        """The tail buffer itself (replaced, never written, by appends)."""
        return self._tail

    def cover(self, ranges: RangeList) -> BlockCoverage:
        """Where ``ranges`` fall in this column's blocks and tail."""
        return BlockCoverage(ranges, self.rows_per_block, self.num_rows)

    def read_ranges(
        self, ranges: Union[RangeList, BlockCoverage], rms: ManagedStorage
    ) -> np.ndarray:
        """Gather the column's values for the given local row ranges.

        Sealed blocks are fetched through managed storage exactly once
        per call (the per-access counting the cost model needs), in one
        ``read_blocks`` round; tail rows are served from the insert
        buffer without block accounting.  A caller reading several
        columns of one slice over the same ranges passes their
        :class:`BlockCoverage` instead, computed once.
        """
        coverage = ranges if isinstance(ranges, BlockCoverage) else self.cover(ranges)
        if coverage.sealed_rows != self.num_sealed_rows:
            raise ValueError(
                f"coverage over {coverage.sealed_rows} sealed rows, "
                f"column {self.column_name} has {self.num_sealed_rows}"
            )
        tail = self.tail_values()[coverage.tail_offsets]
        if not coverage.blocks:
            return tail
        sealed = self._gather_sealed(coverage, rms)
        return np.concatenate((sealed, tail)) if len(tail) else sealed

    def _gather_sealed(
        self, coverage: BlockCoverage, rms: ManagedStorage
    ) -> np.ndarray:
        """Decode each touched sealed block once, gather all covered rows."""
        prefix = (self.table_name, self.slice_id, self.column_name)
        blocks = self.blocks
        decoded = rms.read_blocks(
            [prefix + (b,) for b in coverage.blocks],
            [blocks[b] for b in coverage.blocks],
        )
        if coverage.offsets is not None:
            values = decoded[0] if len(decoded) == 1 else np.concatenate(decoded)
            return values[coverage.offsets]
        # Every row of every touched block: the concatenation is the answer
        # (never a decoded array itself — those belong to the block cache).
        return np.concatenate(decoded)

    def read_all(self, rms: ManagedStorage) -> np.ndarray:
        """Read the entire column (loads, joins on full tables)."""
        return self.read_ranges(RangeList.full(self.num_rows), rms)
