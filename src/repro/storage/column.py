"""Per-slice column storage: sealed compressed blocks plus a tail buffer.

A :class:`ColumnStore` holds one column of one data slice.  Rows arrive
appended to an in-memory *tail* (Redshift's insert buffer, §4.3.1); once
the tail reaches the block size it is *sealed* into a compressed block
with a zone-map entry — all the blocks one append fills at once, sized,
encoded and bounded from one statistics pass.  Values are numpy arrays
of the column's dtype (object for strings) from ``append`` on:
converted once on the way in, held in a tail array shorter than one
block, sealed from array slices.
Sealed blocks are immutable; reads go through
:class:`~repro.storage.rms.ManagedStorage` so every block access is
counted.

Decoded values live in one place per column: :class:`DecodedBlocks`, a
``(blocks, rows_per_block)`` array whose row ``b`` is block ``b``'s
values, decoded by the column the first time a read takes it.  A read
(:func:`read_columns`) fills its rows, then asks the storage, which only
counts and tracks which blocks are resident, then takes its rows by row
id — the bytes copied follow the rows reported, not the blocks touched.
One call makes one storage round however many slices it reads: a table
scan reads every slice's columns of a read phase at once, each slice's
values laid at its offset in one array per column name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import invariants as _inv
from .compression import EncodedBlock, array_checksum, decode_blocks, seal_blocks
from .dtypes import DataType
from .rms import ColumnBlocks, ManagedStorage, QueryStorageContext
from .zonemap import ZoneMap

# Whatever a read takes its ``rms`` from: the storage itself, or a
# statement's reader of it.
Reader = Union[ManagedStorage, QueryStorageContext]

__all__ = [
    "BlockCoverage", "ColumnRead", "ColumnStore", "DecodedBlocks", "GrowableArray",
    "read_columns",
]


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


class DecodedBlocks:
    """One column's decoded sealed blocks: row ``b`` of a ``(blocks,
    rows_per_block)`` array holds block ``b``'s values once written.

    The column decodes its own blocks; the storage never sees a value.
    The rules, DESIGN.md §11:

    * a reader fills before it reads: :func:`read_columns` and
      ``LakeScanner._read_columns`` call :meth:`fill` for every row they
      take, then the storage, so rows never depend on residency;
    * a block decodes once per build: :meth:`fill` decodes only
      unwritten rows, so a re-fetch after eviction decodes nothing and
      a row a reader is taking from never changes;
    * two readers filling one row at once decode the same block and
      write equal bytes, and a row is flagged written only after it is
      assigned; the column is flagged complete only after every row is;
    * the array grows only in :meth:`grow` (from ``ColumnStore._seal``),
      copying only written rows, and is emptied by :meth:`reset` (from
      ``ColumnStore.rebuild``).  Both run under an exclusive writer —
      the statement lock runs every write alone; writers that run beside
      readers must revisit this.  A lake file's column is sized once, by
      :func:`~repro.lake.format.write_file`: one row per row group, its
      last group, if shorter, written into its row's prefix;
    * no view of the array escapes: :meth:`take` copies into the
      caller's array.
    """

    __slots__ = ("_rows", "_written", "_blocks", "_complete")

    def __init__(self, dtype: np.dtype, rows_per_block: int) -> None:
        self._rows = np.empty((0, rows_per_block), dtype=dtype)
        # One flag per row of ``_rows``: True once the row is written.
        self._written = np.zeros(0, dtype=bool)
        self._blocks = 0
        # Whether every block's row is written: a warm read's one check.
        self._complete = True

    def fill(self, index: np.ndarray, blocks: Sequence[EncodedBlock]) -> None:
        """Write the rows of blocks ``index`` (``int64``) that are not
        written yet, decoding ``blocks[b]`` for each in one
        :func:`decode_blocks` call; one assignment per decoded group."""
        if self._complete:  # a warm column: no look at ``index``
            return
        written = self._written
        seen = written[index]
        if np.count_nonzero(seen) == len(seen):
            return
        fresh = index[~seen]
        for positions, values in decode_blocks([blocks[b] for b in fresh.tolist()]):
            rows = fresh[positions]
            self._rows[rows, : values.shape[1]] = values
            written[rows] = True
        if np.count_nonzero(written[: self._blocks]) == self._blocks:
            self._complete = True

    def written(self, index: int) -> bool:
        """Whether block ``index``'s row holds its values."""
        return bool(self._written[index])

    def row(self, index: int) -> np.ndarray:
        """A copy of block ``index``'s row: a lake read takes one row
        group's values this way, and validation checks them."""
        return self._rows[index].copy()

    def grow(self, num_blocks: int) -> None:
        """Room for ``num_blocks`` sealed blocks, the new ones unwritten.
        Capacity doubles; a move copies only the written rows, so rows
        never read take no memory."""
        if num_blocks > self._blocks:
            self._complete = False
        self._blocks = num_blocks
        if num_blocks <= len(self._rows):
            return
        size = max(num_blocks, 2 * len(self._rows))
        rows = np.empty((size, self._rows.shape[1]), dtype=self._rows.dtype)
        written = np.zeros(size, dtype=bool)
        kept = np.flatnonzero(self._written)
        rows[kept] = self._rows[kept]
        written[kept] = True
        self._rows, self._written = rows, written

    def reset(self) -> None:
        """Forget every row: the column reseals all of its values."""
        self._rows = np.empty((0, self._rows.shape[1]), dtype=self._rows.dtype)
        self._written = np.zeros(0, dtype=bool)
        self._blocks = 0
        self._complete = True

    def take(self, coverage: "BlockCoverage", out: np.ndarray) -> None:
        """Copy the covered sealed rows' values into ``out`` (one slot
        per row): one row gather for whole blocks, one element gather by
        row id otherwise.  ``coverage`` touches at least one block, and
        its indices are in range: :func:`read_columns` checks its sealed
        row count and its last (largest) block against the column, so
        ``clip`` only spares ``take`` the buffered copy that ``raise``
        makes of ``out``."""
        if coverage.whole_blocks:
            rows = out.reshape(-1, self._rows.shape[1])
            self._rows.take(coverage.blocks, axis=0, out=rows, mode="clip")
        else:
            self._rows.reshape(-1).take(coverage.sealed_row_ids, out=out, mode="clip")


class BlockCoverage:
    """Where a set of rows sits in a slice's blocks and tail: ascending
    int64 row ids placed by storage block, the one row set the cache,
    the scan and storage pass between them.

    A function of ``(rows, rows_per_block, num_rows, dropped)`` alone
    — every column of a slice seals at the same row counts — so one
    coverage serves each column read, the visibility mask and the scan's
    own row ids over the same rows.  Built per scan, except an exact
    hit's: its range state keeps the placement of its rows
    (:meth:`~repro.core.entry.RangeSliceState.placed`), which every
    statement and thread hitting it then shares.  So nothing writes to
    a coverage's arrays, and the constructor flags ``row_ids`` (the rows
    it is handed), ``blocks`` and ``tail_offsets`` read-only.

    ``dropped`` is an optional boolean mask over the sealed blocks (the
    zone-map verdict): rows of a dropped block are left out of the
    coverage.  The tail has no zone map and is never dropped.

    A coverage comes in two forms with the same attributes.  The
    constructor places rows: it finds each row id's block.
    :meth:`of_blocks` covers whole blocks plus the
    whole tail (a scan with no cached candidates) and places nothing:
    its row ids are computed only when something reads them, and
    :meth:`select`, :meth:`take` and the column gather work from block
    indices, so a coverage of ``n`` rows costs O(blocks) to build and
    O(selected) to select from.  The caller picks the form from what it
    knows; no coverage inspects its rows to find out.

    Attributes:
        row_ids: every covered row id below ``num_rows``, ascending.
        sealed_rows: rows in sealed blocks (the rest is the tail).
        blocks: indices of the sealed blocks touched, ascending.
        whole_blocks: whether every row of each touched block is
            covered (a column then takes its values by the block).
        tail_offsets: covered tail rows, relative to ``sealed_rows``.
    """

    __slots__ = (
        "_row_ids", "sealed_rows", "blocks", "whole_blocks", "tail_offsets",
        "_rows_per_block",
    )
    _row_ids: Optional[np.ndarray]  # None until a whole-block coverage's are read

    def __init__(
        self,
        rows: np.ndarray,
        rows_per_block: int,
        num_rows: int,
        dropped: Optional[np.ndarray] = None,
    ) -> None:
        """Place ``rows``: ascending row ids below ``num_rows``."""
        self._place(
            rows, rows_per_block, num_rows // rows_per_block * rows_per_block, dropped
        )

    @classmethod
    def of_blocks(
        cls, kept: np.ndarray, rows_per_block: int, num_rows: int
    ) -> "BlockCoverage":
        """Every row of the sealed blocks ``kept`` (ascending indices)
        and of the tail: equal to a coverage of those rows' ids, with no
        row placed."""
        coverage = cls.__new__(cls)
        coverage._row_ids = None
        coverage.sealed_rows = num_rows // rows_per_block * rows_per_block
        coverage._rows_per_block = rows_per_block
        coverage.blocks = kept
        coverage.whole_blocks = True
        coverage.tail_offsets = np.arange(num_rows - coverage.sealed_rows)
        return coverage

    def __len__(self) -> int:
        if self._row_ids is not None:
            return len(self._row_ids)
        return len(self.blocks) * self._rows_per_block + len(self.tail_offsets)

    @property
    def row_ids(self) -> np.ndarray:
        if self._row_ids is None:
            size = self._rows_per_block
            starts = self.blocks * size
            self._row_ids = np.concatenate((
                (starts[:, None] + np.arange(size)).ravel(),
                self.tail_offsets + self.sealed_rows,
            ))
        return self._row_ids

    @property
    def sealed_row_ids(self) -> np.ndarray:
        """The covered row ids below ``sealed_rows``: a view of ``row_ids``."""
        row_ids = self.row_ids
        return row_ids[: len(row_ids) - len(self.tail_offsets)]

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
        rows.setflags(write=False)
        self._row_ids = rows
        self.sealed_rows = sealed_rows
        self._rows_per_block = size
        self.tail_offsets = rows[split:] - sealed_rows
        self.tail_offsets.setflags(write=False)
        # rows ascend, so a block's rows are one run: mark each run's start.
        first = np.ones(split, dtype=bool)
        first[1:] = block_of[1:] != block_of[:-1]
        self.blocks: np.ndarray = block_of[first]
        self.blocks.setflags(write=False)
        self.whole_blocks = split == len(self.blocks) * size

    def select(self, index: Union[np.ndarray, slice]) -> "BlockCoverage":
        """The coverage of the rows ``row_ids[index]`` of this one.

        ``index`` is a boolean mask (the scan's qualifying rows, for the
        gather) or a slice (an exact hit's tail): either keeps the row
        ids ascending.  Equal to a fresh coverage of ``row_ids[index]``;
        rows this coverage left out stay out.  A whole-block coverage maps the
        selected positions straight to row ids (O(selected)), so row ids
        it never expanded stay unexpanded.
        """
        size = self._rows_per_block
        if self._row_ids is not None:
            rows = self._row_ids[index]
        else:
            if isinstance(index, slice):
                positions = np.arange(len(self))[index]
            else:
                positions = np.flatnonzero(index)
            # Position p sits in the p // size-th kept block (the tail
            # packs after the last); it is off by that block's distance
            # from where it packs.
            slots = np.concatenate((self.blocks, [self.sealed_rows // size]))
            shift = (slots - np.arange(len(slots))) * size
            rows = positions + shift[positions // size]
        selected = BlockCoverage.__new__(BlockCoverage)
        selected._place(rows, size, self.sealed_rows)
        return selected

    def take(self, values: np.ndarray) -> np.ndarray:
        """``values[row_ids]`` for a per-row array of the slice
        (``xmin``, ``xmax``), possibly a view of it.  A whole-block
        coverage takes it by the block, without expanding a row id: one
        slice when its rows are one run (a scan no zone map pruned)."""
        if self._row_ids is not None:
            return values[self._row_ids]
        size, blocks, tail = self._rows_per_block, self.blocks, len(self.tail_offsets)
        end = self.sealed_rows + tail
        lo = int(blocks[0]) * size if len(blocks) else self.sealed_rows
        hi = end if tail or not len(blocks) else (int(blocks[-1]) + 1) * size
        if hi - lo == len(self):
            return values[lo:hi]
        sealed = values[: self.sealed_rows].reshape(-1, size)[blocks].ravel()
        return np.concatenate((sealed, values[self.sealed_rows : end]))


class ColumnStore:
    """One column of one slice: sealed blocks + unsealed tail."""

    def __init__(
        self,
        table_name: str,
        slice_id: int,
        column_name: str,
        dtype: DataType,
        rows_per_block: int,
    ) -> None:
        self.table_name = table_name
        self.slice_id = slice_id
        self.column_name = column_name
        self.dtype = dtype
        self.rows_per_block = rows_per_block
        self.blocks: List[EncodedBlock] = []
        # Block b's key is this name plus b: a rebuild restarts indices
        # at 0, so a key names whichever block holds the index.
        self.key_prefix = (table_name, slice_id, column_name)
        self.zonemap = ZoneMap()
        # Fewer than rows_per_block values of the column's numpy dtype.
        self._tail = np.empty(0, dtype=dtype.numpy_dtype)
        self._decoded = DecodedBlocks(self._tail.dtype, rows_per_block)

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
        if full:
            self._seal(pending[:full].reshape(-1, size))
        # A copy: a view would keep the whole batch alive behind the tail.
        self._tail = pending[full:].copy() if full else pending

    def _seal(self, blocks: np.ndarray) -> None:
        """Seal the full blocks of one append, the rows of a ``(k,
        rows_per_block)`` array: one statistics pass sizes every codec
        and bounds every zone-map entry, then each block is encoded
        once.  The codecs copy what they keep, so ``blocks`` may be a
        view.  The decoded array grows by the new blocks, unwritten.
        Nothing is invalidated: a block becomes resident only by reading
        it, and whoever restarts block indices (a rewrite,
        ``drop_table``) invalidates the table first."""
        encoded, minima, maxima = seal_blocks(blocks)
        self.blocks.extend(encoded)
        self.zonemap.append_blocks(minima, maxima)
        self._decoded.grow(len(self.blocks))

    def _to_array(self, values: Iterable[object]) -> np.ndarray:
        """The one conversion, where values enter the column."""
        if hasattr(values, "__len__"):
            return np.asarray(values, dtype=self._tail.dtype)
        # A generator: numpy will not size an array from one.
        return np.fromiter(values, dtype=self._tail.dtype)

    def rebuild(self, values: np.ndarray) -> None:
        """Replace the whole column (:meth:`DataSlice.rewrite`): reseal
        everything.  Block indices restart, so the decoded rows go and
        the caller makes none of the table's blocks resident before the
        column is read again."""
        self.blocks = []
        self.zonemap = ZoneMap()
        self._decoded.reset()
        self._tail = self._tail[:0]
        self.append(values)

    # -- reads ----------------------------------------------------------------

    def tail_values(self) -> np.ndarray:
        """The tail buffer itself (replaced, never written, by appends)."""
        return self._tail

    def read_ranges(self, coverage: BlockCoverage, rms: Reader) -> np.ndarray:
        """Gather the column's values for the covered local rows:
        :func:`read_columns` of this one column."""
        name = self.column_name
        return read_columns([((self,), coverage, 0)], len(coverage), rms)[name]

    def read_all(self, rms: Reader) -> np.ndarray:
        """Read the entire column (loads, joins on full tables)."""
        every = BlockCoverage.of_blocks(
            np.arange(len(self.blocks)), self.rows_per_block, self.num_rows
        )
        return self.read_ranges(every, rms)


#: One slice's part of a read: its columns, the rows they are read
#: over, and where those rows' values start in the output arrays.
ColumnRead = Tuple[Sequence[ColumnStore], BlockCoverage, int]


def read_columns(
    reads: Sequence[ColumnRead],
    size: int,
    rms: Reader,
    out: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Each read's columns' values over its coverage, in one array of
    ``size`` rows per column name: a read's rows sit at its ``start``.

    Every column fills the rows of its touched sealed blocks, then one
    storage round counts each block access (the per-access counting the
    cost model needs), read after read and column after column, then
    each column copies its covered rows out of its decoded array; tail
    rows are served from the insert buffer without block accounting.  A
    coverage is its slice's (:meth:`~repro.storage.slice.DataSlice.cover`):
    one serves every column read over the same rows.  ``out`` holds
    arrays an earlier round returned: a read of a name it holds writes
    there, so two rounds can fill one array; positions no read covers
    hold no value.
    """
    out = {} if out is None else out
    named: List[ColumnBlocks] = []
    index: List[np.ndarray] = []
    for columns, coverage, _ in reads:
        blocks = coverage.blocks
        for column in columns:
            if coverage.sealed_rows != len(column.blocks) * column.rows_per_block:
                raise ValueError(
                    f"coverage over {coverage.sealed_rows} sealed rows, "
                    f"column {column.column_name} has {column.num_sealed_rows}"
                )
            if len(blocks) and blocks[-1] >= len(column.blocks):
                raise ValueError(
                    f"coverage reads block {blocks[-1]}, "
                    f"column {column.column_name} has {len(column.blocks)}"
                )
            if len(blocks):
                column._decoded.fill(blocks, column.blocks)
                named.append((column.key_prefix, column.blocks))
                index.append(blocks)
    if named:
        # One read's columns all read its coverage's blocks: one array.
        rms.read_columns(named, index[0] if len(reads) == 1 else index)
        if _inv.ACTIVE:
            for columns, coverage, _ in reads:
                for column in columns if len(coverage.blocks) else ():
                    _inv.check_decoded_rows(
                        column._decoded, column.blocks, coverage.blocks, array_checksum
                    )
    for columns, coverage, start in reads:
        tail_offsets = coverage.tail_offsets
        stop = start + len(coverage)
        sealed = stop - len(tail_offsets)
        for column in columns:
            values = out.get(column.column_name)
            if values is None:
                values = out[column.column_name] = np.empty(size, column._tail.dtype)
            if sealed > start:
                column._decoded.take(coverage, values[start:sealed])
            if sealed < stop:
                values[sealed:stop] = column.tail_values()[tail_offsets]
    return out
