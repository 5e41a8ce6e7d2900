"""A Parquet-shaped columnar file format.

A :class:`LakeFile` is immutable once written (like a Parquet file on
object storage): a list of :class:`RowGroup` footers, each holding one
compressed :class:`ColumnChunk` per column with min/max statistics.
Readers prune row groups on the statistics, then read only the chunks
they touch — the access pattern the predicate cache exploits when it
remembers *which row groups qualified*.  A file keeps one
:class:`~repro.storage.column.DecodedBlocks` per column, one row per
row group: a chunk decodes the first time a reader takes it and never
again while the file lives, because its bytes never change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..predicates.ast import Bounds
from ..storage.column import DecodedBlocks
from ..storage.compression import EncodedBlock, choose_codec

__all__ = ["ColumnChunk", "RowGroup", "LakeFile", "write_file"]


@dataclass(frozen=True)
class ColumnChunk:
    """One column's data within a row group."""

    column: str
    encoded: EncodedBlock
    minimum: Optional[object]
    maximum: Optional[object]

    def may_contain(self, bounds: Bounds) -> bool:
        """Statistics check, mirroring Parquet row-group pruning."""
        return not bounds.excludes(self.minimum, self.maximum)


@dataclass(frozen=True)
class RowGroup:
    """A horizontal slice of a file: one chunk per column."""

    index: int
    num_rows: int
    chunks: Dict[str, ColumnChunk]

    def chunk(self, name: str) -> ColumnChunk:
        try:
            return self.chunks[name]
        except KeyError:
            raise KeyError(
                f"row group has no column {name!r} (have {sorted(self.chunks)})"
            ) from None


@dataclass(frozen=True)
class LakeFile:
    """An immutable data file: metadata plus row groups.

    ``first_ordinal`` is the table-wide ordinal of row group 0, stamped
    by :class:`~repro.lake.table.LakeTable` at commit: group ``i`` of
    this file is "row" ``first_ordinal + i`` of the table's single
    predicate-cache slice, for as long as the table lives.

    ``encoded[name][i]`` is group ``i``'s chunk of column ``name``, and
    ``decoded[name]`` the column's decoded values: one row per group,
    as wide as group 0, in the dtype the chunks decode to.
    """

    file_id: str
    row_groups: Tuple[RowGroup, ...]
    first_ordinal: int
    encoded: Dict[str, Tuple[EncodedBlock, ...]] = field(compare=False, repr=False)
    decoded: Dict[str, DecodedBlocks] = field(compare=False, repr=False)

    @property
    def num_rows(self) -> int:
        return sum(g.num_rows for g in self.row_groups)

    @property
    def num_row_groups(self) -> int:
        return len(self.row_groups)


def write_file(
    data: Mapping[str, Sequence[object]],
    rows_per_group: int = 1000,
    file_id: str = "file",
    first_ordinal: int = 0,
) -> LakeFile:
    """Write column data into an immutable lake file.

    Mirrors a Parquet writer: rows are split into fixed-size row
    groups, every column chunk is compressed with the best codec and
    annotated with min/max statistics.  Each column's decoded array is
    sized here, once, and filled by the readers.
    """
    if rows_per_group < 1:
        raise ValueError("rows_per_group must be >= 1")
    arrays: Dict[str, np.ndarray] = {}
    lengths = set()
    for name, values in data.items():
        array = np.asarray(values)
        if array.dtype.kind in ("U", "S"):
            array = array.astype(object)
        arrays[name] = array
        lengths.add(len(array))
    if len(lengths) > 1:
        raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
    num_rows = lengths.pop() if lengths else 0

    groups: List[RowGroup] = []
    for index, start in enumerate(range(0, num_rows, rows_per_group)):
        end = min(start + rows_per_group, num_rows)
        chunks: Dict[str, ColumnChunk] = {}
        for name, array in arrays.items():
            piece = array[start:end]
            minimum = maximum = None
            if len(piece):
                try:
                    minimum, maximum = piece.min(), piece.max()
                except TypeError:
                    pass
                if isinstance(minimum, np.generic):
                    minimum = minimum.item()
                if isinstance(maximum, np.generic):
                    maximum = maximum.item()
            chunks[name] = ColumnChunk(
                column=name,
                encoded=choose_codec(piece),
                minimum=minimum,
                maximum=maximum,
            )
        groups.append(RowGroup(index=index, num_rows=end - start, chunks=chunks))

    encoded = {name: tuple(g.chunks[name].encoded for g in groups) for name in arrays}
    width = min(rows_per_group, num_rows)
    decoded = {name: _decoded(c, width) for name, c in encoded.items() if c}
    return LakeFile(file_id, tuple(groups), first_ordinal, encoded, decoded)


def _decoded(chunks: Tuple[EncodedBlock, ...], width: int) -> DecodedBlocks:
    """An unwritten decoded array with one row per chunk, in the dtype
    the chunks decode to: a chunk's first payload array has its own."""
    dtype = np.result_type(*{chunk.payload[0].dtype for chunk in chunks})
    decoded = DecodedBlocks(dtype, width)
    decoded.grow(len(chunks))
    return decoded
