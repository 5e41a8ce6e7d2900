"""A Parquet-shaped columnar file format.

A :class:`LakeFile` is immutable once written (like a Parquet file on
object storage): a list of :class:`RowGroup` footers, each holding one
compressed :class:`ColumnChunk` per column with min/max statistics.
Readers prune row groups on the statistics, then decompress only the
chunks they touch — the access pattern the predicate cache exploits
when it remembers *which row groups qualified*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..predicates.ast import Bounds
from ..storage.compression import EncodedBlock, choose_codec, decode_block
from ..storage.zonemap import ZoneEntry

__all__ = ["ColumnChunk", "RowGroup", "LakeFile", "write_file"]


@dataclass(frozen=True)
class ColumnChunk:
    """One column's data within a row group."""

    column: str
    encoded: EncodedBlock
    minimum: Optional[object]
    maximum: Optional[object]

    @property
    def num_values(self) -> int:
        return self.encoded.num_values

    @property
    def nbytes(self) -> int:
        return self.encoded.nbytes

    def read(self) -> np.ndarray:
        return decode_block(self.encoded)

    def may_contain(self, bounds: Bounds) -> bool:
        """Statistics check, mirroring Parquet row-group pruning."""
        return ZoneEntry(self.minimum, self.maximum).may_contain(bounds)


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

    def read_columns(self, columns: Sequence[str]) -> Dict[str, np.ndarray]:
        return {name: self.chunk(name).read() for name in columns}

    @property
    def nbytes(self) -> int:
        return sum(chunk.nbytes for chunk in self.chunks.values())


@dataclass(frozen=True)
class LakeFile:
    """An immutable data file: metadata plus row groups.

    ``first_ordinal`` is the table-wide ordinal of row group 0, stamped
    by :class:`~repro.lake.table.LakeTable` at commit: group ``i`` of
    this file is "row" ``first_ordinal + i`` of the table's single
    predicate-cache slice, for as long as the table lives.
    """

    file_id: str
    row_groups: Tuple[RowGroup, ...]
    first_ordinal: int = 0

    @property
    def num_rows(self) -> int:
        return sum(g.num_rows for g in self.row_groups)

    @property
    def num_row_groups(self) -> int:
        return len(self.row_groups)

    @property
    def columns(self) -> List[str]:
        if not self.row_groups:
            return []
        return sorted(self.row_groups[0].chunks)

    @property
    def nbytes(self) -> int:
        return sum(g.nbytes for g in self.row_groups)


def write_file(
    data: Mapping[str, Sequence[object]],
    rows_per_group: int = 1000,
    file_id: str = "file",
    first_ordinal: int = 0,
) -> LakeFile:
    """Write column data into an immutable lake file.

    Mirrors a Parquet writer: rows are split into fixed-size row
    groups, every column chunk is compressed with the best codec and
    annotated with min/max statistics.
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

    return LakeFile(
        file_id=file_id, row_groups=tuple(groups), first_ordinal=first_ordinal
    )
