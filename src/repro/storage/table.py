"""Tables: schema, distribution across slices, MVCC DML, vacuum.

A :class:`Table` is a set of :class:`~repro.storage.slice.DataSlice`
shards.  Rows are distributed by a hash of the distribution key (or
round-robin without one), mirroring Redshift's DISTKEY.  The table
carries the two version stamps the caching layers key off, both drawn
from one process-wide monotone counter: a new table takes a fresh
stamp, and so does every write, so a stamp names one state of one
table and is never reused — not by a later write, and not by a table
re-created under the same name — within this process.  Stamps restart
with every process, so the process draws a random :data:`INCARNATION`
beside them, and a stamp persisted with it names one table state of one
process (DESIGN.md §9).

* ``data_version``   — moves on *any* DML; result-cache entries and
  join-index (semi-join) predicate-cache entries depend on it.
* ``layout_version`` — moves only when physical row numbering changes
  (vacuum, sort/reorganization); plain predicate-cache entries depend
  only on this, which is the paper's central "online under DML" point.

A table calls into no cache: a cache compares the stamps it recorded
with the table's when a scan reads (DESIGN.md §5).
"""

from __future__ import annotations

import itertools
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import invariants as _inv
from .dtypes import DataType, date_to_days
from .rms import ManagedStorage
from .slice import DataSlice

__all__ = ["ColumnSpec", "TableSchema", "Table"]

# The one source of version stamps: ``next`` on a C-level counter is
# atomic, and stamps only grow, so no two table states share one.
_stamps = itertools.count(1)
#: This process's incarnation: random, nonzero, drawn once with the
#: stamp counter.  A persisted stamp is only compared with a live one
#: when both come from the same incarnation.
INCARNATION = secrets.randbelow(2**64 - 1) + 1


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Schema entry: column name and logical type."""

    name: str
    dtype: DataType


@dataclass(frozen=True)
class TableSchema:
    """A table's schema plus physical-design knobs."""

    name: str
    columns: Tuple[ColumnSpec, ...]
    dist_key: Optional[str] = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {self.name}: {names}")
        if self.dist_key is not None and self.dist_key not in names:
            raise ValueError(f"dist key {self.dist_key!r} not a column of {self.name}")

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @cached_property
    def column_types(self) -> Dict[str, DataType]:
        """Column name -> type, built once: every scan binds with it."""
        return {c.name: c.dtype for c in self.columns}

    def dtype_of(self, column: str) -> DataType:
        for spec in self.columns:
            if spec.name == column:
                return spec.dtype
        raise KeyError(f"no column {column!r} in table {self.name}")


class Table:
    """A distributed, MVCC, columnar table."""

    def __init__(
        self,
        schema: TableSchema,
        num_slices: int = 4,
        rows_per_block: int = 1000,
        rms: Optional[ManagedStorage] = None,
    ) -> None:
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        self.schema = schema
        self.rms = rms if rms is not None else ManagedStorage()
        self.slices: List[DataSlice] = [
            DataSlice(schema.name, slice_id, schema.column_types, rows_per_block)
            for slice_id in range(num_slices)
        ]
        self.data_version = self.layout_version = next(_stamps)
        self._round_robin = 0

    # -- metadata ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def num_rows(self) -> int:
        """Physical rows (including MVCC-deleted, pre-vacuum)."""
        return sum(s.num_rows for s in self.slices)

    def visible_row_count(self, txid: int) -> int:
        return sum(s.visible_row_count(txid) for s in self.slices)

    @property
    def num_blocks(self) -> int:
        return sum(
            column.num_blocks
            for s in self.slices
            for column in s.columns.values()
        )

    def compressed_nbytes(self) -> int:
        return sum(s.compressed_nbytes() for s in self.slices)

    # -- DML -----------------------------------------------------------------------

    def insert(self, rows: Mapping[str, Sequence[object]], txid: int) -> int:
        """Append rows, distributing them across slices; returns count."""
        arrays = self._to_arrays(rows)
        count = len(next(iter(arrays.values()))) if arrays else 0
        if count == 0:
            return 0
        assignment = self._assign_slices(arrays, count)
        for slice_id, s in enumerate(self.slices):
            pick = assignment == slice_id
            if not pick.any():
                continue
            subset = {name: values[pick] for name, values in arrays.items()}
            s.append_rows(subset, txid)
        self._check_summaries()
        self.data_version = next(_stamps)
        return count

    def delete_local_rows(
        self, slice_id: int, local_rows: np.ndarray, txid: int
    ) -> int:
        """MVCC-delete rows of one slice (the executor resolves which)."""
        deleted = self.slices[slice_id].mark_deleted(local_rows, txid)
        self._check_summaries()
        if deleted:
            self.data_version = next(_stamps)
        return deleted

    def vacuum(self, horizon_txid: int) -> bool:
        """Physically reclaim dead rows in all slices.

        Returns True if any slice changed; in that case row numbering
        changed and ``layout_version`` moves (predicate-cache
        invalidation, §4.3.2).
        """
        changed = False
        for s in self.slices:
            changed |= s.vacuum(horizon_txid, self.rms)
        if changed:
            self._rewritten()
        return changed

    def reorganize(self, order_of: Callable[["Table"], List[np.ndarray]]) -> None:
        """Physically reorder every slice (sorting baselines).

        ``order_of`` maps the table to one permutation array per slice.
        Reorganization changes row numbering: ``layout_version`` moves.
        """
        permutations = order_of(self)
        for s, perm in zip(self.slices, permutations):
            if perm is not None:
                s.rewrite(perm, self.rms)
        self._rewritten()

    def _rewritten(self) -> None:
        """After :meth:`DataSlice.rewrite` of any slices: block indices
        restarted, so none of the table's blocks stays resident (once,
        before anyone reads the new ones), then both versions take one
        fresh stamp."""
        self._check_summaries()
        self.rms.invalidate_table(self.name)
        self.layout_version = self.data_version = next(_stamps)

    # -- helpers -------------------------------------------------------------------

    def _check_summaries(self) -> None:
        """After a write or rewrite, under ``REPRO_VALIDATE``: every
        slice's MVCC summary equals its rows' (DESIGN.md §11)."""
        if _inv.ACTIVE:
            for s in self.slices:
                _inv.check_slice_visibility(s)

    def _to_arrays(self, rows: Mapping[str, Sequence[object]]) -> Dict[str, np.ndarray]:
        missing = set(self.schema.column_names) - set(rows)
        if missing:
            raise ValueError(f"insert into {self.name} missing columns {sorted(missing)}")
        return {
            spec.name: self.column_array(spec.name, rows[spec.name])
            for spec in self.schema.columns
        }

    def column_array(self, column: str, values: Sequence[object]) -> np.ndarray:
        """``values`` converted to ``column``'s physical dtype.

        INSERT converts every column here and UPDATE every assignment,
        before either writes a row, so a refused value changes nothing.
        Columns are NOT NULL: a None would be stored as a string, become
        NaN or fail deep in numpy.  A STRING column holds ``str`` only:
        one number among its values breaks every later comparison.  A
        loose (list or object) value converts exactly or not at all: 2.7
        is no INT64; a DATE takes days or ISO ``'YYYY-MM-DD'`` strings.
        """
        dtype = self.schema.dtype_of(column)
        loose = not isinstance(values, np.ndarray) or values.dtype == object
        if loose and None in values:
            raise ValueError(f"{self.name}: column {column!r} is NOT NULL")
        if dtype is DataType.STRING and not (
            all(isinstance(value, str) for value in values)
            if loose
            else np.asarray(values).dtype.kind == "U"
        ):
            raise ValueError(
                f"{self.name}: STRING column {column!r} takes str values only"
            )
        if not loose or dtype is DataType.STRING:
            return np.asarray(values, dtype=dtype.numpy_dtype)
        where = f"{self.name}: {dtype.name} column {column!r}"
        try:
            if dtype is DataType.DATE:
                values = [date_to_days(v) if isinstance(v, str) else v for v in values]
            array = np.asarray(values, dtype=dtype.numpy_dtype)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(f"{where}: {error}") from None
        for stored, value in zip(array.tolist(), values):
            if stored != value and value == value:  # a FLOAT64 holds NaN
                raise ValueError(f"{where} cannot hold {value!r} exactly")
        return array

    def _assign_slices(self, arrays: Dict[str, np.ndarray], count: int) -> np.ndarray:
        """Slice id per row: hash of dist key, else round-robin batches."""
        if self.schema.dist_key is not None:
            key = arrays[self.schema.dist_key]
            if key.dtype == object:
                # Stable FNV-1a: builtin hash() is PYTHONHASHSEED-salted
                # for str, so string dist keys would land on different
                # slices from run to run.  Lazy import — repro.engine
                # imports this module's package at startup.
                from ..engine.hashing import fnv1a_hash

                hashes = fnv1a_hash(key)
            else:
                # Cheap integer mix; stable across runs (unlike str hash).
                hashes = key.astype(np.int64) * np.int64(2654435761)
            return (hashes % self.num_slices + self.num_slices) % self.num_slices
        assignment = (np.arange(count) + self._round_robin) % self.num_slices
        self._round_robin = (self._round_robin + count) % self.num_slices
        return assignment.astype(np.int64)

    def read_column_all(self, column: str) -> np.ndarray:
        """Concatenated full column across slices (loads, tests)."""
        return np.concatenate(
            [s.columns[column].read_all(self.rms) for s in self.slices]
        )
