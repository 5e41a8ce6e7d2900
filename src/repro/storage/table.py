"""Tables: schema, distribution across slices, MVCC DML, vacuum.

A :class:`Table` is a set of :class:`~repro.storage.slice.DataSlice`
shards.  Rows are distributed by a hash of the distribution key (or
round-robin without one), mirroring Redshift's DISTKEY.  The table
exposes the change events the caching layers key off:

* ``data_version``   — bumped by *any* DML; result-cache entries and
  join-index (semi-join) predicate-cache entries depend on it.
* ``layout_version`` — bumped only when physical row numbering changes
  (vacuum, sort/reorganization); plain predicate-cache entries depend
  only on this, which is the paper's central "online under DML" point.

Listeners registered via :meth:`on_change` receive ``(table, event)``
with event in ``{"data", "layout"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dtypes import DataType
from .rms import ManagedStorage
from .slice import DataSlice

__all__ = ["ColumnSpec", "TableSchema", "Table"]

ChangeListener = Callable[["Table", str], None]


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
    sort_key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {self.name}: {names}")
        if self.dist_key is not None and self.dist_key not in names:
            raise ValueError(f"dist key {self.dist_key!r} not a column of {self.name}")
        for key in self.sort_key:
            if key not in names:
                raise ValueError(f"sort key {key!r} not a column of {self.name}")

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

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
        block_store=None,
    ) -> None:
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        self.schema = schema
        self.rms = rms if rms is not None else ManagedStorage()
        self.block_store = block_store
        self.slices: List[DataSlice] = [
            DataSlice(
                schema.name,
                slice_id,
                {c.name: c.dtype for c in schema.columns},
                rows_per_block,
                block_store=block_store,
            )
            for slice_id in range(num_slices)
        ]
        self.data_version = 0
        self.layout_version = 0
        self._listeners: List[ChangeListener] = []
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

    # -- change events -----------------------------------------------------------

    def on_change(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def off_change(self, listener: ChangeListener) -> None:
        """Unsubscribe ``listener`` (a no-op if it is not subscribed)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, event: str) -> None:
        # Over a copy: a listener may be unsubscribed while events fire.
        for listener in tuple(self._listeners):
            listener(self, event)

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
        self.data_version += 1
        self._notify("data")
        return count

    def delete_local_rows(
        self, slice_id: int, local_rows: np.ndarray, txid: int
    ) -> int:
        """MVCC-delete rows of one slice (the executor resolves which)."""
        deleted = self.slices[slice_id].mark_deleted(local_rows, txid)
        if deleted:
            self.data_version += 1
            self._notify("data")
        return deleted

    def vacuum(self, horizon_txid: int) -> bool:
        """Physically reclaim dead rows in all slices.

        Returns True if any slice changed; in that case row numbering
        changed and a ``layout`` event is broadcast (predicate-cache
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
        Reorganization changes row numbering: ``layout`` event fires.
        """
        permutations = order_of(self)
        for s, perm in zip(self.slices, permutations):
            if perm is not None:
                s.rewrite(perm, self.rms)
        self._rewritten()

    def _rewritten(self) -> None:
        """After :meth:`DataSlice.rewrite` of any slices: block indices
        restarted, so the table's decoded blocks go (once, before anyone
        reads the new ones), then the versions move and listeners hear."""
        self.rms.invalidate_table(self.name)
        self.layout_version += 1
        self.data_version += 1
        self._notify("layout")
        self._notify("data")

    # -- helpers -------------------------------------------------------------------

    def _to_arrays(self, rows: Mapping[str, Sequence[object]]) -> Dict[str, np.ndarray]:
        missing = set(self.schema.column_names) - set(rows)
        if missing:
            raise ValueError(f"insert into {self.name} missing columns {sorted(missing)}")
        arrays: Dict[str, np.ndarray] = {}
        for spec in self.schema.columns:
            arrays[spec.name] = np.asarray(
                rows[spec.name], dtype=spec.dtype.numpy_dtype
            )
        return arrays

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
