"""Cache entry payloads: per-slice qualifying-row state.

Both index variants (§4.1.1–4.1.2) share the same lifecycle:

1. On the first scan, the qualifying rows of each slice are recorded,
   together with ``last_cached_row`` — the slice size at scan time.
2. On a repeat, :meth:`SliceState.rows` returns the rows the scan must
   still look at: the cached qualifying rows (a superset of the truth —
   false positives only) plus the *uncached tail* appended since.
3. After the repeat scanned the tail, :meth:`SliceState.extended`
   builds the state with the tail's qualifying rows folded in, keeping
   the entry complete without rebuilds — the "online under inserts"
   property of §4.3.1.

Rows enter and leave a state as ascending int64 row ids, the one row
set the cache, the scan and storage pass around.  A state converts them
to its payload only when it changes (a repeat that found no appended row
converts nothing), and back to row ids once per plan.  A derived conjunct
set (DESIGN.md §14) enters as the rows its conjunct ``rejected``, alone.

The **range variant** stores at most ``max_ranges`` merged row ranges
(bounded by :meth:`RangeList.coalesce`, the gap heap's batch form).
The **bitmap variant** stores one bit per ``block_size`` rows, set
straight from ``rows // block_size``; it grows with the table but is
~8x smaller at the paper's settings (Table 3).

A range state is **exact** when its ranges are the qualifying rows
themselves, not a superset: every list it was built from was fully
evaluated (an entry's own scan output, never a derived conjunct
set) and ``coalesce`` never merged.  Rows below the
watermark of an exact state then need no re-check, only visibility
(DESIGN.md §14).  Exactness is a property of the state, not of the
entry: a conjunct list may extend the state of an entry a direct scan
created, since both share one key.  A state decoded from a snapshot or
journal comes back inexact, and a bitmap state is never exact.

A state is an immutable value: nothing changes one after its
constructor returns, and folding a tail in yields a *new* state.  The
owning :class:`~repro.core.cache.PredicateCache` publishes it by storing
that one reference into ``CacheEntry.slice_states`` under its lock.  A
reader takes the slot's reference once and works on a state that is
complete and stays so: lock-free scans, journal captures and snapshots
all hold the value itself, and a reader that took the previous state
merely re-scans the tail.

One field is written after the constructor, once: a range state keeps
the block placement of its own rows (:meth:`RangeSliceState.placed`),
which an exact hit on a slice that has not grown takes as its answer.
It is derived from the payload, never part of the value: equality,
``nbytes``, journal records and snapshots ignore it, and two scans that
place the rows at once store equal placements (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

import numpy as np

from .. import invariants as _inv
from .rowrange import RangeList

_Placed = TypeVar("_Placed")

__all__ = [
    "SliceState",
    "RangeSliceState",
    "BitmapSliceState",
    "CacheEntry",
]


class SliceState:
    """Per-slice qualifying-row state (abstract, immutable)."""

    __slots__ = ()

    last_cached_row: int
    #: True when the cached rows are exactly the qualifying rows, so a
    #: hit may take their verdict without re-evaluating the predicate.
    exact: bool

    def rows(self, num_rows: int) -> np.ndarray:
        """Rows a repeated scan must evaluate, ascending: the cached
        qualifying rows plus the uncached tail ``[last_cached_row,
        num_rows)``."""
        raise NotImplementedError

    def count(self, num_rows: int) -> int:
        """``len(self.rows(num_rows))``, read off the payload without
        expanding it."""
        raise NotImplementedError

    def mask(self, num_rows: int) -> np.ndarray:
        """:meth:`rows` as a bool mask over ``[0, num_rows)``, written
        from the payload without expanding it to row ids."""
        raise NotImplementedError

    def extended(
        self, rows: np.ndarray, scanned_upto: int, exact: bool = False,
        rejected: bool = False,
    ) -> "SliceState":
        """The state with the qualifying rows of the previously uncached
        tail folded in — ``self`` when no row was appended since.
        ``rows`` are ascending; only those in ``[last_cached_row,
        scanned_upto)`` are read.  ``exact`` says whether they are the
        tail's truth (fully evaluated) rather than a superset of it;
        ``rejected``, that the tail holds every row but them."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    def _tail_rows(self, rows: np.ndarray, scanned_upto: int) -> np.ndarray:
        """The ascending ``rows`` in ``[last_cached_row, scanned_upto)``."""
        lo, hi = np.searchsorted(rows, (self.last_cached_row, scanned_upto))
        return rows[lo:hi]

    def _check_grows_to(self, scanned_upto: int) -> None:
        if scanned_upto < self.last_cached_row:
            raise ValueError(
                f"cannot shrink cached region from {self.last_cached_row} "
                f"to {scanned_upto}"
            )


class RangeSliceState(SliceState):
    """Bounded list of merged row ranges (§4.1.1)."""

    __slots__ = ("ranges", "last_cached_row", "max_ranges", "exact", "_placed")

    def __init__(
        self,
        rows: np.ndarray,
        scanned_upto: int,
        max_ranges: int,
        exact: bool = False,
    ) -> None:
        qualifying = RangeList.from_rows(rows)
        self.ranges = qualifying.coalesce(max_ranges)
        self.last_cached_row = scanned_upto
        self.max_ranges = max_ranges
        self.exact = exact and len(qualifying) <= max_ranges
        self._placed = None

    @classmethod
    def _wrap(
        cls,
        ranges: RangeList,
        last_cached_row: int,
        max_ranges: int,
        exact: bool = False,
    ) -> "RangeSliceState":
        """Trusted constructor: ``ranges`` is the stored list itself."""
        out = cls.__new__(cls)
        out.ranges = ranges
        out.last_cached_row = last_cached_row
        out.max_ranges = max_ranges
        out.exact = exact
        out._placed = None
        return out

    def placed(
        self, num_rows: int, place: Callable[[np.ndarray], _Placed]
    ) -> _Placed:
        """``place(self.rows(num_rows))``, computed on the first call and
        kept on the state: the block coverage of the cached rows, when
        ``place`` is the slice's ``cover``.

        Only for a slice that has not grown since the state was
        installed (``num_rows == last_cached_row``): its row count and
        the rows below the watermark never change under this state, so
        neither does the placement.  Two callers racing on the first
        call each store an equal value; the last store wins.
        """
        if num_rows != self.last_cached_row:
            raise ValueError(
                f"placement of rows cached up to {self.last_cached_row} "
                f"asked for a slice of {num_rows} rows"
            )
        placed = self._placed
        if placed is None:
            placed = self._placed = place(self.rows(num_rows))
        elif _inv.ACTIVE:
            _inv.check_placement(placed, place(self.rows(num_rows)))
        return placed

    def rows(self, num_rows: int) -> np.ndarray:
        cached = self.ranges.to_row_ids()
        if num_rows <= self.last_cached_row:
            return cached
        tail = np.arange(self.last_cached_row, num_rows, dtype=np.int64)
        return np.concatenate((cached, tail))

    def count(self, num_rows: int) -> int:
        return self.ranges.num_rows + max(0, num_rows - self.last_cached_row)

    def mask(self, num_rows: int) -> np.ndarray:
        # Runs outside, inside, outside, ... a range, then the tail.
        edges = np.empty(2 * len(self.ranges) + 3, dtype=np.int64)
        edges[0] = 0
        edges[1:-2] = self.ranges.bounds.ravel()
        edges[-2] = self.last_cached_row
        edges[-1] = max(num_rows, self.last_cached_row)
        runs = edges[1:] - edges[:-1]
        return np.repeat(np.arange(len(runs)) % 2 == 1, runs)[:num_rows]

    def extended(
        self, rows: np.ndarray, scanned_upto: int, exact: bool = False,
        rejected: bool = False,
    ) -> "RangeSliceState":
        self._check_grows_to(scanned_upto)
        if scanned_upto == self.last_cached_row:
            return self
        # Cached ranges end at or below the watermark and the tail's
        # start at or above it: appending keeps the bounds sorted, and
        # only a tail range starting right at a cached end merges.
        rows = self._tail_rows(rows, scanned_upto)
        tail = (
            RangeList.from_complement(rows, self.last_cached_row, scanned_upto)
            if rejected else RangeList.from_rows(rows)
        )
        bounds = np.concatenate((self.ranges.bounds, tail.bounds))
        seam = len(self.ranges)
        if 0 < seam < len(bounds) and bounds[seam - 1, 1] == bounds[seam, 0]:
            bounds[seam - 1, 1] = bounds[seam, 1]
            bounds = np.delete(bounds, seam, axis=0)
        merged = RangeList._wrap(bounds)
        return self._wrap(
            merged.coalesce(self.max_ranges),
            scanned_upto,
            self.max_ranges,
            self.exact and exact and len(merged) <= self.max_ranges,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSliceState):
            return NotImplemented
        return (
            self.last_cached_row == other.last_cached_row
            and self.max_ranges == other.max_ranges
            and self.ranges == other.ranges
        )

    @property
    def nbytes(self) -> int:
        # Two 8-byte row ids per range plus the watermark.
        return self.ranges.nbytes + 8


class BitmapSliceState(SliceState):
    """One bit per block of ``block_size`` rows (§4.1.2)."""

    __slots__ = ("bits", "last_cached_row", "block_size")

    # A set bit stands for a whole block: never the qualifying rows.
    exact = False

    def __init__(
        self, rows: np.ndarray, scanned_upto: int, block_size: int
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.bits = _block_bits(rows, 0, scanned_upto, block_size)
        self.bits.setflags(write=False)
        self.last_cached_row = scanned_upto
        self.block_size = block_size

    @classmethod
    def _wrap(
        cls, bits: np.ndarray, last_cached_row: int, block_size: int
    ) -> "BitmapSliceState":
        """Trusted constructor: ``bits`` is the stored vector itself."""
        out = cls.__new__(cls)
        bits.setflags(write=False)
        out.bits = bits
        out.last_cached_row = last_cached_row
        out.block_size = block_size
        return out

    def rows(self, num_rows: int) -> np.ndarray:
        return np.flatnonzero(self.mask(max(num_rows, self.last_cached_row)))

    def count(self, num_rows: int) -> int:
        # A set bit stands for its whole block, but the last block ends
        # at the watermark.
        bits, size = self.bits, self.block_size
        cached = int(np.count_nonzero(bits)) * size
        if len(bits) and bits[-1]:
            cached -= len(bits) * size - self.last_cached_row
        return cached + max(0, num_rows - self.last_cached_row)

    def mask(self, num_rows: int) -> np.ndarray:
        marked = np.ones(num_rows, dtype=bool)
        cached = min(num_rows, self.last_cached_row)
        marked[:cached] = np.repeat(self.bits, self.block_size)[:cached]
        return marked

    def extended(
        self, rows: np.ndarray, scanned_upto: int, exact: bool = False,
        rejected: bool = False,
    ) -> "BitmapSliceState":
        self._check_grows_to(scanned_upto)
        if scanned_upto == self.last_cached_row:
            return self
        grown = _block_bits(
            self._tail_rows(rows, scanned_upto), self.last_cached_row,
            scanned_upto, self.block_size, rejected,
        )
        grown[: len(self.bits)] |= self.bits  # a fresh vector, not yet handed out
        return self._wrap(grown, scanned_upto, self.block_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitmapSliceState):
            return NotImplemented
        return (
            self.last_cached_row == other.last_cached_row
            and self.block_size == other.block_size
            and np.array_equal(self.bits, other.bits)
        )

    @property
    def nbytes(self) -> int:
        # One bit per block plus the watermark.
        return (len(self.bits) + 7) // 8 + 8


def _block_bits(
    rows: np.ndarray, start: int, stop: int, block_size: int, rejected: bool = False
) -> np.ndarray:
    """One bool per ``block_size`` rows of ``[0, stop)``: True where a
    row of ``rows`` falls in the block — or, if they are the ``rejected``
    rows of ``[start, stop)``, where the block holds another one there."""
    bits = np.zeros((stop + block_size - 1) // block_size, dtype=bool)
    if rejected:  # the block's rows in range, less those rejected
        first = start // block_size
        edges = np.clip(np.arange(first, len(bits) + 1) * block_size, start, stop)
        dropped = np.bincount(rows // block_size - first, minlength=len(bits) - first)
        bits[first:] = np.diff(edges) > dropped
    else:
        bits[rows // block_size] = True
    return bits


class CacheEntry:
    """One predicate-cache entry: per-slice states plus what a lookup
    reads of it.  Whether it is live is the owning cache's entry table's
    answer alone (:meth:`~repro.core.cache.PredicateCache.record_slice_scan`)."""

    __slots__ = (
        "key",
        "slice_states",
        "build_versions",
        "hits",
        "rows_qualifying",
        "rows_considered",
    )

    def __init__(self, key, num_slices: int, build_versions: dict) -> None:
        self.key = key
        self.slice_states: List[Optional[SliceState]] = [None] * num_slices
        # data_version of each build-side table at entry creation; a
        # mismatch at lookup time means the semi-join filter contents
        # may have changed and the entry is stale (§4.4).
        self.build_versions = dict(build_versions)
        self.hits = 0
        # Folded in by every install (the owning cache's lock held).
        self.rows_qualifying = 0
        self.rows_considered = 0

    @property
    def complete(self) -> bool:
        """True once every slice has recorded state."""
        return all(state is not None for state in self.slice_states)

    @property
    def selectivity(self) -> float:
        """Fraction of considered rows that qualified (1.0 if unknown).

        Drives the "choose the most selective matching entry" rule of
        §4.4 when both a plain and a join-index entry match.
        """
        if self.rows_considered == 0:
            return 1.0
        return self.rows_qualifying / self.rows_considered

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.slice_states if s is not None)
