"""The range state's payload: a bounded list of row ranges.

A :class:`RangeList` is what a range slice state stores (§4.1.1): an
ordered, non-overlapping, non-adjacent list of half-open row ranges
``[start, end)``.  It is not the row set in flight.  The predicate
cache, the scan and storage pass ascending int64 row ids; a range state
turns them (or the rows a conjunct rejected) into its payload
(:meth:`RangeList.from_rows` / :meth:`RangeList.from_complement`, bounded by
:meth:`RangeList.coalesce`) only when the state changes, and back into
row ids (:meth:`RangeList.to_row_ids`) when a plan asks for its rows.

Ranges are half-open (like Python slices) so that lengths and
concatenations are free of ±1 bookkeeping.  The paper describes ranges as
``(start row, end row)`` pairs; the open/closed convention is internal.

Representation
--------------

All ranges sit in one ``(N, 2)`` int64 numpy array (``bounds``), column
0 holding starts and column 1 holding (exclusive) ends.  The
normalization invariant — sorted, disjoint, non-adjacent, no empty
ranges — is expressed on the array as::

    bounds[:, 0] < bounds[:, 1]          (every range non-empty)
    bounds[:-1, 1] < bounds[1:, 0]       (strictly increasing, gaps > 0)

Every constructor builds normalized bounds directly (from ascending row
ids or their complement), so nothing re-sorts or re-merges.  ``num_rows`` is
computed once and cached.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import invariants as _inv

__all__ = ["RangeList"]

_EMPTY_BOUNDS = np.empty((0, 2), dtype=np.int64)
_EMPTY_BOUNDS.setflags(write=False)


class RangeList:
    """An ordered list of disjoint, non-adjacent row ranges."""

    __slots__ = ("_bounds", "_num_rows")

    @classmethod
    def _wrap(cls, bounds: np.ndarray, num_rows: int | None = None) -> "RangeList":
        """Trusted constructor: ``bounds`` must already be normalized."""
        if _inv.ACTIVE:
            _inv.check_bounds(bounds)
        out = cls.__new__(cls)
        bounds.setflags(write=False)
        out._bounds = bounds
        out._num_rows = num_rows
        return out

    @classmethod
    def from_rows(cls, rows: Sequence[int] | np.ndarray) -> "RangeList":
        """Build a range list from individual (unsorted, unique) row ids."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return cls._wrap(_EMPTY_BOUNDS, 0)
        if rows.size > 1:
            deltas = np.diff(rows)
            if not (deltas > 0).all():  # not already sorted-unique
                rows = np.unique(rows)
                deltas = np.diff(rows)
            breaks = np.flatnonzero(deltas > 1)
        else:
            breaks = np.empty(0, dtype=np.int64)
        bounds = np.empty((len(breaks) + 1, 2), dtype=np.int64)
        bounds[0, 0] = rows[0]
        bounds[1:, 0] = rows[breaks + 1]
        bounds[:-1, 1] = rows[breaks] + 1
        bounds[-1, 1] = rows[-1] + 1
        return cls._wrap(bounds, int(rows.size))

    @classmethod
    def from_complement(cls, rows: np.ndarray, start: int, stop: int) -> "RangeList":
        """Every row of ``[start, stop)`` but the ascending, unique ``rows``
        inside it: the gaps between them, in O(len(rows))."""
        bounds = np.empty((len(rows) + 1, 2), dtype=np.int64)
        bounds[0, 0] = start
        bounds[1:, 0] = rows + 1
        bounds[:-1, 1] = rows
        bounds[-1, 1] = stop
        return cls._wrap(
            bounds[bounds[:, 0] < bounds[:, 1]], stop - start - len(rows)
        )

    def __len__(self) -> int:
        return len(self._bounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeList):
            return NotImplemented
        return np.array_equal(self._bounds, other._bounds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeList({self._bounds.tolist()!r})"

    @property
    def bounds(self) -> np.ndarray:
        """The ``(N, 2)`` int64 bounds array (read-only view)."""
        return self._bounds

    @property
    def num_rows(self) -> int:
        """Total number of rows covered by all ranges (cached)."""
        if self._num_rows is None:
            self._num_rows = int(
                np.sum(self._bounds[:, 1] - self._bounds[:, 0])
            )
        return self._num_rows

    def coalesce(self, max_ranges: int) -> "RangeList":
        """Reduce to at most ``max_ranges`` ranges by closing smallest gaps.

        This is what bounds an entry's ranges at install time: the
        batch form of the paper's gap heap (§4.1.1; the streaming
        construction lives in ``tests/gapheap.py`` as the reference this
        is checked against).  We keep the ``max_ranges - 1`` largest
        gaps between consecutive ranges and merge across all other
        gaps.  The result covers a superset of the original rows (false
        positives only).
        """
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        b = self._bounds
        if len(b) <= max_ranges:
            return self
        gaps = b[1:, 0] - b[:-1, 1]
        kept = max_ranges - 1
        if kept == 0:
            keep = np.empty(0, dtype=np.int64)
        else:
            # Top-k gap selection without a full sort; ties are broken
            # arbitrarily but deterministically by np.argpartition.
            keep = np.sort(np.argpartition(gaps, len(gaps) - kept)[-kept:])
        bounds = np.empty((kept + 1, 2), dtype=np.int64)
        bounds[0, 0] = b[0, 0]
        bounds[1:, 0] = b[keep + 1, 0]
        bounds[:-1, 1] = b[keep, 1]
        bounds[-1, 1] = b[-1, 1]
        return RangeList._wrap(bounds)

    def to_row_ids(self) -> np.ndarray:
        """Materialize as an ascending int64 array of row ids."""
        b = self._bounds
        lengths = b[:, 1] - b[:, 0]
        # Output slot i of a range holds its start plus i minus the
        # range's first slot: one repeat of the per-range shift, plus
        # the slot numbers.
        first = np.cumsum(lengths) - lengths
        out = np.repeat(b[:, 0] - first, lengths)
        out += np.arange(len(out))
        return out

    @property
    def nbytes(self) -> int:
        """Memory footprint: two 8-byte row ids per range (paper §4.1.1)."""
        return 16 * len(self._bounds)
