"""Row-range algebra.

A :class:`RowRange` is a half-open interval ``[start, end)`` of row ids.
A :class:`RangeList` is an ordered, non-overlapping, non-adjacent list of
row ranges.  Range lists are the currency of the whole system:

* the vectorized scan produces a range list of qualifying rows,
* the predicate cache stores (bounded) range lists per cached predicate,
* a cached range list restricts the candidate rows of a repeated scan.

Ranges are half-open (like Python slices) so that lengths and
concatenations are free of ±1 bookkeeping.  The paper describes ranges as
``(start row, end row)`` pairs; the open/closed convention is internal.

Representation
--------------

A :class:`RangeList` stores all of its ranges in one ``(N, 2)`` int64
numpy array (``bounds``), column 0 holding starts and column 1 holding
(exclusive) ends.  The normalization invariant — sorted, disjoint,
non-adjacent, no empty ranges — is expressed on the array as::

    bounds[:, 0] < bounds[:, 1]          (every range non-empty)
    bounds[:-1, 1] < bounds[1:, 0]       (strictly increasing, gaps > 0)

Every set operation works directly on the bounds array (boundary merges,
event sweeps, ``searchsorted``); :class:`RowRange` objects are only
materialized on demand for iteration.  ``num_rows`` is computed once and
cached.  See DESIGN.md ("Array-backed range representation") for the
per-operation complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .. import invariants as _inv

__all__ = ["RowRange", "RangeList"]

_EMPTY_BOUNDS = np.empty((0, 2), dtype=np.int64)
_EMPTY_BOUNDS.setflags(write=False)


@dataclass(frozen=True, slots=True)
class RowRange:
    """A half-open interval ``[start, end)`` of row ids."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"range start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"range end {self.end} < start {self.start}")

    def __len__(self) -> int:
        return self.end - self.start

    def __bool__(self) -> bool:
        return self.end > self.start

    def __contains__(self, row: int) -> bool:
        return self.start <= row < self.end

    def overlaps(self, other: "RowRange") -> bool:
        """True if the two ranges share at least one row."""
        return self.start < other.end and other.start < self.end

    def touches(self, other: "RowRange") -> bool:
        """True if the ranges overlap or are directly adjacent."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "RowRange") -> "RowRange":
        """The overlapping part of the two ranges (may be empty)."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return RowRange(start, max(start, end))

    def union_touching(self, other: "RowRange") -> "RowRange":
        """Merge with a touching range.

        Raises:
            ValueError: if the ranges neither overlap nor touch.
        """
        if not self.touches(other):
            raise ValueError(f"ranges {self} and {other} do not touch")
        return RowRange(min(self.start, other.start), max(self.end, other.end))

    def shift(self, offset: int) -> "RowRange":
        """A copy of this range translated by ``offset`` rows."""
        return RowRange(self.start + offset, self.end + offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start},{self.end})"


class RangeList:
    """An ordered list of disjoint, non-adjacent row ranges.

    The constructor normalizes arbitrary input ranges: it sorts them,
    drops empty ranges, and merges overlapping or adjacent ones.  All set
    operations (union, intersection, complement) preserve the invariant.
    """

    __slots__ = ("_bounds", "_num_rows")

    def __init__(self, ranges: Iterable[RowRange | Tuple[int, int]] = ()) -> None:
        if isinstance(ranges, np.ndarray):
            bounds = np.array(ranges, dtype=np.int64).reshape(-1, 2)
        else:
            items = [
                (r.start, r.end) if isinstance(r, RowRange) else r for r in ranges
            ]
            bounds = (
                np.array(items, dtype=np.int64)
                if items
                else _EMPTY_BOUNDS
            )
        self._bounds = _normalize(_validate(bounds))
        self._num_rows: int | None = None

    # -- constructors -----------------------------------------------------

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
    def from_bounds(cls, bounds: np.ndarray) -> "RangeList":
        """Build from an ``(N, 2)`` array of ``[start, end)`` pairs.

        The array is validated and normalized (sorted, empties dropped,
        overlapping/adjacent pairs merged) — the array-native equivalent
        of the tuple constructor, without per-range objects.
        """
        bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 2)
        return cls._wrap(_normalize(_validate(bounds)))

    @classmethod
    def full(cls, num_rows: int) -> "RangeList":
        """A range list covering ``[0, num_rows)``."""
        if num_rows <= 0:
            return cls._wrap(_EMPTY_BOUNDS, 0)
        return cls._wrap(np.array([[0, num_rows]], dtype=np.int64), int(num_rows))

    @classmethod
    def empty(cls) -> "RangeList":
        return cls._wrap(_EMPTY_BOUNDS, 0)

    @classmethod
    def from_mask(cls, mask: np.ndarray, offset: int = 0) -> "RangeList":
        """Build a range list from a boolean qualification mask.

        This is what the vectorized scan produces: consecutive ``True``
        runs become ranges.  ``offset`` translates mask positions into
        global row ids.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.size == 0 or not mask.any():
            return cls._wrap(_EMPTY_BOUNDS, 0)
        # Run boundaries: diff of the int mask is +1 at run starts and
        # -1 one past run ends.
        diff = np.diff(mask.astype(np.int8))
        starts = np.flatnonzero(diff == 1) + 1
        ends = np.flatnonzero(diff == -1) + 1
        if mask[0]:
            starts = np.concatenate(([0], starts))
        if mask[-1]:
            ends = np.concatenate((ends, [mask.size]))
        bounds = np.empty((len(starts), 2), dtype=np.int64)
        bounds[:, 0] = starts
        bounds[:, 1] = ends
        if offset:
            bounds += offset
        return cls._wrap(bounds, int(np.count_nonzero(mask)))

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

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._bounds)

    def __iter__(self) -> Iterator[RowRange]:
        for start, end in self._bounds:
            yield RowRange(int(start), int(end))

    def __getitem__(self, idx: int) -> RowRange:
        start, end = self._bounds[idx]
        return RowRange(int(start), int(end))

    def __bool__(self) -> bool:
        return len(self._bounds) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeList):
            return NotImplemented
        return np.array_equal(self._bounds, other._bounds)

    def __hash__(self) -> int:
        return hash(self._bounds.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeList({[RowRange(int(s), int(e)) for s, e in self._bounds]!r})"

    # -- array views -------------------------------------------------------

    @property
    def bounds(self) -> np.ndarray:
        """The ``(N, 2)`` int64 bounds array (read-only view)."""
        return self._bounds

    @property
    def starts(self) -> np.ndarray:
        """Read-only view of all range starts."""
        return self._bounds[:, 0]

    @property
    def ends(self) -> np.ndarray:
        """Read-only view of all (exclusive) range ends."""
        return self._bounds[:, 1]

    # -- measures ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Total number of rows covered by all ranges (cached)."""
        if self._num_rows is None:
            self._num_rows = int(
                np.sum(self._bounds[:, 1] - self._bounds[:, 0])
            )
        return self._num_rows

    @property
    def span(self) -> RowRange:
        """The bounding range ``[first.start, last.end)`` (empty if none)."""
        if not len(self._bounds):
            return RowRange(0, 0)
        return RowRange(int(self._bounds[0, 0]), int(self._bounds[-1, 1]))

    def contains_row(self, row: int) -> bool:
        """Binary search membership test for a single row id."""
        idx = int(np.searchsorted(self._bounds[:, 0], row, side="right")) - 1
        return idx >= 0 and row < self._bounds[idx, 1]

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "RangeList") -> "RangeList":
        """Rows in either list."""
        if not other:
            return self
        if not self:
            return other
        return RangeList._wrap(
            _normalize(np.concatenate((self._bounds, other._bounds)))
        )

    def intersect(self, other: "RangeList") -> "RangeList":
        """Rows in both lists (vectorized boundary sweep)."""
        a, b = self._bounds, other._bounds
        if not len(a) or not len(b):
            return RangeList.empty()
        # Event sweep over all boundaries: +1 at starts, -1 at ends,
        # ends sorted before coincident starts (half-open semantics).
        # Coverage 2 between consecutive events means "inside both".
        points = np.concatenate((a[:, 0], b[:, 0], a[:, 1], b[:, 1]))
        deltas = np.empty(len(points), dtype=np.int8)
        half = len(a) + len(b)
        deltas[:half] = 1
        deltas[half:] = -1
        order = np.lexsort((deltas, points))
        points = points[order]
        coverage = np.cumsum(deltas[order])
        # Coverage changes at every event, so each maximal cov==2 region
        # is a single inter-event segment; empty segments are dropped.
        idx = np.flatnonzero(coverage == 2)
        starts = points[idx]
        ends = points[idx + 1]
        keep = ends > starts
        bounds = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64)
        bounds[:, 0] = starts[keep]
        bounds[:, 1] = ends[keep]
        return RangeList._wrap(bounds)

    def difference(self, other: "RangeList") -> "RangeList":
        """Rows in this list but not in ``other``."""
        if not len(other._bounds) or not len(self._bounds):
            return self
        span_end = max(self.span.end, other.span.end)
        return self.intersect(other.complement(span_end))

    def complement(self, num_rows: int) -> "RangeList":
        """Rows in ``[0, num_rows)`` not covered by this list."""
        if num_rows <= 0:
            return RangeList.empty()
        clipped = self.clip(0, num_rows)._bounds
        # Gaps between consecutive ranges, plus the leading/trailing
        # remainder of the domain.
        starts = np.concatenate(([0], clipped[:, 1]))
        ends = np.concatenate((clipped[:, 0], [num_rows]))
        keep = ends > starts
        bounds = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64)
        bounds[:, 0] = starts[keep]
        bounds[:, 1] = ends[keep]
        return RangeList._wrap(bounds)

    # -- transforms ----------------------------------------------------------

    def clip(self, start: int, end: int) -> "RangeList":
        """Restrict the list to the window ``[start, end)``."""
        b = self._bounds
        if not len(b) or end <= start:
            return RangeList.empty()
        if start <= b[0, 0] and end >= b[-1, 1]:
            return self
        lo = int(np.searchsorted(b[:, 1], start, side="right"))
        hi = int(np.searchsorted(b[:, 0], end, side="left"))
        if lo >= hi:
            return RangeList.empty()
        sub = b[lo:hi].copy()
        if sub[0, 0] < start:
            sub[0, 0] = start
        if sub[-1, 1] > end:
            sub[-1, 1] = end
        return RangeList._wrap(sub)

    def shift(self, offset: int) -> "RangeList":
        """Translate every range by ``offset`` rows."""
        if not len(self._bounds):
            return self
        if self._bounds[0, 0] + offset < 0:
            raise ValueError(
                f"range start must be >= 0, got {int(self._bounds[0, 0]) + offset}"
            )
        return RangeList._wrap(self._bounds + np.int64(offset), self._num_rows)

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

    def to_mask(self, num_rows: int) -> np.ndarray:
        """Materialize as a boolean mask over ``[0, num_rows)``."""
        if num_rows <= 0:
            return np.zeros(max(num_rows, 0), dtype=bool)
        clipped = self.clip(0, num_rows)._bounds
        # Boundary-delta accumulation: +1 at starts, -1 at ends, prefix
        # sum > 0 marks covered rows.  All boundary points are distinct
        # by the normalization invariant, so plain fancy indexing works.
        delta = np.zeros(num_rows + 1, dtype=np.int8)
        delta[clipped[:, 0]] = 1
        delta[clipped[:, 1]] = -1
        return np.cumsum(delta[:-1]).astype(bool)

    def to_row_ids(self) -> np.ndarray:
        """Materialize as an int64 array of row ids (vectorized)."""
        b = self._bounds
        if not len(b):
            return np.empty(0, dtype=np.int64)
        lengths = b[:, 1] - b[:, 0]
        total = self.num_rows
        # Prefix-sum trick: fill with ones, plant each range's start as a
        # jump at its first output slot, cumulative-sum the whole thing.
        out = np.ones(total, dtype=np.int64)
        out[0] = b[0, 0]
        if len(b) > 1:
            offsets = np.cumsum(lengths[:-1])
            out[offsets] = b[1:, 0] - (b[:-1, 1] - 1)
        return np.cumsum(out)

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Plain ``(start, end)`` tuples, e.g. for serialization."""
        return [(int(s), int(e)) for s, e in self._bounds]

    def covers(self, other: "RangeList") -> bool:
        """True if every row of ``other`` is contained in this list."""
        b = other._bounds
        if not len(b):
            return True
        if not len(self._bounds):
            return False
        idx = np.searchsorted(self._bounds[:, 0], b[:, 0], side="right") - 1
        if (idx < 0).any():
            return False
        return bool((b[:, 1] <= self._bounds[idx, 1]).all())

    @property
    def nbytes(self) -> int:
        """Memory footprint: two 8-byte row ids per range (paper §4.1.1)."""
        return 16 * len(self._bounds)


def _validate(bounds: np.ndarray) -> np.ndarray:
    """Reject negative starts and inverted ranges (RowRange's contract)."""
    if len(bounds):
        if (bounds[:, 0] < 0).any():
            bad = int(bounds[bounds[:, 0] < 0][0, 0])
            raise ValueError(f"range start must be >= 0, got {bad}")
        inverted = bounds[:, 1] < bounds[:, 0]
        if inverted.any():
            s, e = bounds[inverted][0]
            raise ValueError(f"range end {int(e)} < start {int(s)}")
    return bounds


def _normalize(bounds: np.ndarray) -> np.ndarray:
    """Sort, drop empties, and merge overlapping/adjacent ranges."""
    nonempty = bounds[:, 1] > bounds[:, 0]
    if not nonempty.all():
        bounds = bounds[nonempty]
    n = len(bounds)
    if n == 0:
        return _EMPTY_BOUNDS
    if n > 1:
        starts = bounds[:, 0]
        if (starts[1:] < starts[:-1]).any():
            bounds = bounds[np.argsort(starts, kind="stable")]
        starts = bounds[:, 0]
        # Running max of ends finds merged-group extents; a new group
        # starts wherever a start exceeds everything seen so far
        # (strictly — touching ranges merge).
        cummax = np.maximum.accumulate(bounds[:, 1])
        breaks = np.flatnonzero(starts[1:] > cummax[:-1]) + 1
        if len(breaks) < n - 1:
            merged = np.empty((len(breaks) + 1, 2), dtype=np.int64)
            merged[0, 0] = starts[0]
            merged[1:, 0] = starts[breaks]
            merged[:-1, 1] = cummax[breaks - 1]
            merged[-1, 1] = cummax[-1]
            return merged
    return np.ascontiguousarray(bounds)
