"""Reference: online bounded-range construction via a heap of the largest gaps.

The paper (§4.1.1) limits the number of ranges stored per cache entry.
While the scan streams qualifying row ranges, a bounded min-heap tracks
the *largest gaps* between qualifying rows; after the scan the kept gaps
are complemented into at most ``max_ranges`` merged ranges.

The engine does not run this: a slice scan has all its qualifying rows
at the barrier, so installs bound their ranges with the batch form,
:meth:`repro.core.rowrange.RangeList.coalesce`.  This module is the
paper's streaming construction, kept as the reference ``coalesce`` is
checked against (``tests/test_gapheap.py``).

Merging only ever *adds* rows to the cached ranges (false positives); it
never drops a qualifying row (no false negatives), which is the safety
property the predicate cache relies on — the vectorized scan re-checks
the predicate on cached rows.

Two feeding modes share the same state:

* :meth:`add` streams one range at a time through a classic bounded
  min-heap (``heapq``), for callers that produce ranges incrementally.
* :meth:`add_ranges` ingests whole ``starts``/``ends`` arrays at once:
  gap widths are computed vectorially and the top ``max_ranges - 1``
  gaps are selected with ``np.partition``-style selection instead of a
  per-gap Python heap loop.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.core.rowrange import RangeList

__all__ = ["GapHeapRangeBuilder"]


class GapHeapRangeBuilder:
    """Builds a bounded :class:`RangeList` from streamed qualifying ranges.

    Feed qualifying ranges in ascending row order with :meth:`add` (or in
    bulk with :meth:`add_ranges`); call :meth:`finish` once to obtain the
    merged result.  At most ``max_ranges`` ranges are produced, by
    keeping the ``max_ranges - 1`` widest gaps seen between consecutive
    qualifying ranges.

    Example:
        >>> b = GapHeapRangeBuilder(max_ranges=2)
        >>> for r in [(0, 2), (4, 6), (100, 110)]:
        ...     b.add(*r)
        >>> b.finish().bounds.tolist()
        [[0, 6], [100, 110]]
    """

    def __init__(self, max_ranges: int) -> None:
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        self.max_ranges = max_ranges
        # Min-heap of (gap_width, gap_start, gap_end) keeping the largest
        # max_ranges - 1 gaps.
        self._gaps: List[Tuple[int, int, int]] = []
        self._first_start: Optional[int] = None
        self._last_end: Optional[int] = None
        self._finished = False

    @property
    def rows_seen(self) -> int:
        """Number of rows spanned so far ignoring gaps (diagnostics)."""
        if self._first_start is None or self._last_end is None:
            return 0
        return self._last_end - self._first_start

    def add(self, start: int, end: int) -> None:
        """Stream the next qualifying range ``[start, end)``.

        Ranges must arrive in ascending, non-overlapping order.
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        if end <= start:
            return
        if self._last_end is not None and start < self._last_end:
            raise ValueError(
                f"ranges must be streamed in ascending order; "
                f"got start {start} < previous end {self._last_end}"
            )
        if self._first_start is None:
            self._first_start = start
        elif start > self._last_end:  # a gap between qualifying runs
            self._push_gap(self._last_end, start)
        self._last_end = end

    def add_ranges(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Bulk-stream qualifying ranges ``[starts[i], ends[i])``.

        Ranges must be in ascending, non-overlapping order (empty ranges
        are ignored).  All gap bookkeeping is vectorized: gap widths come
        from one array subtraction and the largest ``max_ranges - 1``
        survivors — merged with any gaps already held — are selected with
        ``np.argpartition`` instead of per-gap heap pushes.
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        nonempty = ends > starts
        if not nonempty.all():
            starts, ends = starts[nonempty], ends[nonempty]
        if not len(starts):
            return
        if len(starts) > 1 and (starts[1:] < ends[:-1]).any():
            bad = int(np.flatnonzero(starts[1:] < ends[:-1])[0])
            raise ValueError(
                f"ranges must be streamed in ascending order; "
                f"got start {int(starts[bad + 1])} < previous end {int(ends[bad])}"
            )
        if self._last_end is not None and starts[0] < self._last_end:
            raise ValueError(
                f"ranges must be streamed in ascending order; "
                f"got start {int(starts[0])} < previous end {self._last_end}"
            )

        gap_starts = ends[:-1]
        gap_ends = starts[1:]
        if self._first_start is None:
            self._first_start = int(starts[0])
        elif starts[0] > self._last_end:  # gap back to the previous batch
            gap_starts = np.concatenate(([self._last_end], gap_starts))
            gap_ends = np.concatenate(([starts[0]], gap_ends))
        self._last_end = int(ends[-1])

        keep = self.max_ranges - 1
        if keep == 0:
            return
        widths = gap_ends - gap_starts
        positive = widths > 0
        if not positive.all():
            gap_starts, gap_ends, widths = (
                gap_starts[positive], gap_ends[positive], widths[positive],
            )
        if not len(widths):
            return
        if self._gaps:  # merge with gaps carried over from scalar adds
            carried = np.array(self._gaps, dtype=np.int64)
            widths = np.concatenate((carried[:, 0], widths))
            gap_starts = np.concatenate((carried[:, 1], gap_starts))
            gap_ends = np.concatenate((carried[:, 2], gap_ends))
        if len(widths) > keep:
            top = np.argpartition(widths, len(widths) - keep)[-keep:]
            widths, gap_starts, gap_ends = (
                widths[top], gap_starts[top], gap_ends[top],
            )
        self._gaps = [
            (int(w), int(s), int(e))
            for w, s, e in zip(widths, gap_starts, gap_ends)
        ]
        heapq.heapify(self._gaps)

    def add_range_list(self, ranges: RangeList) -> None:
        """Stream every range of a :class:`RangeList` (bulk path)."""
        self.add_ranges(ranges.bounds[:, 0], ranges.bounds[:, 1])

    def _push_gap(self, gap_start: int, gap_end: int) -> None:
        width = gap_end - gap_start
        entry = (width, gap_start, gap_end)
        if len(self._gaps) < self.max_ranges - 1:
            heapq.heappush(self._gaps, entry)
        elif self._gaps and width > self._gaps[0][0]:
            heapq.heapreplace(self._gaps, entry)
        # else: gap is smaller than all kept gaps -> merged over.

    def finish(self) -> RangeList:
        """Complement the kept gaps into the final bounded range list."""
        self._finished = True
        if self._first_start is None:
            return RangeList.from_rows([])
        assert self._last_end is not None
        if not self._gaps:
            bounds = np.array([[self._first_start, self._last_end]], dtype=np.int64)
            return RangeList._wrap(bounds)
        kept = np.array(
            sorted((start, end) for _, start, end in self._gaps), dtype=np.int64
        )
        bounds = np.empty((len(kept) + 1, 2), dtype=np.int64)
        bounds[0, 0] = self._first_start
        bounds[1:, 0] = kept[:, 1]
        bounds[:-1, 1] = kept[:, 0]
        bounds[-1, 1] = self._last_end
        return RangeList._wrap(bounds)
