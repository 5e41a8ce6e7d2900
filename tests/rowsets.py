"""Row-set helpers for tests: ascending int64 row ids from half-open
``(start, end)`` pairs, and back.

The engine passes row sets as ascending row ids; a range state stores a
:class:`~repro.core.rowrange.RangeList`.  Tests write both as pairs.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from repro.core.rowrange import RangeList

__all__ = ["pairs", "ranges", "rows"]


def rows(*spans: Tuple[int, int]) -> np.ndarray:
    """The ascending row ids of the half-open ``spans`` (sorted,
    disjoint)."""
    return np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [np.arange(start, end, dtype=np.int64) for start, end in spans]
    )


def ranges(*spans: Tuple[int, int]) -> RangeList:
    """A range list of the half-open ``spans`` (overlap and adjacency
    merge, as a set of rows)."""
    covered = set()
    for start, end in spans:
        covered.update(range(start, end))
    return RangeList.from_rows(np.array(sorted(covered), dtype=np.int64))


def pairs(row_set: Union[RangeList, np.ndarray]) -> List[Tuple[int, int]]:
    """The maximal runs of a range list or of ascending row ids, as
    ``(start, end)`` tuples."""
    if not isinstance(row_set, RangeList):
        row_set = RangeList.from_rows(row_set)
    return [(int(start), int(end)) for start, end in row_set.bounds]
