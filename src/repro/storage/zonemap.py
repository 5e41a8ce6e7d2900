"""Zone maps: per-block min/max bounds for block pruning.

Redshift's first scan step eliminates blocks whose min/max bounds cannot
satisfy the pushed-down predicate (§4.2.2).  A :class:`ZoneMap` holds the
bounds for every sealed block of one column; pruning intersects the
predicate's implied value interval with each block's interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["ZoneEntry", "ZoneMap"]


@dataclass(frozen=True, slots=True)
class ZoneEntry:
    """Min/max bounds of one block (None for non-comparable blocks)."""

    minimum: Optional[object]
    maximum: Optional[object]

    def may_contain(self, bounds) -> bool:
        """True unless the bound interval and block interval are disjoint.

        ``bounds`` is a :class:`repro.predicates.ast.Bounds`; unbounded
        sides are None.  Unknown block bounds always *may* contain
        matches (no false negatives).  Strict endpoints additionally
        prune blocks whose extreme equals the excluded bound.
        """
        if self.minimum is None or self.maximum is None:
            return True
        try:
            if bounds.hi is not None:
                if self.minimum > bounds.hi:
                    return False
                if bounds.hi_strict and self.minimum >= bounds.hi:
                    return False
            if bounds.lo is not None:
                if self.maximum < bounds.lo:
                    return False
                if bounds.lo_strict and self.maximum <= bounds.lo:
                    return False
        except TypeError:
            # Incomparable types (e.g. numeric bound vs string block):
            # never prune on unsound comparisons.
            return True
        return True


class ZoneMap:
    """Bounds for all sealed blocks of one column of one slice.

    Minima and maxima live in one ``(2, capacity)`` array (doubling
    growth, dtype of the first block; ``object`` for non-numeric
    columns) so pruning compares all blocks at once.  Blocks without
    usable bounds are listed in ``_unknown`` and never prune;
    ``ZoneMap[i]`` hands back the scalar :class:`ZoneEntry`.
    """

    __slots__ = ("_bounds", "_size", "_unknown")

    def __init__(self) -> None:
        self._bounds: Optional[np.ndarray] = None
        self._size = 0
        self._unknown: List[int] = []

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, block_index: int) -> ZoneEntry:
        index = range(self._size)[block_index]
        if index in self._unknown:
            return ZoneEntry(None, None)
        minimum, maximum = self._bounds[:, index]
        return ZoneEntry(_to_python(minimum), _to_python(maximum))

    def append_blocks(self, minima: np.ndarray, maxima: np.ndarray) -> None:
        """Record the bounds of newly sealed blocks, one per element —
        the minima and maxima the seal's statistics pass computed
        (:func:`~repro.storage.compression.seal_blocks`).  A None bound
        (an object block whose values do not compare) is unknown: that
        block never prunes."""
        start = self._size
        end = start + len(minima)
        if self._bounds is None or end > self._bounds.shape[1]:
            dtype = minima.dtype if minima.dtype.kind in "biuf" else object
            grown = np.empty((2, max(16, 2 * end)), dtype=dtype)
            if start:
                grown[:, :start] = self._bounds[:, :start]
            self._bounds = grown
        self._bounds[0, start:end] = minima
        self._bounds[1, start:end] = maxima
        if minima.dtype == object:
            self._unknown.extend(
                start + i for i, bound in enumerate(minima) if bound is None
            )
        self._size = end

    def pruned_blocks(self, bounds) -> np.ndarray:
        """Boolean array: True where the block can be skipped entirely.

        :meth:`ZoneEntry.may_contain` for every block at once, in two
        array comparisons.  numpy gives up on the first pair it cannot
        compare (a numeric bound against string blocks); the scalar rule
        then decides block by block, so the answer is the same either way.
        """
        if not self._size:
            return np.zeros(0, dtype=bool)
        minima, maxima = self._bounds[:, : self._size]
        pruned = np.zeros(self._size, dtype=bool)
        lo, hi = bounds.lo, bounds.hi
        try:
            if hi is not None:
                pruned |= minima >= hi if bounds.hi_strict else minima > hi
            if lo is not None:
                pruned |= maxima <= lo if bounds.lo_strict else maxima < lo
        except TypeError:
            return np.array(
                [not self[i].may_contain(bounds) for i in range(self._size)],
                dtype=bool,
            )
        pruned[self._unknown] = False
        return pruned

    @property
    def nbytes(self) -> int:
        """16 bytes (min + max) per block, as in the paper's Table 3."""
        return 16 * self._size


def _to_python(value: object) -> object:
    """Convert numpy scalars to plain Python for stable comparisons."""
    if isinstance(value, np.generic):
        return value.item()
    return value
