"""Zone maps: per-block min/max bounds for block pruning.

Redshift's first scan step eliminates blocks whose min/max bounds cannot
satisfy the pushed-down predicate (§4.2.2).  A :class:`ZoneMap` holds the
bounds for every sealed block of one column; pruning intersects the
predicate's implied value interval with each block's interval
(:meth:`repro.predicates.ast.Bounds.excludes`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ZoneMap"]


class ZoneMap:
    """Bounds for all sealed blocks of one column of one slice.

    Minima and maxima live in one ``(2, capacity)`` array (doubling
    growth, dtype of the first block; ``object`` for non-numeric
    columns) so pruning compares all blocks at once.  A block without
    usable bounds holds None in both rows and never prunes.
    """

    __slots__ = ("_bounds", "_size")

    def __init__(self) -> None:
        self._bounds: Optional[np.ndarray] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

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
        self._size = end

    def pruned_blocks(self, bounds) -> np.ndarray:
        """Boolean array: True where the block can be skipped entirely.

        :meth:`Bounds.excludes` over the min/max arrays, two array
        comparisons.  numpy gives up on the first block it cannot
        compare (an unknown bound, a numeric bound against string
        blocks) and ``excludes`` then answers a plain ``False``; the
        same method decides block by block instead.
        """
        if not self._size:
            return np.zeros(0, dtype=bool)
        minima, maxima = self._bounds[:, : self._size]
        pruned = bounds.excludes(minima, maxima)
        if np.ndim(pruned) == 0:
            pruned = [
                bounds.excludes(lo, hi)
                for lo, hi in zip(minima.tolist(), maxima.tolist())
            ]
        return np.asarray(pruned, dtype=bool)

    @property
    def nbytes(self) -> int:
        """16 bytes (min + max) per block, as in the paper's Table 3."""
        return 16 * self._size

