"""Predicate sorting: cluster the table by workload predicates (§5.6).

The paper's simplified Qd-tree variant: pick the most common/selective
predicates in the workload and physically reorder the table so rows
that satisfy the same predicate combination are adjacent.  After the
reorganization, zone maps (and block skipping generally) become
effective for those predicates — at the cost of rewriting the table and
(as §5.6 observes) often a *worse* compression ratio, i.e. more blocks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..predicates.ast import Predicate
from ..storage.table import Table

__all__ = ["PredicateSorter"]


class PredicateSorter:
    """Physically clusters a table by a set of workload predicates.

    Rows are ordered lexicographically by their (not satisfies /
    satisfies) bit per predicate — most significant predicate first —
    so each predicate combination forms one contiguous run per slice.
    """

    def __init__(self, predicates: Sequence[Predicate], max_predicates: int = 8):
        if not predicates:
            raise ValueError("need at least one predicate to sort by")
        self.predicates = list(predicates)[:max_predicates]

    def apply(self, table: Table) -> None:
        """Reorganize the table in place (fires a ``layout`` event)."""
        table.reorganize(self._permutations)

    def _permutations(self, table: Table) -> List[Optional[np.ndarray]]:
        permutations: List[Optional[np.ndarray]] = []
        for data_slice in table.slices:
            num_rows = data_slice.num_rows
            if num_rows == 0:
                permutations.append(None)
                continue
            needed = sorted(
                {c for p in self.predicates for c in p.columns()}
                & set(data_slice.columns)
            )
            batch = {
                name: data_slice.columns[name].read_all(table.rms)
                for name in needed
            }
            # Most significant predicate first: np.lexsort sorts by the
            # *last* key primarily, so feed them reversed.  Satisfying
            # rows sort first (descending bit).
            keys = []
            for predicate in reversed(self.predicates):
                try:
                    mask = predicate.evaluate(batch)
                except KeyError:
                    mask = np.zeros(num_rows, dtype=bool)
                keys.append(~mask)
            # Stable tiebreak on original position keeps runs ordered.
            keys.insert(0, np.arange(num_rows))
            permutations.append(np.lexsort(keys))
        return permutations
