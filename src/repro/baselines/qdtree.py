"""A query-driven Qd-tree data layout (§3.3, Fig. 9; Yang et al. [33]).

The Qd-tree recursively cuts a table by workload predicates: each inner
node splits rows into the part that satisfies one predicate and the
part that does not; leaves are contiguous partitions in the rewritten
table.  A later scan with predicate ``p`` can *skip every leaf whose
path proves ¬p`` — and partially matching predicates (e.g. ``x < 5``
against a cut on ``x < 10``) still exploit the cut, which is the
technique's hit-rate advantage over exact-match caches.

This implementation builds per-slice trees (our tables are sliced),
produces the reorganization permutation, and routes query predicates to
the leaves that may contain matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..predicates.ast import Predicate
from ..storage.table import Table

__all__ = ["QdTree", "QdLeaf"]


@dataclass
class QdLeaf:
    """One partition: its row span in the rewritten layout and the
    predicate signature proven by its path (predicate index -> bool)."""

    start: int
    end: int
    signature: Dict[int, bool] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.end - self.start


class _Inner:
    __slots__ = ("predicate_index", "yes", "no")

    def __init__(self, predicate_index: int, yes, no) -> None:
        self.predicate_index = predicate_index
        self.yes = yes
        self.no = no


class QdTree:
    """Query-driven layout for one table.

    Args:
        predicates: the workload's candidate cut predicates.
        min_leaf_rows: stop cutting below this partition size (the
            paper's block granularity: cutting below a block gains
            nothing).
    """

    def __init__(
        self, predicates: Sequence[Predicate], min_leaf_rows: int = 1024
    ) -> None:
        if not predicates:
            raise ValueError("need at least one cut predicate")
        self.predicates = list(predicates)
        self.min_leaf_rows = min_leaf_rows
        self._slice_leaves: List[List[QdLeaf]] = []
        self.built = False

    # -- construction ----------------------------------------------------------

    def build_and_apply(self, table: Table) -> None:
        """Build per-slice trees and physically reorganize the table."""
        permutations: List[Optional[np.ndarray]] = []
        self._slice_leaves = []
        for data_slice in table.slices:
            matrix = self._signature_matrix(table, data_slice)
            permutation, leaves = self._build_slice(matrix)
            permutations.append(permutation)
            self._slice_leaves.append(leaves)
        table.reorganize(lambda _table: permutations)
        self.built = True

    def _signature_matrix(self, table: Table, data_slice) -> np.ndarray:
        num_rows = data_slice.num_rows
        columns = sorted(
            {c for p in self.predicates for c in p.columns()}
            & set(data_slice.columns)
        )
        batch = {
            name: data_slice.columns[name].read_all(table.rms)
            for name in columns
        }
        matrix = np.zeros((num_rows, len(self.predicates)), dtype=bool)
        for j, predicate in enumerate(self.predicates):
            try:
                matrix[:, j] = predicate.evaluate(batch)
            except KeyError:
                pass  # predicate on columns this table lacks: never cuts
        return matrix

    def _build_slice(
        self, matrix: np.ndarray
    ) -> Tuple[np.ndarray, List[QdLeaf]]:
        order: List[np.ndarray] = []
        leaves: List[QdLeaf] = []
        cursor = 0

        def recurse(rows: np.ndarray, available: List[int], signature: Dict[int, bool]):
            nonlocal cursor
            cut = self._choose_cut(matrix, rows, available)
            if len(rows) <= self.min_leaf_rows or cut is None:
                leaves.append(
                    QdLeaf(cursor, cursor + len(rows), dict(signature))
                )
                cursor += len(rows)
                order.append(rows)
                return
            satisfied = matrix[rows, cut]
            remaining = [p for p in available if p != cut]
            recurse(rows[satisfied], remaining, {**signature, cut: True})
            recurse(rows[~satisfied], remaining, {**signature, cut: False})

        all_rows = np.arange(matrix.shape[0], dtype=np.int64)
        recurse(all_rows, list(range(len(self.predicates))), {})
        permutation = (
            np.concatenate(order) if order else np.empty(0, dtype=np.int64)
        )
        return permutation, leaves

    def _choose_cut(
        self, matrix: np.ndarray, rows: np.ndarray, available: List[int]
    ) -> Optional[int]:
        """The predicate that cuts this node's rows, or None.

        Greedy choice: the predicate whose smaller side is largest
        (the most balanced useful cut), requiring both sides non-empty.
        """
        best: Optional[int] = None
        best_score = 0
        for p in available:
            true_count = int(matrix[rows, p].sum())
            score = min(true_count, len(rows) - true_count)
            if score > best_score:
                best = p
                best_score = score
        return best

    # -- routing ---------------------------------------------------------------

    def matching_leaves(
        self, required: Dict[int, bool], slice_id: int
    ) -> List[QdLeaf]:
        """Leaves of one slice that may contain rows satisfying all
        ``required`` predicate outcomes (index -> must-be-satisfied)."""
        self._require_built()
        out = []
        for leaf in self._slice_leaves[slice_id]:
            if all(
                leaf.signature.get(p, want) == want
                for p, want in required.items()
            ):
                out.append(leaf)
        return out

    def candidate_rows(
        self, required: Dict[int, bool], slice_id: int
    ) -> np.ndarray:
        """Row ids (in the rewritten layout, ascending: leaves are laid
        out in order) a routed scan must read."""
        return np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [
                np.arange(leaf.start, leaf.end, dtype=np.int64)
                for leaf in self.matching_leaves(required, slice_id)
            ]
        )

    def leaves(self, slice_id: int) -> List[QdLeaf]:
        self._require_built()
        return list(self._slice_leaves[slice_id])

    @property
    def num_leaves(self) -> int:
        self._require_built()
        return sum(len(leaves) for leaves in self._slice_leaves)

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError("call build_and_apply first")
