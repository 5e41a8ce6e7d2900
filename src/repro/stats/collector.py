"""ANALYZE: collect table statistics and estimate selectivities.

``analyze_table`` samples every column of a table (through managed
storage, so the cost is accounted like any scan), builds per-column
NDV sketches and histograms, and returns a :class:`TableStatistics`
the planner uses to order joins and the admission policy can consult.

Selectivity estimation walks the predicate AST with the textbook
independence assumptions: conjuncts multiply, disjuncts add with the
inclusion-exclusion correction, NOT complements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..core.rowrange import RangeList
from ..predicates.ast import (
    And,
    Between,
    Bounds,
    ColumnComparison,
    Comparison,
    FalsePredicate,
    InList,
    IsNull,
    Like,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..storage.table import Table
from .histogram import EquiDepthHistogram
from .hll import HyperLogLog

__all__ = ["ColumnStatistics", "TableStatistics", "analyze_table"]


@dataclass
class ColumnStatistics:
    """Statistics of one column."""

    column: str
    ndv: float
    histogram: EquiDepthHistogram
    num_sampled: int

    @property
    def nbytes(self) -> int:
        return self.histogram.nbytes + 8


@dataclass
class TableStatistics:
    """Statistics of one table at analyze time."""

    table: str
    num_rows: int
    data_version: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    # -- selectivity estimation ---------------------------------------------------

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated qualifying fraction in [0, 1]."""
        return float(min(1.0, max(0.0, self._estimate(predicate))))

    def estimated_rows(self, predicate: Predicate) -> float:
        return self.num_rows * self.selectivity(predicate)

    def _estimate(self, predicate: Predicate) -> float:
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self._estimate(operand)
            return result
        if isinstance(predicate, Or):
            result = 0.0
            for operand in predicate.operands:
                s = self._estimate(operand)
                result = result + s - result * s  # inclusion-exclusion
            return result
        if isinstance(predicate, Not):
            return 1.0 - self._estimate(predicate.operand)
        if isinstance(predicate, Comparison):
            return self._estimate_comparison(predicate)
        if isinstance(predicate, Between):
            stats = self.columns.get(predicate.column.name)
            if stats is None:
                return 0.25
            return stats.histogram.range_fraction(
                Bounds(lo=predicate.low.value, hi=predicate.high.value)
            )
        if isinstance(predicate, InList):
            stats = self.columns.get(predicate.column.name)
            if stats is None:
                return min(1.0, 0.05 * len(predicate.values))
            return min(
                1.0,
                sum(
                    stats.histogram.equality_fraction(v, stats.ndv)
                    for v in predicate.values
                ),
            )
        if isinstance(predicate, Like):
            # Prefix patterns estimate via their implied range; generic
            # patterns fall back to a fixed guess.
            bounds = predicate.bounds(predicate.column.name)
            stats = self.columns.get(predicate.column.name)
            if bounds is not None and stats is not None:
                fraction = stats.histogram.range_fraction(bounds)
            else:
                fraction = 0.1
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, ColumnComparison):
            return 0.5 if predicate.op != "=" else 0.05
        if isinstance(predicate, IsNull):
            # The engine stores no nulls unless a validity column exists.
            return 0.99 if predicate.negated else 0.01
        return 0.33  # unknown node type: neutral guess

    def _estimate_comparison(self, predicate: Comparison) -> float:
        stats = self.columns.get(predicate.column.name)
        if stats is None:
            return {"=": 0.05, "<>": 0.95}.get(predicate.op, 0.3)
        value = predicate.literal.value
        if predicate.op == "=":
            return stats.histogram.equality_fraction(value, stats.ndv)
        if predicate.op == "<>":
            return 1.0 - stats.histogram.equality_fraction(value, stats.ndv)
        bounds = predicate.bounds(predicate.column.name)
        if bounds is None:
            return 0.3
        return stats.histogram.range_fraction(bounds)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns.values())


def analyze_table(
    table: Table,
    txid: int,
    sample_rows: int = 10_000,
    num_buckets: int = 32,
    seed: int = 0,
) -> TableStatistics:
    """ANALYZE: sample the table and build per-column statistics."""
    statistics = TableStatistics(
        table=table.name,
        num_rows=table.visible_row_count(txid),
        data_version=table.data_version,
    )
    rng = np.random.default_rng(seed)
    for name in table.schema.column_names:
        pieces = []
        for data_slice in table.slices:
            n = data_slice.num_rows
            if n == 0:
                continue
            per_slice = max(1, sample_rows // max(1, table.num_slices))
            if n <= per_slice:
                ranges = RangeList.full(n)
            else:
                picks = np.sort(rng.choice(n, size=per_slice, replace=False))
                ranges = RangeList.from_rows(picks)
            pieces.append(data_slice.columns[name].read_ranges(ranges, table.rms))
        sample = np.concatenate(pieces) if pieces else np.array([])
        hll = HyperLogLog()
        hll.add_many(sample)
        # Scale sampled NDV toward the table (bounded by row count).
        sampled_ndv = hll.cardinality()
        scale = statistics.num_rows / max(1, len(sample))
        ndv = min(statistics.num_rows, sampled_ndv * max(1.0, min(scale, 1.0) + (scale - 1.0) * 0.1))
        statistics.columns[name] = ColumnStatistics(
            column=name,
            ndv=float(max(1.0, ndv)),
            histogram=EquiDepthHistogram.build(sample, num_buckets=num_buckets),
            num_sampled=int(len(sample)),
        )
    return statistics
