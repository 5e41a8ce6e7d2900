"""Plan execution.

The executor walks a plan tree bottom-up, producing column batches
(dict of name -> numpy array).  Join nodes execute their build side
first, construct a Bloom filter, and push it down into the probe-side
scan that produces the probe key column — the semi-join mechanism the
predicate cache's join-index extension records (§4.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.keys import SemiJoinDescriptor
from ..obs.trace import optional_span
from ..storage.database import Database
from .bloom import BloomFilter
from .hashing import stable_int_keys
from .plan import (
    AggregateNode,
    Aggregation,
    FilterNode,
    JoinNode,
    LimitNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from .scan import SemiJoinFilter, execute_scan
from .statement import StatementContext

__all__ = ["Executor", "Batch"]

Batch = Dict[str, np.ndarray]


class Executor:
    """Executes plan trees against a database."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def execute(self, plan: PlanNode, statement: StatementContext) -> Batch:
        """Execute ``plan`` on behalf of ``statement``.

        Everything per-statement — snapshot, counters, storage reader,
        cache, worker count — comes from ``statement``; a traced one
        records per-operator spans carrying inclusive counter deltas.
        """
        needed = self._root_needed(plan)
        return self._execute(plan, needed, [], statement)

    def _root_needed(self, plan: PlanNode) -> Set[str]:
        try:
            return set(plan.output_columns())
        except ValueError:
            # The plan bottoms out in SELECT-*-style unresolved scans:
            # every column of every referenced table is needed.
            return {
                column
                for table in plan.referenced_tables()
                for column in self.database.table(table).schema.column_names
            }

    # -- dispatch -----------------------------------------------------------

    def _execute(
        self,
        node: PlanNode,
        needed: Set[str],
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        # One span per operator, carrying the *inclusive* counter delta
        # (this operator plus its subtree, EXPLAIN ANALYZE convention).
        with optional_span(
            statement.trace, type(node).__name__.removesuffix("Node")
        ) as span:
            if span is not None:
                span.set("operator", node.describe())
                before = statement.counters.snapshot()
            batch = self._dispatch(node, needed, filters, statement)
            if span is not None:
                span.set("rows_out", _batch_len(batch))
                span.update(statement.counters.delta(before))
            return batch

    def _dispatch(
        self,
        node: PlanNode,
        needed: Set[str],
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        if isinstance(node, ScanNode):
            return self._execute_scan(node, needed, filters, statement)
        if isinstance(node, JoinNode):
            return self._execute_join(node, needed, filters, statement)
        if isinstance(node, AggregateNode):
            return self._execute_aggregate(node, filters, statement)
        if isinstance(node, MapNode):
            child_needed = (needed - {a for a, _ in node.computations}) | {
                column for _, expr in node.computations for column in expr.columns()
            }
            child = self._execute(node.child, child_needed, filters, statement)
            n = _batch_len(child)
            out = dict(child)
            for alias, expr in node.computations:
                values = expr.evaluate(child)
                if values.shape == ():
                    values = np.full(n, values)
                out[alias] = values
            return out
        if isinstance(node, FilterNode):
            child_needed = needed | node.predicate.columns()
            child = self._execute(node.child, child_needed, filters, statement)
            mask = node.predicate.evaluate(child)
            return {name: values[mask] for name, values in child.items()}
        if isinstance(node, ProjectNode):
            return self._execute_project(node, filters, statement)
        if isinstance(node, SortNode):
            return self._execute_sort(node, needed, filters, statement)
        if isinstance(node, LimitNode):
            child = self._execute(node.child, needed, filters, statement)
            return {name: values[: node.count] for name, values in child.items()}
        raise TypeError(f"unknown plan node {type(node).__name__}")

    # -- scans --------------------------------------------------------------

    def _execute_scan(
        self,
        node: ScanNode,
        needed: Set[str],
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        table = self.database.table(node.table)
        schema_columns = set(table.schema.column_names)
        # Only filters whose probe column this table provides apply here.
        local_filters = [f for f in filters if f.probe_column in schema_columns]
        if node.columns is not None:
            columns = [c for c in node.columns if c in needed] or list(node.columns)
        else:
            columns = sorted(needed & schema_columns)
        if not columns:
            # Nothing but a row count is needed (e.g. ``count(*)``):
            # gather the virtual row column instead of real data.
            columns = ["__rows__"]
        result = execute_scan(
            table,
            node.predicate,
            statement,
            semijoins=local_filters,
            current_versions=self._current_versions(local_filters),
            # The slice tasks materialize the output columns themselves,
            # so gather latency overlaps across slices in parallel mode.
            gather_columns=[c for c in columns if c != "__rows__"],
        )
        return result.gather(columns)

    def _current_versions(
        self, filters: Sequence[SemiJoinFilter]
    ) -> Dict[str, int]:
        versions: Dict[str, int] = {}
        for f in filters:
            for table_name in f.build_versions:
                versions[table_name] = self.database.table(table_name).data_version
        return versions

    # -- joins --------------------------------------------------------------

    def _execute_join(
        self,
        node: JoinNode,
        needed: Set[str],
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        # Filters from enclosing joins go to whichever side produces
        # their probe column — Redshift pushes semi-join filters into
        # the scan that provides the column, even through build sides
        # (snowflake chains, §4.4).
        build_columns = set(self._subtree_columns(node.build))
        build_side_filters = [f for f in filters if f.probe_column in build_columns]
        probe_filters = [f for f in filters if f.probe_column not in build_columns]

        build_needed = (needed | {node.build_key}) & build_columns
        build = self._execute(
            node.build, build_needed, build_side_filters, statement
        )
        build_keys = stable_int_keys(build[node.build_key])

        if node.semijoin:
            bloom = BloomFilter(expected_items=max(len(build_keys), 1))
            bloom.add_many(build_keys)
            descriptor = self._describe_build(node, build_side_filters)
            versions: Dict[str, int] = {}
            if descriptor is not None:
                versions = self._build_versions(node)
                for f in build_side_filters:
                    versions.update(f.build_versions)
            probe_filters.append(
                SemiJoinFilter(
                    probe_column=node.probe_key,
                    bloom=bloom,
                    descriptor=descriptor,
                    build_versions=versions,
                )
            )

        probe_needed = (needed | {node.probe_key}) & set(
            self._subtree_columns(node.probe)
        )
        probe = self._execute(node.probe, probe_needed, probe_filters, statement)
        probe_keys = stable_int_keys(probe[node.probe_key])

        statement.counters.rows_joined += len(probe_keys)
        probe_idx, build_idx = _hash_join_indices(probe_keys, build_keys)

        out: Batch = {name: values[probe_idx] for name, values in probe.items()}
        for name, values in build.items():
            if name not in out:
                out[name] = values[build_idx]
        return out

    def _subtree_columns(self, node: PlanNode) -> List[str]:
        if isinstance(node, ScanNode) and node.columns is None:
            return self.database.table(node.table).schema.column_names
        if isinstance(node, JoinNode):
            left = self._subtree_columns(node.probe)
            right = [c for c in self._subtree_columns(node.build) if c not in left]
            return left + right
        return node.output_columns()

    def _describe_build(
        self, node: JoinNode, build_side_filters: Sequence["SemiJoinFilter"] = ()
    ) -> Optional[SemiJoinDescriptor]:
        """Build the cache-key descriptor for a join's build side.

        Only build sides that are scans (or joins over scans) can be
        described; anything else (aggregates, projections) disables the
        join-index key for this filter — the Bloom filter still runs,
        but its effect is not cached (soundness first).  Semi-join
        filters pushed *into* the build side become nested descriptors;
        an undescribable pushed filter poisons the whole descriptor.
        """
        described = _describe_node(node.build)
        if described is None:
            return None
        build_table, build_filter, nested = described
        for f in build_side_filters:
            if f.descriptor is None:
                return None
            nested = nested + (f.descriptor,)
        return SemiJoinDescriptor(
            join_predicate=node.join_predicate_text(),
            build_table=build_table,
            build_predicate_key=build_filter,
            build_semijoins=nested,
        )

    def _build_versions(self, node: JoinNode) -> Dict[str, int]:
        return {
            name: self.database.table(name).data_version
            for name in node.build.referenced_tables()
        }

    # -- aggregation ----------------------------------------------------------

    def _execute_aggregate(
        self,
        node: AggregateNode,
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        needed = set(node.group_by)
        for agg in node.aggregations:
            needed |= agg.input_columns()
        child = self._execute(node.child, needed, filters, statement)
        return _aggregate(child, node.group_by, node.aggregations)

    def _execute_project(
        self,
        node: ProjectNode,
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        needed: Set[str] = set()
        for _, expr in node.projections:
            needed |= expr.columns()
        child = self._execute(node.child, needed, filters, statement)
        n = _batch_len(child)
        out: Batch = {}
        for alias, expr in node.projections:
            values = expr.evaluate(child)
            if values.shape == ():
                values = np.full(n, values)
            out[alias] = values
        return out

    def _execute_sort(
        self,
        node: SortNode,
        needed: Set[str],
        filters: List[SemiJoinFilter],
        statement: StatementContext,
    ) -> Batch:
        child_needed = needed | {col for col, _ in node.keys}
        child = self._execute(node.child, child_needed, filters, statement)
        if _batch_len(child) == 0:
            return child
        # lexsort's last key is primary, so feed keys reversed.
        arrays = []
        for col, ascending in reversed(node.keys):
            values = child[col]
            if not ascending:
                values = _descending_key(values)
            arrays.append(values)
        order = np.lexsort(arrays)
        return {name: values[order] for name, values in child.items()}


# -- pure helpers -------------------------------------------------------------


def _describe_node(
    node: PlanNode,
) -> Optional[Tuple[str, str, Tuple[SemiJoinDescriptor, ...]]]:
    """(table, filter key, nested semi-joins) of a scan-shaped subtree.

    Returns None for subtrees that do not reduce to a (possibly joined)
    base-table scan — those cannot be described in a cache key.
    """
    if isinstance(node, ScanNode):
        return (node.table, node.predicate.cache_key(), ())
    if isinstance(node, (SortNode, LimitNode)):
        return _describe_node(node.child)
    if isinstance(node, JoinNode):
        probe = _describe_node(node.probe)
        build = _describe_node(node.build)
        if probe is None or build is None:
            return None
        build_table, build_filter, build_nested = build
        inner = SemiJoinDescriptor(
            join_predicate=node.join_predicate_text(),
            build_table=build_table,
            build_predicate_key=build_filter,
            build_semijoins=build_nested,
        )
        probe_table, probe_filter, probe_nested = probe
        return (probe_table, probe_filter, probe_nested + (inner,))
    return None


def _batch_len(batch: Batch) -> int:
    for values in batch.values():
        return len(values)
    return 0


def _descending_key(values: np.ndarray) -> np.ndarray:
    if values.dtype == object:
        # Rank-invert strings for descending order.
        order = np.argsort(values, kind="stable")
        ranks = np.empty(len(values), dtype=np.int64)
        ranks[order] = np.arange(len(values))
        return -ranks
    return -values


def _hash_join_indices(
    probe_keys: np.ndarray, build_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (probe index, build index) pairs of an inner equi-join.

    Sort-based lookup: duplicates on either side produce the full cross
    product per key, like a hash join's bucket chain.
    """
    if len(probe_keys) == 0 or len(build_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    left = np.searchsorted(sorted_keys, probe_keys, side="left")
    right = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(probe_keys), dtype=np.int64), counts)
    run_starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
    build_pos = np.repeat(left, counts) + offsets
    return probe_idx, order[build_pos]


def _aggregate(
    batch: Batch, group_by: List[str], aggregations: List[Aggregation]
) -> Batch:
    n = _batch_len(batch)
    if group_by:
        group_codes, group_values = _factorize(batch, group_by)
        num_groups = len(next(iter(group_values.values()))) if group_values else 0
    else:
        group_codes = np.zeros(n, dtype=np.int64)
        group_values = {}
        num_groups = 1

    out: Batch = {name: values for name, values in group_values.items()}
    for agg in aggregations:
        out[agg.alias] = _compute_aggregate(agg, batch, group_codes, num_groups, n)
    return out


def _factorize(
    batch: Batch, group_by: List[str]
) -> Tuple[np.ndarray, Batch]:
    """Group codes per row plus the distinct group key values, sorted."""
    n = _batch_len(batch)
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            {name: batch[name][:0] for name in group_by},
        )
    codes = np.zeros(n, dtype=np.int64)
    uniques_per_col: List[np.ndarray] = []
    for name in group_by:
        uniq, inverse = np.unique(batch[name], return_inverse=True)
        codes = codes * len(uniq) + inverse
        uniques_per_col.append(uniq)
    distinct, group_codes = np.unique(codes, return_inverse=True)
    # Decode the mixed-radix code back into per-column values.
    group_values: Batch = {}
    remaining = distinct.copy()
    for name, uniq in zip(reversed(group_by), reversed(uniques_per_col)):
        group_values[name] = uniq[remaining % len(uniq)]
        remaining = remaining // len(uniq)
    return group_codes, {name: group_values[name] for name in group_by}


def _compute_aggregate(
    agg: Aggregation,
    batch: Batch,
    group_codes: np.ndarray,
    num_groups: int,
    n: int,
) -> np.ndarray:
    if agg.func == "count" and agg.expr is None:
        return np.bincount(group_codes, minlength=num_groups).astype(np.int64)
    values = agg.expr.evaluate(batch)
    if values.shape == ():
        values = np.full(n, values)
    if agg.func == "count":
        return np.bincount(group_codes, minlength=num_groups).astype(np.int64)
    if agg.func == "sum":
        return np.bincount(group_codes, weights=values, minlength=num_groups)
    if agg.func == "avg":
        sums = np.bincount(group_codes, weights=values, minlength=num_groups)
        counts = np.bincount(group_codes, minlength=num_groups)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if agg.func == "count_distinct":
        if n == 0:
            return np.zeros(num_groups, dtype=np.int64)
        _, value_codes = np.unique(values, return_inverse=True)
        pairs = group_codes * (value_codes.max() + 1) + value_codes
        distinct_pairs = np.unique(pairs)
        groups_of_pairs = distinct_pairs // (value_codes.max() + 1)
        return np.bincount(groups_of_pairs, minlength=num_groups).astype(np.int64)
    if agg.func in ("min", "max"):
        if n == 0:
            return np.full(num_groups, np.nan)
        if values.dtype == object:
            return _object_minmax(agg.func, values, group_codes, num_groups)
        fill = np.inf if agg.func == "min" else -np.inf
        result = np.full(num_groups, fill, dtype=np.float64)
        op = np.minimum if agg.func == "min" else np.maximum
        op.at(result, group_codes, values.astype(np.float64))
        return result
    raise ValueError(f"unknown aggregate {agg.func!r}")


def _object_minmax(
    func: str, values: np.ndarray, group_codes: np.ndarray, num_groups: int
) -> np.ndarray:
    result = np.empty(num_groups, dtype=object)
    pick = min if func == "min" else max
    for code in range(num_groups):
        members = values[group_codes == code]
        result[code] = pick(members) if len(members) else None
    return result
