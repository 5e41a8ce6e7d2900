"""Planner: SELECT statements to executable plan trees.

Planning steps:

1. Resolve every referenced column to its table (column names must be
   unambiguous across the statement's tables, as in TPC-H/SSB schemas);
   bind every WHERE literal to its column's type and check that the two
   columns of a comparison or join compare (:func:`bind_literals`).
2. Push each WHERE conjunct into the scan of the single table it
   references — this forms the predicate the cache indexes.
3. Order joins left-deep with the largest table as the probe root
   (fact-table heuristic); every join carries semi-join pushdown.
4. Stack aggregation / projection / sort / limit on top.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from ..engine.expr import Col
from ..engine.plan import (
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
from ..predicates.ast import (
    And,
    Between,
    ColumnComparison,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    Predicate,
    Value,
    conjunction_of,
)
from ..storage.database import Database
from ..storage.dtypes import DataType, date_to_days
from .ast import JoinCondition, SelectStatement

__all__ = ["PlannerError", "bind_literals", "plan_select"]


class PlannerError(ValueError):
    """Raised when a statement cannot be planned."""


def plan_select(statement: SelectStatement, database: Database) -> PlanNode:
    """Plan a parsed SELECT against the database catalog."""
    column_owner, types = _resolve_columns(statement.tables, database)
    per_table, joins, residuals = _split_conjuncts(
        [bind_literals(f, types) for f in statement.filters], column_owner
    )
    for join in joins:
        _check_columns(join.left_column, join.right_column, types)

    # Multi-table predicates (e.g. Q19's OR of conjunctions) still
    # contribute *implied* per-table disjunctions to the scans; the full
    # predicate is re-checked post-join.
    for residual in residuals:
        for table_name, implied in _implied_per_table(residual, column_owner).items():
            per_table.setdefault(table_name, []).append(implied)

    scans: Dict[str, ScanNode] = {
        name: ScanNode(name, conjunction_of(per_table.get(name, [])))
        for name in statement.tables
    }
    tree = _order_joins(statement, joins, scans, column_owner, database)
    for residual in residuals:
        tree = FilterNode(tree, residual)

    if statement.has_aggregates or statement.group_by:
        tree = _plan_aggregate(statement, tree)
    elif statement.items:
        projections = [(item.alias, item.expr) for item in statement.items]
        tree = ProjectNode(tree, projections)
    # SELECT * leaves the join/scan output as-is.

    if statement.order_by:
        # The sort runs on the select list's output (every column for
        # SELECT *), so a key must be one of its columns.
        known = tree.output_columns() if statement.items else column_owner
        for key, _ in statement.order_by:
            if key not in known:
                raise PlannerError(f"ORDER BY {key!r} is not in the select list")
        tree = SortNode(tree, list(statement.order_by))
    if statement.limit is not None:
        tree = LimitNode(tree, statement.limit)
    return tree


def bind_literals(predicate: Predicate, types: Mapping[str, DataType]) -> Predicate:
    """``predicate`` with an ISO ``'YYYY-MM-DD'`` string compared with a
    DATE column turned into its days, and :class:`PlannerError` naming
    the column for a literal, or the columns for a column comparison,
    that cannot compare: a STRING compares only with a STRING, and
    INT64, FLOAT64 and DATE with each other.  Returns ``predicate``
    itself when everything fits, so no cache key moves; a column
    missing from ``types`` is the caller's to report."""
    if isinstance(predicate, (And, Or)):
        operands = tuple([bind_literals(op, types) for op in predicate.operands])
        # Unchanged operands are the same objects; a bound one differs.
        if operands == predicate.operands:
            return predicate
        return type(predicate)(operands)
    if isinstance(predicate, Not):
        operand = bind_literals(predicate.operand, types)
        return predicate if operand is predicate.operand else Not(operand)
    if isinstance(predicate, ColumnComparison):
        _check_columns(predicate.left.name, predicate.right.name, types)
        return predicate
    if isinstance(predicate, Comparison):
        value = _bind(predicate.literal.value, predicate.column.name, types)
        if value is predicate.literal.value:
            return predicate
        return replace(predicate, literal=Literal(value))
    if isinstance(predicate, Between):
        name = predicate.column.name
        low = _bind(predicate.low.value, name, types)
        high = _bind(predicate.high.value, name, types)
        if low is predicate.low.value and high is predicate.high.value:
            return predicate
        return replace(predicate, low=Literal(low), high=Literal(high))
    if isinstance(predicate, InList):
        name = predicate.column.name
        values = tuple([_bind(v, name, types) for v in predicate.values])
        if values == predicate.values:
            return predicate
        return replace(predicate, values=values)
    return predicate


def _bind(value: Value, column: str, types: Mapping[str, DataType]) -> Value:
    dtype = types.get(column)
    if dtype is None or value is None:
        return value
    if isinstance(value, str) == (dtype is DataType.STRING):
        return value
    if dtype is DataType.DATE and isinstance(value, str):
        with suppress(ValueError):
            return date_to_days(value)
    raise PlannerError(
        f"column {column!r} ({dtype.name}) cannot compare with {Literal(value)}"
    )


def _check_columns(left: str, right: str, types: Mapping[str, DataType]) -> None:
    left_type, right_type = types.get(left), types.get(right)
    if left_type is None or right_type is None:
        return
    if (left_type is DataType.STRING) != (right_type is DataType.STRING):
        raise PlannerError(
            f"column {left!r} ({left_type.name}) cannot compare with "
            f"column {right!r} ({right_type.name})"
        )


def _resolve_columns(
    tables: Sequence[str], database: Database
) -> Tuple[Dict[str, str], Dict[str, DataType]]:
    """Column name -> owning table and -> type, rejecting ambiguity."""
    owner: Dict[str, str] = {}
    types: Dict[str, DataType] = {}
    for name in tables:
        for spec in database.table(name).schema.columns:
            if spec.name in owner:
                raise PlannerError(
                    f"ambiguous column {spec.name!r} (both {owner[spec.name]} "
                    f"and {name}); the subset requires unique column names"
                )
            owner[spec.name] = name
            types[spec.name] = spec.dtype
    return owner, types


def _split_conjuncts(
    filters: Sequence[Predicate],
    column_owner: Dict[str, str],
) -> Tuple[Dict[str, List[Predicate]], List[JoinCondition], List[Predicate]]:
    """Partition WHERE conjuncts: per-table filters, joins, residuals.

    A cross-table ``col = col`` equality becomes a join condition; a
    same-table column comparison stays a pushable filter; any other
    conjunct spanning multiple tables is a residual (re-checked above
    the joins).
    """
    per_table: Dict[str, List[Predicate]] = {}
    joins: List[JoinCondition] = []
    residuals: List[Predicate] = []
    for predicate in filters:
        tables = set()
        for column in predicate.columns():
            table = column_owner.get(column)
            if table is None:
                raise PlannerError(f"unknown column {column!r} in WHERE")
            tables.add(table)
        if (
            isinstance(predicate, ColumnComparison)
            and predicate.op == "="
            and len(tables) == 2
        ):
            joins.append(
                JoinCondition(predicate.left.name, predicate.right.name)
            )
        elif len(tables) <= 1:
            table = tables.pop() if tables else None
            if table is None:
                residuals.append(predicate)  # constant predicate
            else:
                per_table.setdefault(table, []).append(predicate)
        else:
            residuals.append(predicate)
    return per_table, joins, residuals


def _implied_per_table(
    predicate: Predicate, column_owner: Dict[str, str]
) -> Dict[str, Predicate]:
    """Per-table predicates implied by a multi-table conjunct.

    For an OR of conjunctions (the Q19 shape), a table T gets the
    disjunction of the T-only parts of each branch — valid only when
    *every* branch restricts T.  Non-OR multi-table conjuncts imply
    nothing pushable.
    """
    if not isinstance(predicate, Or):
        return {}
    tables_in_branches: List[Dict[str, List[Predicate]]] = []
    for branch in predicate.operands:
        branch_tables: Dict[str, List[Predicate]] = {}
        for conjunct in branch.conjuncts():
            tables = {column_owner.get(c) for c in conjunct.columns()}
            if len(tables) == 1 and None not in tables:
                branch_tables.setdefault(tables.pop(), []).append(conjunct)
        tables_in_branches.append(branch_tables)
    implied: Dict[str, Predicate] = {}
    all_tables = set().union(*(set(b) for b in tables_in_branches))
    for table in all_tables:
        if all(table in branch for branch in tables_in_branches):
            implied[table] = Or(
                tuple(
                    conjunction_of(branch[table]) for branch in tables_in_branches
                )
            )
    return implied


def _order_joins(
    statement: SelectStatement,
    join_conditions: List[JoinCondition],
    scans: Dict[str, ScanNode],
    column_owner: Dict[str, str],
    database: Database,
) -> PlanNode:
    tables = list(statement.tables)
    if len(tables) == 1:
        if join_conditions:
            raise PlannerError("join condition with a single table")
        return scans[tables[0]]

    conditions = [
        _owned_condition(join, column_owner) for join in join_conditions
    ]

    # The probe side anchors on the table with the most rows.
    root = max(tables, key=lambda name: database.table(name).num_rows)
    tree: PlanNode = scans[root]
    joined: Set[str] = {root}
    remaining = list(conditions)

    while remaining:
        progress = False
        for condition in list(remaining):
            (left_col, left_table), (right_col, right_table) = condition
            if left_table in joined and right_table not in joined:
                probe_col, build_col, build_table = left_col, right_col, right_table
            elif right_table in joined and left_table not in joined:
                probe_col, build_col, build_table = right_col, left_col, left_table
            elif left_table in joined and right_table in joined:
                raise PlannerError(
                    "cyclic join conditions are outside the supported subset"
                )
            else:
                continue
            tree = JoinNode(
                probe=tree,
                build=scans[build_table],
                probe_key=probe_col,
                build_key=build_col,
            )
            joined.add(build_table)
            remaining.remove(condition)
            progress = True
        if not progress:
            break
    unjoined = set(tables) - joined
    if unjoined:
        raise PlannerError(
            f"tables {sorted(unjoined)} are not connected by join "
            "conditions (cross joins unsupported)"
        )
    return tree


def _owned_condition(
    join: JoinCondition, column_owner: Dict[str, str]
) -> Tuple[Tuple[str, str], Tuple[str, str]]:
    left_table = column_owner.get(join.left_column)
    right_table = column_owner.get(join.right_column)
    if left_table is None or right_table is None:
        missing = join.left_column if left_table is None else join.right_column
        raise PlannerError(f"unknown column {missing!r} in join condition")
    if left_table == right_table:
        raise PlannerError(
            f"self-join condition {join.canonical()!r} is outside the subset"
        )
    return ((join.left_column, left_table), (join.right_column, right_table))


def _plan_aggregate(statement: SelectStatement, tree: PlanNode) -> PlanNode:
    aggregations: List[Aggregation] = []
    computed: List = []
    for item in statement.items:
        if item.is_aggregate:
            aggregations.append(Aggregation(item.func, item.expr, item.alias))
        elif isinstance(item.expr, Col) and item.expr.name in statement.group_by:
            continue
        elif item.alias in statement.group_by:
            # Expression group-by (``year(l_shipdate) as l_year ...
            # group by l_year``): compute the column before grouping.
            computed.append((item.alias, item.expr))
        else:
            raise PlannerError(
                f"non-aggregate select item {item.alias!r} must be a "
                "GROUP BY column"
            )
    if computed:
        tree = MapNode(tree, computed)
    node = AggregateNode(tree, list(statement.group_by), aggregations)
    # Preserve the select-list order (group keys may interleave with
    # aggregates in the query text) via a projection when they differ.
    wanted = [item.alias for item in statement.items]
    if wanted != node.output_columns():
        return ProjectNode(node, [(alias, Col(alias)) for alias in wanted])
    return node
