"""Automated materialized views with predicate elevation (§3.2, Fig. 8).

Redshift detects repeating *query templates* (same statement shape,
different literals), creates a materialized view for the generalized
template, and rewrites matching queries to scan the view.  The key
generalization is **predicate elevation**: filter predicates that
restrict the result are removed from the view and their columns added
to the view's grouping, so one view answers every literal choice.

For TPC-H Q6 the view groups by ``(l_shipdate, l_discount, l_quantity)``
and pre-aggregates the revenue sum; a rewritten Q6 filters those three
columns *on the view* and re-aggregates.

The manager here implements the full loop: template extraction from
statement text, creation after a repetition threshold, rewrite of
matching statements, staleness tracking, and refresh on use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


from ..engine.expr import Col, Expr
from ..engine.plan import (
    AggregateNode,
    Aggregation,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from ..predicates.ast import conjunction_of
from ..predicates.lexer import TokenKind, tokenize
from ..sql.ast import SelectStatement
from ..sql.parser import parse_statement
from ..storage.dtypes import DataType
from ..storage.table import ColumnSpec, TableSchema

__all__ = ["AutoMVManager", "MaterializedView", "extract_template"]

_REAGG = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def extract_template(sql: str) -> str:
    """Strip literals from a statement: the paper's query template.

    Numbers and strings become ``?``; everything else (including
    keyword case) is normalized.  Two queries share a template iff they
    differ only in literal values.
    """
    parts: List[str] = []
    for token in tokenize(sql):
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            parts.append("?")
        elif token.kind == TokenKind.EOF:
            break
        else:
            parts.append(token.lowered)
    return " ".join(parts)


@dataclass
class _PartialAggregate:
    """How one original aggregate maps onto view columns."""

    func: str  # original function
    alias: str  # original output alias
    sum_column: Optional[str] = None  # view column holding the partial sum
    count_column: Optional[str] = None  # partial count (count / avg)
    minmax_column: Optional[str] = None


@dataclass
class MaterializedView:
    """One automated MV: definition, backing table, freshness."""

    name: str
    template: str
    base_table: str
    group_columns: List[str]
    elevated_columns: List[str]
    partials: List[_PartialAggregate]
    base_version: int = -1
    refreshes: int = 0


class AutoMVManager:
    """Observes statements, creates MVs, rewrites matching queries.

    Args:
        engine: the query engine used to (re)compute view contents.
        create_threshold: how many times a template must repeat before a
            view is created for it.
    """

    def __init__(self, engine, create_threshold: int = 2) -> None:
        self.engine = engine
        self.create_threshold = create_threshold
        self.views: Dict[str, MaterializedView] = {}  # template -> view
        self.template_counts: Dict[str, int] = {}
        self.rewrites = 0
        self.refreshes = 0
        self._next_id = 0

    # -- the observe/rewrite loop -----------------------------------------------

    def process(self, sql: str) -> Optional[PlanNode]:
        """Observe a statement; return a rewritten plan if an MV matches.

        Call this before executing a SELECT.  Returns None when no view
        applies (execute the original statement).  Non-SELECTs and
        ineligible queries are observed but never rewritten.
        """
        try:
            statement = parse_statement(sql)
        except ValueError:
            # SQLParseError and LexError both derive from ValueError;
            # anything else (a genuine bug) should surface, not be
            # silently treated as "statement not eligible".
            return None
        if not isinstance(statement, SelectStatement):
            return None
        template = extract_template(sql)
        self.template_counts[template] = self.template_counts.get(template, 0) + 1

        view = self.views.get(template)
        if view is None:
            if (
                self.template_counts[template] >= self.create_threshold
                and self._eligible(statement)
            ):
                view = self._create_view(template, statement)
            else:
                return None
        self._refresh_if_stale(view)
        self.rewrites += 1
        return self._rewrite(view, statement)

    # -- eligibility ---------------------------------------------------------------

    def _eligible(self, statement: SelectStatement) -> bool:
        if len(statement.tables) != 1:
            return False
        if not statement.has_aggregates:
            return False
        for item in statement.items:
            if item.is_aggregate:
                if item.func not in ("sum", "count", "avg", "min", "max"):
                    return False
                # Re-aggregating partial MIN/MAX is fine; partial
                # count_distinct is not decomposable.
                if item.distinct:
                    return False
            elif not isinstance(item.expr, Col):
                return False
        table = self.engine.database.table(statement.tables[0])
        known = set(table.schema.column_names)
        for predicate in statement.filters:
            if not predicate.columns() <= known:
                return False
        return set(statement.group_by) <= known

    # -- creation ------------------------------------------------------------------

    def _create_view(
        self, template: str, statement: SelectStatement
    ) -> MaterializedView:
        base_name = statement.tables[0]
        base = self.engine.database.table(base_name)
        filter_columns = sorted(
            {c for predicate in statement.filters for c in predicate.columns()}
        )
        elevated = [c for c in filter_columns if c not in statement.group_by]
        group_columns = list(statement.group_by) + elevated

        partials: List[_PartialAggregate] = []
        for i, item in enumerate(statement.items):
            if not item.is_aggregate:
                continue
            partial = _PartialAggregate(func=item.func, alias=item.alias)
            if item.func in ("sum", "avg"):
                partial.sum_column = f"agg{i}_sum"
            if item.func in ("count", "avg"):
                partial.count_column = f"agg{i}_cnt"
            if item.func in ("min", "max"):
                partial.minmax_column = f"agg{i}_{item.func}"
            partials.append(partial)

        self._next_id += 1
        view = MaterializedView(
            name=f"mv_{base_name}_{self._next_id}",
            template=template,
            base_table=base_name,
            group_columns=group_columns,
            elevated_columns=elevated,
            partials=partials,
        )
        # Create the backing table: group columns keep their base dtype,
        # partial aggregates are stored as FLOAT64 (counts as INT64).
        specs = [
            ColumnSpec(c, base.schema.dtype_of(c)) for c in group_columns
        ]
        for partial, item in zip(partials, [i for i in statement.items if i.is_aggregate]):
            if partial.sum_column:
                specs.append(ColumnSpec(partial.sum_column, DataType.FLOAT64))
            if partial.count_column:
                specs.append(ColumnSpec(partial.count_column, DataType.INT64))
            if partial.minmax_column:
                specs.append(ColumnSpec(partial.minmax_column, DataType.FLOAT64))
        self.engine.database.create_table(TableSchema(view.name, tuple(specs)))
        self.views[template] = view
        self._representatives[view.name] = statement
        self._materialize(view, statement)
        return view

    def _materialize(
        self, view: MaterializedView, statement: SelectStatement
    ) -> None:
        """(Re)compute the view contents from the base table."""
        base = self.engine.database.table(view.base_table)
        aggregate_items = [i for i in statement.items if i.is_aggregate]
        aggregations: List[Aggregation] = []
        for partial, item in zip(view.partials, aggregate_items):
            if partial.sum_column:
                aggregations.append(Aggregation("sum", item.expr, partial.sum_column))
            if partial.count_column:
                expr = item.expr if item.expr is not None else None
                aggregations.append(Aggregation("count", expr, partial.count_column))
            if partial.minmax_column:
                aggregations.append(
                    Aggregation(partial.func, item.expr, partial.minmax_column)
                )
        plan = AggregateNode(
            ScanNode(view.base_table), list(view.group_columns), aggregations
        )
        result = self.engine.execute_plan(plan)
        mv_table = self.engine.database.table(view.name)
        if mv_table.num_rows:
            # Full refresh: drop and reload (delta refresh is modeled as
            # the same cost envelope — see DESIGN.md).
            self.engine.delete_where(view.name, conjunction_of([]))
            self.engine.vacuum([view.name])
        rows = {name: result.columns[name] for name in mv_table.schema.column_names}
        self.engine.insert(view.name, rows)
        view.base_version = base.data_version
        view.refreshes += 1

    def _refresh_if_stale(self, view: MaterializedView) -> None:
        base = self.engine.database.table(view.base_table)
        if base.data_version != view.base_version:
            statement = self._statement_for(view)
            self._materialize(view, statement)
            self.refreshes += 1

    def _statement_for(self, view: MaterializedView) -> SelectStatement:
        # The original statement shape is recoverable from the stored
        # partials; we keep one representative per view.
        return self._representatives[view.name]

    # -- rewrite ------------------------------------------------------------------

    def _rewrite(
        self, view: MaterializedView, statement: SelectStatement
    ) -> PlanNode:
        """Plan the statement against the view instead of the base table."""
        predicate = conjunction_of(statement.filters)
        scan = ScanNode(view.name, predicate)
        aggregations: List[Aggregation] = []
        projections: List[Tuple[str, Expr]] = []
        aggregate_partials = iter(view.partials)
        for item in statement.items:
            if not item.is_aggregate:
                projections.append((item.alias, Col(item.expr.name)))
                continue
            partial = next(aggregate_partials)
            if item.func in ("sum", "count"):
                source = partial.sum_column or partial.count_column
                aggregations.append(Aggregation("sum", Col(source), item.alias))
                projections.append((item.alias, Col(item.alias)))
            elif item.func == "avg":
                aggregations.append(
                    Aggregation("sum", Col(partial.sum_column), f"__{item.alias}_s")
                )
                aggregations.append(
                    Aggregation("sum", Col(partial.count_column), f"__{item.alias}_c")
                )
                projections.append(
                    (item.alias, Col(f"__{item.alias}_s") / Col(f"__{item.alias}_c"))
                )
            else:  # min / max re-aggregate with the same function
                aggregations.append(
                    Aggregation(item.func, Col(partial.minmax_column), item.alias)
                )
                projections.append((item.alias, Col(item.alias)))
        plan: PlanNode = AggregateNode(scan, list(statement.group_by), aggregations)
        for column in statement.group_by:
            projections.insert(0, (column, Col(column)))
        # Keep select-list order.
        ordered = [
            (item.alias, dict(projections)[item.alias]) for item in statement.items
        ]
        plan = ProjectNode(plan, ordered)
        from ..engine.plan import LimitNode, SortNode

        if statement.order_by:
            plan = SortNode(plan, list(statement.order_by))
        if statement.limit is not None:
            plan = LimitNode(plan, statement.limit)
        return plan

    # -- bookkeeping ----------------------------------------------------------------

    @property
    def _representatives(self) -> Dict[str, SelectStatement]:
        if not hasattr(self, "_reps"):
            self._reps: Dict[str, SelectStatement] = {}
        return self._reps

    def view_nbytes(self, view: MaterializedView) -> int:
        """Semantic view size: rows x columns x 8 bytes (Table 3)."""
        table = self.engine.database.table(view.name)
        return table.num_rows * len(table.schema.column_names) * 8
