"""EXPLAIN / EXPLAIN ANALYZE: render plans and executed span trees.

``explain(plan)`` produces an indented tree like::

    Aggregate(by=[], aggs=[sum->revenue])
      HashJoin(l_partkey = p_partkey, semijoin=True)
        Scan(lineitem, filter=l_quantity BETWEEN 35 AND 45)
        Scan(part, filter=p_brand = 'Brand#45')

and ``QueryEngine.explain(sql)`` plans a statement and renders it —
useful for checking what was pushed down where (e.g. the Q19 implied
disjunctions).

``render_analyze(span, counters)`` is the runtime twin: it renders the
span tree a traced execution recorded — per-operator wall time and
inclusive counter deltas, per-slice cache outcome and block fetches —
followed by a query-totals footer.  ``QueryEngine.explain_analyze(sql)``
executes a statement and returns this rendering::

    query  (time=1.73ms rows_output=1)
      parse  (time=0.08ms)
      plan  (time=0.04ms)
      execute  (time=1.52ms)
        Aggregate  (time=1.50ms rows_out=1 ...)
          Scan  (time=1.41ms rows_out=5943 cache_hits=1 ...)
            cache-lookup  (outcome=hit basis=plain ...)
            scan[slice 0]  (time=0.21ms cache_basis=plain exact=True
                            rows_scanned=1486 rows_skipped_cache=8514
                            rows_qualifying=1486 blocks_fetched=3 ...)

``exact=True`` marks a slice answered from an exact range state: its
rows below the watermark took the state's verdict, so the slice read
no predicate-only column there.
"""

from __future__ import annotations

from typing import List, Optional

from .counters import QueryCounters
from .plan import JoinNode, PlanNode

__all__ = ["explain", "render_analyze"]


def explain(plan: PlanNode) -> str:
    """An indented, human-readable rendering of a plan tree."""
    lines: List[str] = []
    _render(plan, 0, lines)
    return "\n".join(lines)


def _children(node: PlanNode) -> List[PlanNode]:
    if isinstance(node, JoinNode):
        return [node.probe, node.build]
    for attribute in ("child",):
        child = getattr(node, attribute, None)
        if child is not None:
            return [child]
    return []


def _render(node: PlanNode, depth: int, lines: List[str]) -> None:
    lines.append("  " * depth + node.describe())
    for child in _children(node):
        _render(child, depth + 1, lines)


# -- EXPLAIN ANALYZE ----------------------------------------------------------

# Attributes rendered first, in this order; the rest follow sorted.
_LEADING_ATTRS = (
    "operator",
    "outcome",
    "basis",
    "cache_basis",
    "exact",
    "visibility",
    "rows_out",
    "rows_output",
    "rows_scanned",
    "rows_skipped_cache",
    "rows_qualifying",
    "blocks_fetched",
    "blocks_accessed",
)
# Noise we do not print (timings are shown as time=, sql on the header).
_HIDDEN_ATTRS = frozenset({"sql", "wall_seconds", "model_seconds"})


def render_analyze(span, counters: Optional[QueryCounters] = None) -> str:
    """Render an executed query's span tree (EXPLAIN ANALYZE output).

    ``span`` is the root :class:`~repro.obs.Span` of a traced execution
    (``QueryResult.trace``); ``counters`` appends the query-totals
    footer.  Operator spans show their plan-node description plus the
    inclusive counter deltas the executor attached; scan slices show the
    cache basis, whether an exact state answered them, whether
    visibility came from the slice's MVCC summary or its rows, rows
    skipped, and blocks fetched.
    """
    if span is None:
        raise ValueError(
            "render_analyze needs a traced result "
            "(execute with a Tracer attached, or use explain_analyze)"
        )
    lines: List[str] = []
    _render_span(span, 0, lines)
    if counters is not None:
        totals = ", ".join(
            f"{name}={value}"
            for name, value in counters.as_dict().items()
            if value and name not in ("wall_seconds", "model_seconds")
        )
        lines.append("")
        lines.append(
            f"Totals: wall={counters.wall_seconds * 1e3:.2f}ms "
            f"model={counters.model_seconds * 1e3:.2f}ms  {totals}"
        )
    return "\n".join(lines)


def _render_span(span, depth: int, lines: List[str]) -> None:
    header = span.attrs.get("operator", span.name)
    parts = [f"time={span.duration_s * 1e3:.2f}ms"]
    seen = set()
    for key in _LEADING_ATTRS:
        if key in span.attrs and key != "operator":
            parts.append(f"{key}={_fmt(span.attrs[key])}")
            seen.add(key)
    for key in sorted(span.attrs):
        if key in seen or key in _HIDDEN_ATTRS or key == "operator":
            continue
        parts.append(f"{key}={_fmt(span.attrs[key])}")
    lines.append("  " * depth + f"{header}  ({' '.join(parts)})")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
