"""The query engine facade (the "leader node").

:class:`QueryEngine` ties together the database, the executor, the
predicate cache, an optional result cache, and the cost model.  It is
the public entry point examples and benchmarks use:

    engine = QueryEngine(db, predicate_cache=PredicateCache())
    result = engine.execute_plan(plan)       # or engine.execute(sql)
    result.counters.rows_scanned, result.counters.model_seconds
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cache import PredicateCache
from ..obs.trace import Tracer, optional_span
from ..predicates.ast import Predicate, TruePredicate
from ..storage.database import Database
from .cost import CostModel
from .counters import QueryCounters
from .executor import Batch, Executor, _batch_len
from .plan import PlanNode
from .scan import execute_scan
from .statement import StatementContext

__all__ = ["QueryEngine", "QueryResult"]


def _normalize_sql(sql: str) -> str:
    """Whitespace-insensitive, case-insensitive result-cache key.

    Matching the paper's result cache: a hit requires the *same
    statement including parameters* — no structural generalization.
    """
    return " ".join(sql.split()).rstrip(";").lower()


@dataclass
class QueryResult:
    """Columns plus the execution counters of one query."""

    columns: Dict[str, np.ndarray]
    column_order: List[str]
    counters: QueryCounters
    #: Root span of this query's own trace (when the engine has a tracer).
    trace: Optional[object] = None

    @property
    def num_rows(self) -> int:
        return _batch_len(self.columns)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def rows(self) -> List[Tuple]:
        """Materialize as a list of row tuples (column order preserved)."""
        arrays = [self.columns[name] for name in self.column_order]
        return [tuple(a[i] for a in arrays) for i in range(self.num_rows)]

    def scalar(self):
        """The single value of a 1x1 result."""
        if self.num_rows != 1 or len(self.column_order) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{self.num_rows}x{len(self.column_order)}"
            )
        return self.columns[self.column_order[0]][0]


class QueryEngine:
    """Executes plans and DML against a database, with caching layers."""

    def __init__(
        self,
        database: Database,
        predicate_cache: Optional[PredicateCache] = None,
        result_cache=None,
        cost_model: Optional[CostModel] = None,
        tracer=None,
        metrics=None,
        scan_workers: Optional[int] = None,
    ) -> None:
        """Args beyond the caching layers:

        tracer: optional :class:`~repro.obs.Tracer`; when set, every
            query records its own span tree (``query → parse/plan →
            execute → operators → scan[slice]``) exposed as
            ``result.trace``, collected in ``tracer.roots`` and rendered
            by :meth:`explain_analyze`.  Statements running concurrently
            each build their own tree.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; the
            engine registers query counters/latency and wires up the
            predicate cache's and database's metrics.  Both default to
            ``None``.
        scan_workers: slice-scan worker threads for this engine; ``0``
            forces serial, ``None`` (default) defers to the session
            configuration (``REPRO_PARALLEL``).
            Worker counts never change results or surfaced counters.
        """
        self.database = database
        self.predicate_cache = predicate_cache
        self.result_cache = result_cache
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.tracer = tracer
        self.metrics = metrics
        self.scan_workers = scan_workers
        self._executor = Executor(database)
        self._m_queries = None
        if metrics is not None:
            self._register_metrics(metrics)

    def set_predicate_cache(self, predicate_cache) -> None:
        """Swap the predicate cache (or :class:`ClusterCaches` router)
        mid-workload — e.g. after a cluster restart hydrated a fresh
        cache from a :class:`~repro.persist.CacheStore`.  A statement
        already running finishes on the cache it started with."""
        self.predicate_cache = predicate_cache

    def _register_metrics(self, registry) -> None:
        self._m_queries = registry.counter(
            "repro_queries_total", "Queries executed (incl. DML statements)"
        )
        self._m_result_cache_hits = registry.counter(
            "repro_result_cache_hits_total", "Queries served by the result cache"
        )
        self._m_query_seconds = registry.histogram(
            "repro_query_seconds", "Per-query wall-clock latency"
        )
        # Every numeric QueryCounters field gets a summed total, derived
        # from the dataclass so the two cannot drift (result_cache_hit is
        # covered by the dedicated counter above, wall_seconds
        # additionally by the latency histogram).
        self._m_counter_totals = {
            field.name: registry.counter(
                f"repro_query_{field.name}_total",
                f"Summed per-query {field.name}",
            )
            for field in fields(QueryCounters)
            if field.name != "result_cache_hit"
        }
        self.database.register_metrics(registry)
        if self.predicate_cache is not None:
            self.predicate_cache.register_metrics(registry)

    def _record_query_metrics(self, counters: QueryCounters) -> None:
        if self._m_queries is None:
            return
        self._m_queries.inc()
        self._m_query_seconds.observe(counters.wall_seconds)
        if counters.result_cache_hit:
            self._m_result_cache_hits.inc()
        as_dict = counters.as_dict()
        for name, instrument in self._m_counter_totals.items():
            value = as_dict[name]
            if value:
                instrument.inc(value)

    # -- queries ------------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Parse, plan, and run one SQL statement.

        SELECTs go through the result cache (when configured) keyed by
        the normalized statement text; DML returns a single-column
        ``affected`` result.  With a tracer attached the whole
        statement runs under a ``query`` root span, returned on
        ``result.trace``.
        """
        return self._execute(sql, self._statement_trace())

    def _statement_trace(self) -> Optional[Tracer]:
        """The next statement's own span stack on the engine's tracer."""
        return self.tracer.for_statement() if self.tracer is not None else None

    def _begin_statement(
        self, trace: Optional[Tracer], cache: Optional[PredicateCache] = None
    ) -> StatementContext:
        """The one place a statement's context is built: a fresh
        snapshot, and the worker count as configured right now."""
        return StatementContext(
            self.database.begin(), self.database.rms, cache, trace, self.scan_workers
        )

    def _execute(self, sql: str, trace: Optional[Tracer]) -> QueryResult:
        """:meth:`execute` under ``trace`` — a span stack of the engine's
        tracer, or the one-off tracer of :meth:`explain_analyze`."""
        with optional_span(trace, "query", sql=sql) as query_span:
            result = self._execute_statement(sql, trace)
        if query_span is not None:
            query_span.set("rows_output", result.counters.rows_output)
            query_span.set("wall_seconds", result.counters.wall_seconds)
            result.trace = query_span
        return result

    def _execute_statement(self, sql: str, trace: Optional[Tracer]) -> QueryResult:
        from ..sql import (
            AnalyzeStatement,
            DeleteStatement,
            InsertStatement,
            SelectStatement,
            UpdateStatement,
            VacuumStatement,
            parse_statement,
            plan_select,
        )

        with optional_span(trace, "parse"):
            parsed = parse_statement(sql)
        if isinstance(parsed, SelectStatement):
            with optional_span(trace, "plan"):
                plan = plan_select(parsed, self.database)
            return self._execute_plan(plan, _normalize_sql(sql), trace)
        if isinstance(parsed, InsertStatement):
            table = self.database.table(parsed.table)
            columns = parsed.columns or table.schema.column_names
            if any(len(row) != len(columns) for row in parsed.rows):
                raise ValueError("VALUES row width does not match column list")
            rows = {
                name: [row[i] for row in parsed.rows]
                for i, name in enumerate(columns)
            }
            # Unlisted columns are not supported (no NULL defaults here).
            missing = set(table.schema.column_names) - set(columns)
            if missing:
                raise ValueError(f"INSERT must provide columns {sorted(missing)}")
            return self._dml_result(self.insert(parsed.table, rows))
        if isinstance(parsed, (DeleteStatement, UpdateStatement)):
            statement = self._begin_statement(trace)
            predicate = parsed.predicate or TruePredicate()
            if isinstance(parsed, DeleteStatement):
                affected = self._delete(statement, parsed.table, predicate)
            else:
                affected = self._update(
                    statement, parsed.table, predicate, dict(parsed.assignments)
                )
            return self._dml_result(affected, statement)
        if isinstance(parsed, VacuumStatement):
            changed = self.vacuum([parsed.table] if parsed.table else None)
            return self._dml_result(len(changed))
        if isinstance(parsed, AnalyzeStatement):
            analyzed = self.database.analyze(
                [parsed.table] if parsed.table else None
            )
            return self._dml_result(len(analyzed))
        raise TypeError(f"unhandled statement {type(parsed).__name__}")

    def _dml_result(
        self, affected: int, statement: Optional[StatementContext] = None
    ) -> QueryResult:
        """One ``affected`` row; with the counters of the scan that found
        the rows when the statement ran one (DELETE, UPDATE)."""
        counters = statement.close() if statement is not None else QueryCounters()
        counters.rows_output = 1
        self._record_query_metrics(counters)
        return QueryResult(
            {"affected": np.array([affected])}, ["affected"], counters
        )

    def execute_plan(
        self, plan: PlanNode, cache_key: Optional[str] = None
    ) -> QueryResult:
        """Execute a plan tree.

        ``cache_key`` enables the result cache: identical keys over
        unchanged tables return the stored result without execution
        (§3.1).  SQL execution passes the statement text.
        """
        return self._execute_plan(plan, cache_key, self._statement_trace())

    def _execute_plan(
        self, plan: PlanNode, cache_key: Optional[str], trace: Optional[Tracer]
    ) -> QueryResult:
        if self.result_cache is not None and cache_key is not None:
            versions = self._table_versions(plan)
            hit = self.result_cache.lookup(cache_key, versions)
            if hit is not None:
                counters = QueryCounters()
                counters.result_cache_hit = True
                counters.model_seconds = self.cost_model.query_overhead
                columns, order = hit
                with optional_span(trace, "result-cache") as span:
                    if span is not None:
                        span.set("outcome", "hit")
                self._record_query_metrics(counters)
                return QueryResult(dict(columns), list(order), counters)

        started = time.perf_counter()
        # The statement's storage reader has a private sink that sees
        # only this query's block traffic, even when other queries run
        # concurrently on the same storage (a global snapshot/delta
        # would fold their fetches in).  It also carries the per-query
        # retry budget the resilient fetch path spends.
        statement = self._begin_statement(trace, self.predicate_cache)
        # The context manager closes the span when the executor
        # raises, so a failed query never parents the next one.
        with optional_span(trace, "execute") as execute_span:
            batch = self._executor.execute(plan, statement)
        with optional_span(trace, "output") as span:
            order = self._output_order(plan, batch)
            if span is not None:
                span.set("rows_output", _batch_len(batch))
        counters = statement.close()
        counters.rows_output = _batch_len(batch)
        counters.wall_seconds = time.perf_counter() - started
        # Retry backoff and injected latency are model time the query
        # actually waited out; fold them into the modeled runtime.
        counters.model_seconds = (
            self.cost_model.runtime(counters) + counters.backoff_seconds
        )

        if self.result_cache is not None and cache_key is not None:
            self.result_cache.store(
                cache_key, self._table_versions(plan), (batch, order)
            )
        self._record_query_metrics(counters)
        return QueryResult(batch, order, counters, trace=execute_span)

    def _output_order(self, plan: PlanNode, batch: Batch) -> List[str]:
        try:
            order = plan.output_columns()
        except ValueError:
            order = sorted(batch)
        return [name for name in order if name in batch] + [
            name for name in sorted(batch) if name not in order
        ]

    def _table_versions(self, plan: PlanNode) -> Dict[str, int]:
        return {
            name: self.database.table(name).data_version
            for name in plan.referenced_tables()
        }

    # -- DML ---------------------------------------------------------------------

    def insert(self, table_name: str, rows: Mapping[str, Sequence[object]]) -> int:
        """Insert rows; returns the number of rows added."""
        txid = self.database.begin()
        return self.database.table(table_name).insert(rows, txid)

    def delete_where(self, table_name: str, predicate: Predicate) -> int:
        """MVCC-delete every visible row matching ``predicate``."""
        return self._delete(self._begin_statement(None), table_name, predicate)

    def _delete(
        self, statement: StatementContext, table_name: str, predicate: Predicate
    ) -> int:
        table = self.database.table(table_name)
        # Deletes bypass the predicate cache (the statement carries none):
        # reusing a cached entry here would be correct (false positives
        # re-checked), but Redshift's prototype hooks only the SELECT
        # scan path.
        result = execute_scan(table, predicate, statement)
        write_txid = self.database.begin()
        deleted = 0
        for slice_id, qualifying in enumerate(result.per_slice):
            if qualifying:
                deleted += table.delete_local_rows(
                    slice_id, qualifying.to_row_ids(), write_txid
                )
        return deleted

    def update_where(
        self,
        table_name: str,
        predicate: Predicate,
        assignments: Mapping[str, object],
    ) -> int:
        """Update = MVCC delete + append of new row versions (§4.3.3)."""
        return self._update(
            self._begin_statement(None), table_name, predicate, assignments
        )

    def _update(
        self,
        statement: StatementContext,
        table_name: str,
        predicate: Predicate,
        assignments: Mapping[str, object],
    ) -> int:
        table = self.database.table(table_name)
        unknown = set(assignments) - set(table.schema.column_names)
        if unknown:
            raise ValueError(f"unknown columns in UPDATE: {sorted(unknown)}")
        result = execute_scan(table, predicate, statement)
        old_rows = result.gather(table.schema.column_names)
        count = _batch_len(old_rows)
        if count == 0:
            return 0
        write_txid = self.database.begin()
        for slice_id, qualifying in enumerate(result.per_slice):
            if qualifying:
                table.delete_local_rows(
                    slice_id, qualifying.to_row_ids(), write_txid
                )
        new_rows = dict(old_rows)
        for name, value in assignments.items():
            new_rows[name] = np.full(count, value, dtype=old_rows[name].dtype)
        table.insert(new_rows, write_txid)
        return count

    def vacuum(self, tables: Optional[Sequence[str]] = None) -> List[str]:
        """Physically reclaim deleted rows (invalidates cache entries)."""
        return self.database.vacuum(tables)

    # -- introspection -----------------------------------------------------------

    def explain(self, sql: str) -> str:
        """Plan a SELECT and render its plan tree (no execution)."""
        from ..sql import SelectStatement, parse_statement, plan_select
        from .explain import explain as render

        statement = parse_statement(sql)
        if not isinstance(statement, SelectStatement):
            raise ValueError("EXPLAIN supports SELECT statements only")
        return render(plan_select(statement, self.database))

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` under a one-off tracer and render the span tree.

        The rendering shows per-operator wall time, rows, block fetches,
        and the cache outcome of every scan slice — the runtime twin of
        :meth:`explain`.  Works whether or not the engine already has a
        tracer: the temporary one is handed down the call, the engine is
        not touched, so statements running concurrently neither record
        into it nor lose their own.
        """
        from .explain import render_analyze

        result = self._execute(sql, Tracer())
        return render_analyze(result.trace, result.counters)

    def count_rows(self, table_name: str) -> int:
        """Visible row count of a table at a fresh snapshot."""
        txid = self.database.begin()
        return self.database.table(table_name).visible_row_count(txid)
