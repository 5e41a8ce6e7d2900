"""Engine-variant benchmark runner (the Table 4 machinery).

A :class:`Variant` describes one engine configuration of the paper's
comparison: original (no predicate cache), PC^B (bitmap), PC^R (range),
PS (predicate sorting), or combinations.  ``compare_variants`` loads a
fresh database per variant (physical-layout variants rewrite tables),
warms each query once, and reports the repeat-execution counters —
matching the paper's methodology where Table 4 reports runs with the
cache populated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.sorting import PredicateSorter
from ..core.cache import PredicateCache
from ..core.config import PredicateCacheConfig
from ..engine.engine import QueryEngine
from ..predicates.ast import Predicate
from ..storage.database import Database

__all__ = ["Variant", "BenchmarkRow", "run_query_set", "compare_variants"]


@dataclass
class Variant:
    """One engine configuration under comparison."""

    name: str
    cache_config: Optional[PredicateCacheConfig] = None
    sort_predicates: Dict[str, List[Predicate]] = field(default_factory=dict)

    def build_engine(self, database: Database) -> QueryEngine:
        cache = PredicateCache(self.cache_config) if self.cache_config else None
        for table_name, predicates in self.sort_predicates.items():
            PredicateSorter(predicates).apply(database.table(table_name))
        return QueryEngine(database, predicate_cache=cache)


@dataclass
class BenchmarkRow:
    """Counters of one query under one variant (repeat execution)."""

    query: str
    variant: str
    model_seconds: float
    wall_seconds: float
    rows_scanned: int
    blocks_accessed: int
    rows_output: int
    cold_model_seconds: float = 0.0


def run_query_set(
    engine: QueryEngine,
    queries: Dict[str, str],
    variant_name: str = "default",
    warmup_runs: int = 1,
) -> List[BenchmarkRow]:
    """Run each query ``warmup_runs + 1`` times; report the last run.

    The warmup run(s) populate the predicate cache (and the block
    cache); the measured run is the repeat execution the paper's
    Table 4 reports.
    """
    rows: List[BenchmarkRow] = []
    for name, sql in queries.items():
        cold = engine.execute(sql)
        for _ in range(warmup_runs - 1):
            engine.execute(sql)
        measured = engine.execute(sql) if warmup_runs >= 1 else cold
        rows.append(
            BenchmarkRow(
                query=name,
                variant=variant_name,
                model_seconds=measured.counters.model_seconds,
                wall_seconds=measured.counters.wall_seconds,
                rows_scanned=measured.counters.rows_scanned,
                blocks_accessed=measured.counters.blocks_accessed,
                rows_output=measured.num_rows,
                cold_model_seconds=cold.counters.model_seconds,
            )
        )
    return rows


def compare_variants(
    loader: Callable[[Database], None],
    make_database: Callable[[], Database],
    queries: Dict[str, str],
    variants: Sequence[Variant],
    warmup_runs: int = 1,
) -> Dict[str, List[BenchmarkRow]]:
    """Run the query set under every variant on freshly loaded data.

    Every variant gets its own database instance so that physical
    reorganizations (predicate sorting) do not leak across variants.
    """
    results: Dict[str, List[BenchmarkRow]] = {}
    for variant in variants:
        database = make_database()
        loader(database)
        engine = variant.build_engine(database)
        results[variant.name] = run_query_set(
            engine, queries, variant.name, warmup_runs
        )
    return results
