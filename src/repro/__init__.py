"""Predicate Caching — reproduction of Schmidt et al., SIGMOD 2024.

A query-driven secondary index for cloud data warehouses: scans cache
the row ranges that qualified their filter (and semi-join) predicates;
repeats of the same scan skip everything else.

Quickstart::

    from repro import Database, QueryEngine, PredicateCache
    from repro.storage import TableSchema, ColumnSpec, DataType

    db = Database()
    db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))
    engine = QueryEngine(db, predicate_cache=PredicateCache())
    engine.insert("t", {"x": range(100_000)})
    result = engine.execute("select count(*) from t where x < 10")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .cluster import ClusterCaches
from .core import (
    AlwaysAdmit,
    CacheStats,
    CostBasedPolicy,
    PredicateCache,
    PredicateCacheConfig,
    RangeList,
    ReuseStats,
    ScanKey,
    SemiJoinDescriptor,
)
from .engine import CostModel, QueryCounters, QueryEngine, QueryResult
from .faults import (
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    StorageFault,
    TransientStorageError,
)
from .obs import MetricsRegistry, Span, Tracer
from .persist import CacheStore
from .predicates import normalize, parse_predicate
from .serve import (
    AdmissionController,
    QueryServer,
    Request,
    RequestStatus,
    Response,
)
from .storage import (
    ColumnSpec,
    Database,
    DataType,
    Table,
    TableSchema,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AlwaysAdmit",
    "CacheStats",
    "CacheStore",
    "ClusterCaches",
    "CostBasedPolicy",
    "ColumnSpec",
    "CostModel",
    "Database",
    "DataType",
    "FaultInjector",
    "MetricsRegistry",
    "PredicateCache",
    "PredicateCacheConfig",
    "QueryCounters",
    "QueryEngine",
    "QueryResult",
    "QueryServer",
    "RangeList",
    "Request",
    "RequestStatus",
    "Response",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "ReuseStats",
    "ScanKey",
    "SemiJoinDescriptor",
    "Span",
    "StorageFault",
    "Table",
    "TransientStorageError",
    "TableSchema",
    "Tracer",
    "normalize",
    "parse_predicate",
]
