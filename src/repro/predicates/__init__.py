"""Predicate ASTs, vectorized evaluation, and canonical cache keys.

Predicates are the unit the predicate cache indexes: a scan's filter
condition, pushed down by the optimizer, becomes a canonical string key
(§4.1 — the paper caches the optimizer's textual representation without
normalization).  This package provides:

* the expression node types (:mod:`repro.predicates.ast`),
* numpy-vectorized evaluation over column batches,
* helpers for building conjunctions and extracting referenced columns,
* a small predicate parser used by the SQL front end and tests,
* single-column intervals, what the reuse lattice's subsumption
  matcher and the cache's interval index work on.
"""

from .ast import (
    And,
    Between,
    Bounds,
    ColumnComparison,
    ColumnRef,
    Comparison,
    FalsePredicate,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
    col,
    conjunction_of,
    lit,
)
from .interval import exact_interval, exact_interval_of_key, single_column_range
from .normalize import normalize, push_not_inward, to_cnf
from .parser import parse_predicate

__all__ = [
    "And",
    "Between",
    "Bounds",
    "ColumnComparison",
    "ColumnRef",
    "Comparison",
    "FalsePredicate",
    "InList",
    "IsNull",
    "Like",
    "Literal",
    "Not",
    "Or",
    "Predicate",
    "TruePredicate",
    "col",
    "conjunction_of",
    "exact_interval",
    "exact_interval_of_key",
    "lit",
    "normalize",
    "parse_predicate",
    "push_not_inward",
    "single_column_range",
    "to_cnf",
]
