"""Predicate normalization (the paper's §4.1.2 extension).

The prototype caches the optimizer's *string* representation, betting
that repeats are textually identical.  The paper notes that an SMT-
style normalization into conjunctive normal form could increase the hit
rate by unifying semantically equal predicates.  This module implements
a practical normalizer:

* **NOT push-down** — De Morgan plus comparison negation
  (``NOT x < 5`` becomes ``x >= 5``),
* **interval merging** — conjoined restrictions of one column collapse
  into the tightest form (``x > 3 AND x >= 5 AND x < 9`` becomes
  ``x BETWEEN-style`` bounds; contradictions become ``FALSE``),
* **duplicate elimination** and **constant folding** (``p AND p`` → p,
  ``p AND FALSE`` → FALSE, ``p OR TRUE`` → TRUE),
* **CNF conversion** (size-guarded distribution of OR over AND).

``normalize(p)`` returns an equivalent predicate whose ``cache_key()``
is canonical across these rewrites; the ablation bench measures the
hit-rate difference on a workload of syntactic variants.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from .ast import (
    And,
    Between,
    Bounds,
    ColumnComparison,
    ColumnRef,
    Comparison,
    FalsePredicate,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["normalize", "push_not_inward", "to_cnf"]

_NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def normalize(predicate: Predicate) -> Predicate:
    """An equivalent predicate in canonical form: NOT pushed inward, then
    OR distributed over AND (guarded against blow-up), simplified after
    each.  A first simplification that leaves no OR is the result: CNF
    has nothing to distribute there, and simplifying again changes
    nothing."""
    result = _simplify(push_not_inward(predicate))
    if not _holds_or(result):
        return result
    return _simplify(to_cnf(result))


def _holds_or(predicate: Predicate) -> bool:
    if isinstance(predicate, Or):
        return True
    if isinstance(predicate, And):
        return any(_holds_or(operand) for operand in predicate.operands)
    if isinstance(predicate, Not):
        return _holds_or(predicate.operand)
    return False


# -- NOT push-down --------------------------------------------------------------


def push_not_inward(predicate: Predicate) -> Predicate:
    """Eliminate NOT nodes where a direct negation exists."""
    if isinstance(predicate, Not):
        return _negate(push_not_inward(predicate.operand))
    if isinstance(predicate, And):
        return And(tuple(push_not_inward(p) for p in predicate.operands))
    if isinstance(predicate, Or):
        return Or(tuple(push_not_inward(p) for p in predicate.operands))
    return predicate


def _negate(predicate: Predicate) -> Predicate:
    if isinstance(predicate, TruePredicate):
        return FalsePredicate()
    if isinstance(predicate, FalsePredicate):
        return TruePredicate()
    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.column, _NEGATED_OP[predicate.op], predicate.literal
        )
    if isinstance(predicate, ColumnComparison):
        return ColumnComparison(
            predicate.left, _NEGATED_OP[predicate.op], predicate.right
        )
    if isinstance(predicate, Between):
        return Or(
            (
                Comparison(predicate.column, "<", predicate.low),
                Comparison(predicate.column, ">", predicate.high),
            )
        )
    if isinstance(predicate, IsNull):
        return IsNull(predicate.column, negated=not predicate.negated)
    if isinstance(predicate, Like):
        return Like(predicate.column, predicate.pattern, negated=not predicate.negated)
    if isinstance(predicate, And):
        return Or(tuple(_negate(p) for p in predicate.operands))
    if isinstance(predicate, Or):
        return And(tuple(_negate(p) for p in predicate.operands))
    if isinstance(predicate, Not):
        return predicate.operand
    return Not(predicate)  # InList and friends keep an explicit NOT


# -- simplification ----------------------------------------------------------------


def _simplify(predicate: Predicate) -> Predicate:
    if isinstance(predicate, And):
        return _simplify_and(predicate)
    if isinstance(predicate, Or):
        return _simplify_or(predicate)
    if isinstance(predicate, Between) and predicate.low.value == predicate.high.value:
        return Comparison(predicate.column, "=", predicate.low)
    return predicate


def _simplify_and(predicate: And) -> Predicate:
    conjuncts: List[Predicate] = []
    for operand in predicate.operands:
        simplified = _simplify(operand)
        if isinstance(simplified, FalsePredicate):
            return FalsePredicate()
        if isinstance(simplified, TruePredicate):
            continue
        if isinstance(simplified, And):
            conjuncts.extend(simplified.operands)
        else:
            conjuncts.append(simplified)

    merged, contradiction = _merge_column_intervals(conjuncts)
    if contradiction:
        return FalsePredicate()

    # Deduplicate by cache key (p AND p -> p).
    seen: Dict[str, Predicate] = {}
    for conjunct in merged:
        seen.setdefault(conjunct.cache_key(), conjunct)
    unique = list(seen.values())
    if not unique:
        return TruePredicate()
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))


def _simplify_or(predicate: Or) -> Predicate:
    disjuncts: List[Predicate] = []
    for operand in predicate.operands:
        simplified = _simplify(operand)
        if isinstance(simplified, TruePredicate):
            return TruePredicate()
        if isinstance(simplified, FalsePredicate):
            continue
        if isinstance(simplified, Or):
            disjuncts.extend(simplified.operands)
        else:
            disjuncts.append(simplified)
    seen: Dict[str, Predicate] = {}
    for disjunct in disjuncts:
        seen.setdefault(disjunct.cache_key(), disjunct)
    unique = list(seen.values())
    if not unique:
        return FalsePredicate()
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


def _merge_column_intervals(
    conjuncts: List[Predicate],
) -> Tuple[List[Predicate], bool]:
    """Collapse single-column range restrictions into tightest forms.

    Returns (new conjunct list, contradiction flag).
    """
    mergeable: Dict[str, List[Tuple[Predicate, Bounds]]] = {}
    passthrough: List[Predicate] = []
    for conjunct in conjuncts:
        bounds = _range_bounds(conjunct)
        if bounds is None:
            passthrough.append(conjunct)
        else:
            mergeable.setdefault(_column_of(conjunct), []).append((conjunct, bounds))

    merged: List[Predicate] = []
    for column, parts in sorted(mergeable.items()):
        if len(parts) == 1:
            merged.append(parts[0][0])
            continue
        interval = reduce(Bounds.meet, [bounds for _, bounds in parts])
        rebuilt, contradiction = _interval_to_predicate(column, interval)
        if contradiction:
            return [], True
        if rebuilt is not None:
            merged.append(rebuilt)
    return passthrough + merged, False


def _range_bounds(predicate: Predicate) -> Optional[Bounds]:
    """The interval of a numeric comparison (not ``<>``) or BETWEEN."""
    if isinstance(predicate, Between):
        values = (predicate.low.value, predicate.high.value)
    elif isinstance(predicate, Comparison) and predicate.op != "<>":
        values = (predicate.literal.value,)
    else:
        return None
    if not all(_comparable(value) for value in values):
        return None
    return predicate.bounds(_column_of(predicate))


def _comparable(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _column_of(predicate: Predicate) -> str:
    return next(iter(predicate.columns()))


def _interval_to_predicate(
    column: str, interval: Bounds
) -> Tuple[Optional[Predicate], bool]:
    """Rebuild the tightest predicate for an interval; detect emptiness."""
    ref = ColumnRef(column)
    lo, hi = interval.lo, interval.hi
    if lo is not None and hi is not None:
        if lo > hi:
            return None, True
        if lo == hi:
            if interval.lo_strict or interval.hi_strict:
                return None, True
            return Comparison(ref, "=", Literal(lo)), False
        if not interval.lo_strict and not interval.hi_strict:
            return Between(ref, Literal(lo), Literal(hi)), False
        return (
            And(
                (
                    Comparison(ref, ">" if interval.lo_strict else ">=", Literal(lo)),
                    Comparison(ref, "<" if interval.hi_strict else "<=", Literal(hi)),
                )
            ),
            False,
        )
    if lo is not None:
        return Comparison(ref, ">" if interval.lo_strict else ">=", Literal(lo)), False
    if hi is not None:
        return Comparison(ref, "<" if interval.hi_strict else "<=", Literal(hi)), False
    return None, False


# -- CNF ----------------------------------------------------------------------------

_CNF_CLAUSE_LIMIT = 64


def to_cnf(predicate: Predicate) -> Predicate:
    """Conjunctive normal form, guarded against exponential blow-up.

    If distribution would exceed ``_CNF_CLAUSE_LIMIT`` clauses the input
    is returned unchanged (still canonicalized by the other rewrites).
    """
    clauses = _cnf_clauses(predicate)
    if clauses is None:
        return predicate
    rebuilt = [
        clause[0] if len(clause) == 1 else Or(tuple(clause)) for clause in clauses
    ]
    if not rebuilt:
        return TruePredicate()
    if len(rebuilt) == 1:
        return rebuilt[0]
    return And(tuple(rebuilt))


def _cnf_clauses(predicate: Predicate) -> Optional[List[List[Predicate]]]:
    if isinstance(predicate, And):
        clauses: List[List[Predicate]] = []
        for operand in predicate.operands:
            sub = _cnf_clauses(operand)
            if sub is None:
                return None
            clauses.extend(sub)
            if len(clauses) > _CNF_CLAUSE_LIMIT:
                return None
        return clauses
    if isinstance(predicate, Or):
        # CNF(a OR b) = cross product of clauses of a and clauses of b.
        result: List[List[Predicate]] = [[]]
        for operand in predicate.operands:
            sub = _cnf_clauses(operand)
            if sub is None:
                return None
            result = [
                existing + clause for existing in result for clause in sub
            ]
            if len(result) > _CNF_CLAUSE_LIMIT:
                return None
        return result
    if isinstance(predicate, TruePredicate):
        return []
    return [[predicate]]
