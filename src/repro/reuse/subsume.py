"""Subsumption matching: serve a range from a cached wider range.

Dashboard drill-downs narrow a range predicate step by step
(``x < 150`` → ``x < 100`` → ``x < 80``); exact-match caching restarts
cold at every step.  The matcher here finds a cached entry on the same
table and column whose interval *contains* the requested one.  Its
cached candidate set is a superset of the wider predicate's truth, hence
a superset of the narrower one's — the scan serves from it and the
normal residual re-check (the predicate is always re-evaluated over
candidates) filters the extra rows out.

Read-only over the cache (RP009): candidate entries are discovered by
parsing their canonical predicate keys back into ASTs — the cache key
*is* the predicate, so no side index is needed.  Parses are memoized;
the cache key space is bounded by the entry budget.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from ..predicates.ast import And, Between, Bounds, Comparison, Predicate
from ..predicates.parser import PredicateParseError, parse_predicate

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry
    from .decompose import Conjunct

__all__ = ["bounds_contain", "find_subsuming"]


def _is_exact_interval(predicate: Predicate) -> bool:
    """True when a one-column predicate holds for *every* value inside
    its ``bounds()`` — a comparison (not ``<>``), ``BETWEEN``, or a
    conjunction of those.  Anything else (``IN``, ``<>``, ``LIKE``,
    ``OR``) only reports a zone-map hull with holes in it.
    """
    if isinstance(predicate, And):
        return all(_is_exact_interval(op) for op in predicate.operands)
    if isinstance(predicate, Comparison):
        return predicate.op != "<>"
    return isinstance(predicate, Between)


@lru_cache(maxsize=4096)
def _single_column_range(predicate_key: str) -> Optional[Tuple[str, Bounds, bool]]:
    """Parse a cache key back into ``(column, bounds, exact)`` if it is
    a one-column predicate with value bounds; ``None`` for anything
    else.  ``exact`` says whether the bounds are the predicate's truth
    (:func:`_is_exact_interval`) or merely a hull around it.
    """
    try:
        predicate: Predicate = parse_predicate(predicate_key)
    except PredicateParseError:
        return None
    columns = predicate.columns()
    if len(columns) != 1:
        return None
    (column,) = columns
    bounds = predicate.bounds(column)
    if bounds is None or bounds.unbounded:
        return None
    return column, bounds, _is_exact_interval(predicate)


def bounds_contain(outer: Bounds, inner: Bounds) -> bool:
    """True when the ``outer`` interval contains the ``inner`` one.

    ``None`` endpoints are infinite; a strict outer endpoint only
    contains an equal inner endpoint if the inner one is strict too.
    Incomparable endpoint types (a string bound against a numeric
    request) never contain each other.
    """
    try:
        if outer.lo is not None:
            if inner.lo is None or inner.lo < outer.lo:
                return False
            if inner.lo == outer.lo and outer.lo_strict and not inner.lo_strict:
                return False
        if outer.hi is not None:
            if inner.hi is None or inner.hi > outer.hi:
                return False
            if inner.hi == outer.hi and outer.hi_strict and not inner.hi_strict:
                return False
    except TypeError:
        return False
    return True


def _interval_width(bounds: Bounds) -> float:
    """Finite interval width, ``inf`` for half-open or non-numeric."""
    if bounds.lo is None or bounds.hi is None:
        return float("inf")
    try:
        return float(bounds.hi) - float(bounds.lo)
    except (TypeError, ValueError):
        return float("inf")


def find_subsuming(
    cache: "PredicateCache", conjunct: "Conjunct"
) -> Optional["CacheEntry"]:
    """Find the tightest live cached entry whose range contains
    ``conjunct``'s, or ``None``.

    Only plain (non-join) single-column range entries on the same table
    qualify, and only ones that have recorded at least one slice state —
    an empty shell cannot serve anything.  The cached side must be an
    *exact* interval: a hull (``k IN (7, 80)``) contains values its
    predicate rejects, so its rows are no superset of ``k = 26``'s.  The
    requested side may be a hull — containing the hull contains the
    truth inside it.  Ties are broken toward the most selective entry
    (fewest false positives to re-check), then the narrowest interval.
    """
    requested = _single_column_range(conjunct.key.predicate_key)
    if requested is None:
        return None
    column, wanted, _ = requested
    prefix = f"{column} "
    best: Optional["CacheEntry"] = None
    best_rank: Tuple[float, float] = (float("inf"), float("inf"))
    for entry in cache.entries():
        key = entry.key
        if (
            key.is_join_key
            or key.table != conjunct.key.table
            or key.predicate_key == conjunct.key.predicate_key
            or not key.predicate_key.startswith(prefix)
        ):
            continue
        cached = _single_column_range(key.predicate_key)
        if cached is None or cached[0] != column or not cached[2]:
            continue
        if not bounds_contain(cached[1], wanted):
            continue
        if not any(state is not None for state in entry.slice_states):
            continue
        rank = (entry.selectivity, _interval_width(cached[1]))
        if rank < best_rank:
            best, best_rank = entry, rank
    return best
