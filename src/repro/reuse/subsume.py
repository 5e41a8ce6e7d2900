"""Subsumption matching: serve a range from a cached wider range.

Dashboard drill-downs narrow a range predicate step by step
(``x < 150`` → ``x < 100`` → ``x < 80``); exact-match caching restarts
cold at every step.  The matcher here finds a cached entry on the same
table and column whose interval *contains* the requested one
(:meth:`~repro.predicates.ast.Bounds.contains`).  Its
cached candidate set is a superset of the wider predicate's truth, hence
a superset of the narrower one's — the scan serves from it and the
normal residual re-check (the predicate is always re-evaluated over
candidates) filters the extra rows out.

Read-only over the cache (RP009).  Candidates come from the cache's
interval index (:meth:`PredicateCache.range_entries`): the live plain
entries whose key parsed, once at install, to an exact interval of the
requested column — one bucket, never a walk of every entry.  The
requested side is read off the decomposed conjunct's predicate, so
nothing is parsed here.  An entry less selective than the best so far
is skipped on its rank alone, before any containment test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..predicates.interval import single_column_range

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry
    from .decompose import Conjunct

__all__ = ["find_subsuming"]


def find_subsuming(
    cache: "PredicateCache", conjunct: "Conjunct"
) -> Optional["CacheEntry"]:
    """Find the tightest live cached entry whose range contains
    ``conjunct``'s, or ``None``.

    Only plain (non-join) single-column range entries on the same table
    qualify, and only ones that have recorded at least one slice state —
    an empty shell cannot serve anything.  The cached side must be an
    *exact* interval: a hull (``k IN (7, 80)``) contains values its
    predicate rejects, so its rows are no superset of ``k = 26``'s — the
    interval index holds exact intervals only.  The requested side may
    be a hull — containing the hull contains the truth inside it.  Ties
    are broken toward the most selective entry (fewest false positives
    to re-check), then the narrowest interval (:meth:`Bounds.width`,
    ``inf`` when half-open), then the least recently
    used (the bucket's order).
    """
    requested = single_column_range(conjunct.predicate)
    if requested is None:
        return None
    column, wanted, _ = requested
    best: Optional["CacheEntry"] = None
    best_rank: Tuple[float, float] = (float("inf"), float("inf"))
    for entry, cached in cache.range_entries(conjunct.key.table, column):
        selectivity = entry.selectivity  # cannot win if already worse
        if selectivity > best_rank[0]:
            continue
        if entry.key.predicate_key == conjunct.key.predicate_key:
            continue
        if not cached.contains(wanted):
            continue
        if not any(state is not None for state in entry.slice_states):
            continue
        rank = (selectivity, cached.width())
        if rank < best_rank:
            best, best_rank = entry, rank
    return best
