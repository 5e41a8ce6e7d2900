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
interval index (:meth:`PredicateCache.range_candidates`): of the live
plain entries whose key reads, once at install, as an exact interval of
the requested column — one bucket, never a walk of every entry — one
vectorized comparison of the bucket's interval ends keeps those that
contain the request.  Only those are ranked, on their live selectivity,
their width and their LRU stamp.  The requested side is read off the
decomposed conjunct's predicate, so nothing is parsed here.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..predicates.interval import single_column_range

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry
    from .decompose import Conjunct

__all__ = ["find_subsuming"]

_SELECTIVITY = attrgetter("selectivity")


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
    ``inf`` when half-open), then the least recently used (the smallest
    LRU stamp).  The containing entries are put in that order at once and
    the first that qualifies serves.
    """
    requested = single_column_range(conjunct.predicate)
    if requested is None:
        return None
    column, wanted, _ = requested
    found = cache.range_candidates(conjunct.key.table, column, wanted)
    count = 0 if found is None else len(found.entries)
    if not count:
        return None
    selectivity = np.fromiter(map(_SELECTIVITY, found.entries), np.float64, count)
    for at in np.lexsort((found.stamps, found.widths, selectivity)).tolist():
        entry = found.entries[at]
        if entry.key.predicate_key == conjunct.key.predicate_key:
            continue
        if found.recheck[at] and not found.bounds[at].contains(wanted):
            continue
        if any(state is not None for state in entry.slice_states):
            return entry
    return None
