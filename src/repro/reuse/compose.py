"""Intersection composition: serve a conjunction from cached parts.

On a full-key miss the composer probes the cache for each conjunct of
the decomposed predicate (falling back to the subsumption matcher per
part) and hands the scan the live entries it resolved.  The scan's plan
serves each slice from the intersection of those entries' row sets
(each state's ascending row ids, ``SliceState.rows``) — PartitionCache's
set intersection of cached results, and nothing more.

A column two or more exact-interval conjuncts bound (``store >= 5 AND
store < 7``, split in half-open parts each nearly every row satisfies)
is probed first as that one interval, under the plain key a direct scan
of it installs; on a hit with state it is the column's part, and the
halves are not probed.

Soundness: each part's rows are a superset of that part's truth
(cached false positives plus the part's own uncached tail, which
is included wholesale).  The intersection of supersets of each
conjunct's truth is a superset of the conjunction's truth — and so is
the intersection over any *subset* of conjuncts, which is why partial
resolution (only ``A`` cached when ``A AND B`` is asked) still serves.
An interval's truth is the conjunction of its halves', so it serves
like them.
The scan re-evaluates the real predicate plus visibility over the
candidates, so the result is bit-identical to a cache-off scan.

Nothing is built here: a plan names installed entries, whose bytes are
accounted once, on themselves.  This module is read-only over the
cache — checker rule RP009.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

from ..core.keys import ScanKey
from ..predicates.ast import And
from ..predicates.interval import single_column_range
from .decompose import Conjunct, Decomposition
from .subsume import find_subsuming

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry

__all__ = ["ReusePlan", "plan_reuse"]


@dataclass(frozen=True)
class ReusePlan:
    """The live entries a full-key miss is served from."""

    #: The resolved intervals' entries, then the conjuncts', in order.
    sources: Tuple["CacheEntry", ...]
    #: How many of them a wider cached range stands in for.
    subsumed_parts: int

    @property
    def basis(self) -> str:
        """``"subsumed"`` if any part is a wider range, else ``"composed"``."""
        return "subsumed" if self.subsumed_parts else "composed"


def plan_reuse(
    cache: "PredicateCache",
    decomposition: Decomposition,
    current_versions: Optional[Mapping[str, int]],
) -> Optional[ReusePlan]:
    """The entries that serve a full-key miss, or ``None``.

    Probes each column's interval, then each conjunct no interval entry
    stands in for, with :meth:`PredicateCache.lookup_part`; a conjunct
    without an exact entry that has recorded state falls back to the
    subsumption matcher.  Any non-empty subset of resolved parts is a
    sound basis (see module docstring); every source has recorded state
    on some slice, and slices where none has stay cold, exactly like a
    partial entry.
    """
    sources: List["CacheEntry"] = []
    intervals: Dict[str, List[Conjunct]] = {}
    for conjunct in decomposition.conjuncts:
        interval = single_column_range(conjunct.predicate)
        if interval is not None and interval[2]:
            intervals.setdefault(interval[0], []).append(conjunct)
    served: Set[ScanKey] = set()
    for parts in intervals.values():
        if len(parts) < 2:
            continue
        conjunction = And(tuple(part.predicate for part in parts))
        key = ScanKey(decomposition.table, conjunction.cache_key())
        entry = _with_state(cache.lookup_part(key, current_versions))
        if entry is not None:
            sources.append(entry)
            served.update(part.key for part in parts)
    subsumed_parts = 0
    for conjunct in decomposition.conjuncts:
        if conjunct.key in served:
            continue
        entry = _with_state(cache.lookup_part(conjunct.key, current_versions))
        if entry is None:
            entry = find_subsuming(cache, conjunct)
            if entry is not None:
                subsumed_parts += 1
        if entry is not None:
            sources.append(entry)
    if not sources:
        return None
    return ReusePlan(tuple(sources), subsumed_parts)


def _with_state(entry: Optional["CacheEntry"]) -> Optional["CacheEntry"]:
    """``entry`` if it has recorded state on some slice, else ``None``."""
    if entry is None or all(state is None for state in entry.slice_states):
        return None
    return entry
