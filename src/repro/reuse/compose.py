"""Intersection composition: serve a conjunction from cached parts.

On a full-key miss the composer probes the cache for each conjunct of
the decomposed predicate (falling back to the subsumption matcher per
part) and hands the scan the live entries it resolved.  The scan serves
each slice from the vectorized :meth:`RangeList.intersect` of those
entries' candidate sets — PartitionCache's set intersection of cached
results, and nothing more.

Soundness: each part's ``candidates`` is a superset of that conjunct's
truth (cached false positives plus the part's own uncached tail, which
is included wholesale).  The intersection of supersets of each
conjunct's truth is a superset of the conjunction's truth — and so is
the intersection over any *subset* of conjuncts, which is why partial
resolution (only ``A`` cached when ``A AND B`` is asked) still serves.
The scan re-evaluates the real predicate plus visibility over the
candidates, so the result is bit-identical to a cache-off scan.

Nothing is built here: a plan names installed entries, whose bytes are
accounted once, on themselves.  This module is read-only over the
cache — checker rule RP009.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from .decompose import Decomposition
from .subsume import find_subsuming

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry

__all__ = ["ReusePlan", "plan_reuse"]


@dataclass(frozen=True)
class ReusePlan:
    """The live entries a full-key miss is served from."""

    #: One resolved entry per resolved conjunct, in conjunct order.
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

    Probes each conjunct with :meth:`PredicateCache.lookup_part`; parts
    without an exact conjunct entry that has recorded state fall back to
    the subsumption matcher.  Any non-empty subset of resolved parts is
    a sound basis (see module docstring); every source has recorded
    state on some slice, and slices where none has stay cold, exactly
    like a partial entry.
    """
    sources: List["CacheEntry"] = []
    subsumed_parts = 0
    for conjunct in decomposition.conjuncts:
        entry = cache.lookup_part(conjunct.key, current_versions)
        if entry is not None and not any(
            state is not None for state in entry.slice_states
        ):
            entry = None
        if entry is None:
            entry = find_subsuming(cache, conjunct)
            if entry is not None:
                subsumed_parts += 1
        if entry is not None:
            sources.append(entry)
    if not sources:
        return None
    return ReusePlan(tuple(sources), subsumed_parts)
