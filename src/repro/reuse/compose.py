"""Intersection composition: serve a conjunction from cached parts.

On a full-key miss the composer probes the cache for each conjunct of
the decomposed predicate (falling back to the subsumption matcher per
part) and assembles an **ephemeral** serving whose per-slice candidate
set is the vectorized :meth:`RangeList.intersect` of the parts'
candidate sets.

Soundness: each part's ``candidates`` is a superset of that conjunct's
truth (cached false positives plus the part's own uncached tail, which
is included wholesale).  The intersection of supersets of each
conjunct's truth is a superset of the conjunction's truth — and so is
the intersection over any *subset* of conjuncts, which is why partial
resolution (only ``A`` cached when ``A AND B`` is asked) still serves.
The scan re-evaluates the real predicate plus visibility over the
candidates, so the result is bit-identical to a cache-off scan.

Nothing built here is ever installed: :class:`ReuseServing` and
:class:`ComposedSliceState` implement the entry and slice-state read
protocols the scan path uses and carry ``ephemeral = True`` so
``invariants.check_cache`` rejects any attempt to put one in the entry
table (which would double-count the source entries' bytes against the
budget).  This module is read-only
over the cache — checker rule RP009.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from ..core.rowrange import RangeList
from ..persist.records import key_digest
from .decompose import Conjunct, Decomposition
from .subsume import find_subsuming

if TYPE_CHECKING:
    from ..core.cache import PredicateCache
    from ..core.entry import CacheEntry, SliceState
    from ..core.keys import ScanKey

__all__ = ["ComposedSliceState", "ReusePlan", "ReuseServing", "plan_reuse"]


class ComposedSliceState:
    """Ephemeral intersection view over per-conjunct slice states.

    Duck-types the :class:`~repro.core.entry.SliceState` read API the
    scan path consumes (``candidates`` / ``last_cached_row`` /
    ``nbytes``).  The watermark is the *maximum* over the parts: a part
    with a lower watermark contributes its own uncached tail to its
    candidate set, so rows past any part's watermark are never skipped.
    The parts are immutable values taken from their slots once, so the
    view is as fixed as they are.  Never installed.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple["SliceState", ...]) -> None:
        self.parts = parts

    @property
    def last_cached_row(self) -> int:
        return max(part.last_cached_row for part in self.parts)

    def candidates(self, num_rows: int) -> RangeList:
        result = self.parts[0].candidates(num_rows)
        for part in self.parts[1:]:
            if not result:
                break
            result = result.intersect(part.candidates(num_rows))
        return result

    @property
    def nbytes(self) -> int:
        # The parts' bytes are accounted once, on their owning entries.
        return 0


@dataclass(slots=True)
class ReuseServing:
    """An ephemeral "entry" assembled from cached parts for one scan.

    Implements the part of the :class:`~repro.core.entry.CacheEntry`
    read protocol the scan path uses: ``key``, ``slice_states``,
    ``selectivity``, ``nbytes``, ``provenance``, ``source_digests`` and
    ``source_keys``.  The last drives stale-watermark drops (a vacuum
    mid-flight must drop the *source* entries, not the full key);
    ``source_digests`` become the provenance recorded on the full-key
    entry the served scan installs.
    """

    ephemeral = True

    key: "ScanKey"
    slice_states: List[Optional[object]]
    basis: str
    source_keys: Tuple["ScanKey", ...]

    @property
    def source_digests(self) -> Tuple[int, ...]:
        return tuple(key_digest(source) for source in self.source_keys)

    @property
    def provenance(self) -> str:
        return self.basis

    @property
    def selectivity(self) -> float:
        # Unknown until served; the scan path only reads this for spans.
        return 1.0

    @property
    def nbytes(self) -> int:
        return 0


@dataclass(frozen=True)
class ReusePlan:
    """A serving plus the diagnostics the tracer span reports."""

    serving: ReuseServing
    conjuncts: int
    resolved: int
    subsumed_parts: int


def plan_reuse(
    cache: "PredicateCache",
    decomposition: Decomposition,
    plain_key: "ScanKey",
    current_versions: Optional[Mapping[str, int]],
    num_slices: int,
) -> Optional[ReusePlan]:
    """Assemble a derived serving for a full-key miss, or ``None``.

    Probes each conjunct with :meth:`PredicateCache.lookup_part`; parts
    without an exact conjunct entry fall back to the subsumption
    matcher.  Any non-empty subset of resolved parts yields a sound
    serving (see module docstring); slices where no part has recorded
    state stay ``None`` and scan cold, exactly like a partial entry.
    """
    resolved: List[Tuple[Conjunct, "CacheEntry"]] = []
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
            resolved.append((conjunct, entry))
    if not resolved:
        return None
    slice_states: List[Optional[object]] = []
    for slice_id in range(num_slices):
        parts = tuple(
            state
            for state in (entry.slice_states[slice_id] for _, entry in resolved)
            if state is not None
        )
        if not parts:
            slice_states.append(None)
        elif len(parts) == 1:
            slice_states.append(parts[0])
        else:
            slice_states.append(ComposedSliceState(parts))
    if not any(state is not None for state in slice_states):
        return None
    basis = "subsumed" if subsumed_parts else "composed"
    serving = ReuseServing(
        plain_key,
        slice_states,
        basis,
        tuple(entry.key for _, entry in resolved),
    )
    return ReusePlan(
        serving,
        conjuncts=len(decomposition.conjuncts),
        resolved=len(resolved),
        subsumed_parts=subsumed_parts,
    )
