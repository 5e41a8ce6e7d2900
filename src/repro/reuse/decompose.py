"""Conjunct decomposition: a scan predicate as canonical cache-key parts.

The decomposer runs the predicate through
:func:`repro.predicates.normalize.normalize` (NOT push-down, interval
merging, CNF) and splits the result at top-level ``AND``s.  Each
conjunct gets the canonical plain :class:`~repro.core.keys.ScanKey` of
its normalized rendering via :func:`~repro.core.keys.conjunct_key`, so a
direct scan of the same single-conjunct predicate shares the entry.

Soundness note: normalization preserves semantics, and every conjunct's
truth set is a superset of the conjunction's truth set — which is what
makes any subset of cached conjuncts usable as a serving basis (see
:mod:`repro.reuse.compose`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.keys import ScanKey, conjunct_key
from ..predicates.ast import FalsePredicate, Predicate, TruePredicate
from ..predicates.normalize import normalize

__all__ = ["Conjunct", "Decomposition", "decompose"]

# CNF blow-up guard: predicates that normalize to more conjuncts than
# this are left to the exact-match path.
MAX_CONJUNCTS = 8


@dataclass(frozen=True)
class Conjunct:
    """One normalized conjunct and its canonical cache key."""

    predicate: Predicate
    key: ScanKey


@dataclass(frozen=True)
class Decomposition:
    """A predicate split into canonical conjuncts over one table."""

    table: str
    conjuncts: Tuple[Conjunct, ...]


def decompose(table: str, predicate: Predicate) -> Optional[Decomposition]:
    """Split ``predicate`` into normalized conjuncts, or ``None``.

    Returns ``None`` when decomposition cannot help: trivial predicates
    (``TRUE`` needs no cache, ``FALSE`` means a contradiction was
    detected), or CNF blow-up past ``MAX_CONJUNCTS``.  A single-conjunct
    decomposition is still useful — its canonical key may differ from
    the raw key, and it is the unit the subsumption matcher works on.
    """
    normalized = normalize(predicate)
    if isinstance(normalized, (TruePredicate, FalsePredicate)):
        return None
    parts = normalized.conjuncts()
    if not parts or len(parts) > MAX_CONJUNCTS:
        return None
    seen = set()
    conjuncts: List[Conjunct] = []
    for part in parts:
        key = conjunct_key(table, part.cache_key())
        if key.predicate_key in seen:
            continue
        seen.add(key.predicate_key)
        conjuncts.append(Conjunct(part, key))
    return Decomposition(table, tuple(conjuncts))
