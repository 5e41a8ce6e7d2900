"""Result-cache simulation over statement logs (§3.1: Fig. 6–7).

Replays a cluster's statement stream through the engine's own
:class:`~repro.baselines.ResultCache`: a select hits iff its exact text
was executed before *and* none of its tables changed in between.  This
is the mechanism that makes result caching's hit rate collapse on
write-heavy clusters even though the queries themselves repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..baselines import ResultCache
from ..workloads.fleet import Statement

__all__ = ["simulate_result_cache", "ResultCacheSimulation"]


@dataclass
class ResultCacheSimulation:
    """Outcome of replaying one cluster through the result cache."""

    selects: int
    hits: int
    invalidations: int
    write_fraction: float

    @property
    def hit_rate(self) -> float:
        if self.selects == 0:
            return 0.0
        return self.hits / self.selects


def simulate_result_cache(statements: Sequence[Statement]) -> ResultCacheSimulation:
    """Replay a statement stream through the engine's :class:`ResultCache`:
    every select looks its text up at the current table versions and
    stores itself on a miss."""
    cache = ResultCache()
    table_versions: Dict[str, int] = {}
    writes = 0
    for statement in statements:
        if statement.is_write:
            writes += 1
            for table in statement.tables:
                table_versions[table] = table_versions.get(table, 0) + 1
        elif statement.is_select:
            versions = {t: table_versions.get(t, 0) for t in statement.tables}
            if cache.lookup(statement.text, versions) is None:
                cache.store(statement.text, versions, True)
    return ResultCacheSimulation(
        selects=cache.stats.lookups,
        hits=cache.stats.hits,
        invalidations=cache.stats.invalidations,
        write_fraction=writes / max(1, len(statements)),
    )
