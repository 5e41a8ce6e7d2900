"""Predicate-cache statistics."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "ReuseStats"]


@dataclass
class CacheStats:
    """Monotonic counters for cache behaviour.

    ``hit_rate`` is hits over lookups — the paper's Fig. 13 metric.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    extensions: int = 0
    invalidations: int = 0
    evictions: int = 0
    stale_rejections: int = 0
    stale_installs: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "CacheStats":
        return CacheStats(**vars(self))

    def delta(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{k: getattr(self, k) - getattr(before, k) for k in vars(self)}
        )


@dataclass
class ReuseStats:
    """Monotonic counters for the cross-query reuse lattice (DESIGN.md §14).

    Kept separate from :class:`CacheStats` on purpose: ``hit_rate``
    stays the paper's Fig. 13 exact-match metric, while conjunct probes
    and derived serves are accounted here.  Registered as the
    ``repro_reuse_*`` metric family.
    """

    conjunct_lookups: int = 0
    conjunct_hits: int = 0
    conjunct_installs: int = 0
    composed_serves: int = 0
    subsumed_serves: int = 0
    recheck_rows: int = 0
    skipped_rows: int = 0

    @property
    def serves(self) -> int:
        """Scans answered from derived entries rather than exact hits."""
        return self.composed_serves + self.subsumed_serves
