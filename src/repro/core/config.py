"""Predicate-cache configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PredicateCacheConfig"]


@dataclass(frozen=True)
class PredicateCacheConfig:
    """Tuning knobs for the predicate cache.

    Attributes:
        variant: ``"bitmap"`` (paper default: 1,000 rows per bit) or
            ``"range"`` (bounded merged ranges, 16,384 per slice in the
            paper's Table 3 setup).
        max_ranges_per_slice: bound for the range variant.
        bitmap_block_rows: rows represented per bit for the bitmap
            variant.
        max_entries: LRU capacity in entries (None = unbounded).
        max_bytes: LRU capacity in payload bytes (None = unbounded).
        cache_join_keys: whether the join-index extension (§4.4) records
            semi-join-filtered entries at all.
        normalize_keys: normalize predicates (NOT push-down, interval
            merging, CNF) before forming cache keys — the paper's
            §4.1.2 "SMT solver" extension.  Off by default, like the
            prototype.
        enable_reuse: turn on the cross-query reuse lattice (DESIGN.md
            §14): conjunct decomposition on install, intersection
            composition and subsumption matching on a full-key miss.
            Off by default, like ``normalize_keys`` — the paper's cache
            is exact-match only.
    """

    variant: str = "bitmap"
    max_ranges_per_slice: int = 16384
    bitmap_block_rows: int = 1000
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    cache_join_keys: bool = True
    normalize_keys: bool = False
    enable_reuse: bool = False

    def __post_init__(self) -> None:
        if self.variant not in ("bitmap", "range"):
            raise ValueError(f"unknown predicate-cache variant {self.variant!r}")
        if self.max_ranges_per_slice < 1:
            raise ValueError("max_ranges_per_slice must be >= 1")
        if self.bitmap_block_rows < 1:
            raise ValueError("bitmap_block_rows must be >= 1")
