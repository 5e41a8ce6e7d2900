"""Predicate caching — the paper's primary contribution.

Public surface:

* :class:`~repro.core.rowrange.RowRange` / :class:`~repro.core.rowrange.RangeList`
  — the row-range algebra shared with the scan path; its ``coalesce``
  bounds the ranges an entry keeps (§4.1.1),
* :class:`~repro.core.keys.ScanKey` / :class:`~repro.core.keys.SemiJoinDescriptor`
  — cache keys, including the join-index extension (§4.4),
* :class:`~repro.core.entry.CacheEntry` with range and bitmap per-slice
  states (§4.1.1–4.1.2),
* :class:`~repro.core.cache.PredicateCache` — the cache itself,
* :class:`~repro.core.config.PredicateCacheConfig` and
  :class:`~repro.core.stats.CacheStats`.
"""

from .cache import PredicateCache
from .config import PredicateCacheConfig
from .entry import BitmapSliceState, CacheEntry, RangeSliceState, SliceState
from .keys import ScanKey, SemiJoinDescriptor, conjunct_key
from .policy import AdmissionPolicy, AlwaysAdmit, CostBasedPolicy
from .rowrange import RangeList, RowRange
from .stats import CacheStats, ReuseStats

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "BitmapSliceState",
    "CostBasedPolicy",
    "CacheEntry",
    "CacheStats",
    "PredicateCache",
    "PredicateCacheConfig",
    "RangeList",
    "RangeSliceState",
    "ReuseStats",
    "RowRange",
    "ScanKey",
    "SemiJoinDescriptor",
    "SliceState",
    "conjunct_key",
]
