"""Predicate caching — the paper's primary contribution.

Public surface:

* :class:`~repro.core.rowrange.RangeList` — a range state's payload;
  its ``coalesce`` bounds the ranges an entry keeps (§4.1.1).  Rows
  travel between the cache, the scan and storage as ascending int64
  row ids,
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
from .rowrange import RangeList
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
    "ScanKey",
    "SemiJoinDescriptor",
    "SliceState",
    "conjunct_key",
]
