"""Cross-query reuse lattice: decomposition, composition, subsumption.

The paper's predicate cache only pays off on exact-repeat predicates.
This package (DESIGN.md §14) turns it into a reuse *lattice* so
never-seen conjunctions are served from previously cached parts, the
PartitionCache idea (Poppinga, BTW 2025) rebuilt on our range algebra:

* :mod:`~repro.reuse.decompose` — normalize a scan predicate with the
  CNF machinery and split it into canonical per-conjunct
  :class:`~repro.core.keys.ScanKey` variants.
* :mod:`~repro.reuse.compose` — on a full-key miss, look up each
  conjunct's cached entry and hand the scan those source entries; it
  serves from the vectorized intersection of their range lists (any
  non-empty subset of conjunct hits is a sound superset of the
  conjunction's truth).
* :mod:`~repro.reuse.subsume` — find a cached range predicate on the
  same column whose interval contains the requested one and serve it as
  a superset with a residual re-check.

Everything here is **read-only over the cache** (checker rule RP009):
this package names the live entries a scan is served from; the scan
coordinator in :mod:`repro.engine.scan` evaluates the real predicate
over their candidates and installs results through the same
``record_slice_scan`` barrier as every other scan, so the differential
oracle covers the reuse path end to end.
"""

from .compose import ReusePlan, plan_reuse
from .decompose import Conjunct, Decomposition, decompose
from .subsume import bounds_contain, find_subsuming

__all__ = [
    "Conjunct",
    "Decomposition",
    "ReusePlan",
    "bounds_contain",
    "decompose",
    "find_subsuming",
    "plan_reuse",
]
