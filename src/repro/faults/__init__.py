"""Fault injection and resilience primitives.

The paper's safety argument (§4.2.1, §4.5) is that predicate caching is
*safe to be wrong*: a lost, cold, or stale cache costs performance,
never correctness.  This package is how the reproduction exercises that
margin: a seeded :class:`FaultInjector` makes storage reads flake,
corrupt and lag, and cache-store writes tear, deterministically; a
:class:`RetryPolicy` bounds how hard the one fetch loop
(``ManagedStorage._attempts``, run per fetched block over its decoded
row and shared by native blocks and lake chunks) fights back — backoff is model time, never a sleep — and a read
it gives up on surfaces as a :class:`StorageFault`.  The chaos
differential oracle (``tests/test_chaos.py``) runs full workloads under
injection and asserts bit-identical results against a fault-free twin.
"""

from .errors import (
    NodeDownError,
    RetryBudgetExceeded,
    StorageFault,
    TransientStorageError,
)
from .injector import FaultDecision, FaultInjector
from .retry import RetryPolicy, quantize_model_seconds

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "NodeDownError",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "StorageFault",
    "TransientStorageError",
    "quantize_model_seconds",
]
