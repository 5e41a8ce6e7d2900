"""Crash-restart drills: kill the cache mid-write, recover it warm.

The paper's warm-start story (§4.2.1) only matters if it survives the
ugly cases: a process that dies *while* rotating a snapshot or *while*
appending to the journal.  :class:`RecoveryOrchestrator` stages exactly
those crashes against a live engine — reusing the
:class:`~repro.faults.FaultInjector` crash points inside
:class:`~repro.persist.CacheStore` — and then performs the restart:

1. **crash** — a one-shot scheduled injector tears the next snapshot
   rotation (:meth:`crash_mid_snapshot`) or journal append
   (:meth:`crash_mid_journal`), leaving the directory exactly as a
   killed process would (partial temp file / torn journal tail).
2. **restart** — the old cache is detached (a dead process stops
   journaling), a fresh :class:`~repro.persist.CacheStore` re-reads the
   directory (snapshot + journal replay + catalog revalidation), a
   replacement cache hydrates warm from it, and the engine is swapped
   over by reference — all while the serving layer keeps executing.
   The returned :class:`RecoveryReport` holds *warm-hit retention*: the
   fraction of pre-crash cache keys that survived into the restarted
   cache.  Recovery time and replay volume are the fresh store's own
   counters (``orchestrator.store.recovery_seconds``,
   ``journal_replayed``, ``warm_restores``, ...).

Correctness never rides on any of this (a lost entry is a cold scan,
not a wrong answer); the drills in ``tests/test_resilience_drills.py``
run each crash under live load and assert that the restarted cache is
warm (``warm_hit_retention > 0``) and every statement stays correct.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Set, Union

from ..cluster.caches import ClusterCaches
from ..core.cache import PredicateCache
from ..core.keys import ScanKey
from ..faults.injector import FaultInjector
from ..persist.store import CacheStore

__all__ = ["RecoveryOrchestrator", "RecoveryReport"]

#: Synthetic key journalled to trigger a deterministic mid-append crash
#: (its digest matches no live entry, so replay ignores it).
_DRILL_KEY = ScanKey("__recovery_drill__", "tear-here")


@dataclass
class RecoveryReport:
    """What one restart kept of the cache it replaced."""

    #: Distinct cache keys live immediately before the restart.
    keys_before: int
    #: Distinct cache keys in the restarted (hydrated) cache.
    keys_restored: int
    #: |restored ∩ before| / |before| — 1.0 for an empty pre-crash cache.
    warm_hit_retention: float


class RecoveryOrchestrator:
    """Stages cache crashes and drives warm restarts on a live engine.

    Args:
        engine: the serving :class:`~repro.engine.QueryEngine`; its
            current predicate cache (plain or cluster) is the crash
            target and is replaced wholesale at :meth:`restart`.
        store: the live :class:`~repro.persist.CacheStore` the cache
            writes through to.  The restart re-opens the same directory
            with a fresh store, exactly like a new process would, and
            rebuilds the engine's current cache shape over it — same
            config, same node count, same admission policy.

    The orchestrator performs administrative swaps only (injector
    attach, cache reference swap); all data-plane synchronization lives
    in the store and caches themselves, so drills run safely inside a
    live multi-client workload.
    """

    def __init__(self, engine, store: CacheStore) -> None:
        self.engine = engine
        self.store = store

    # -- crash staging ---------------------------------------------------------

    def crash_mid_snapshot(self) -> bool:
        """Kill the cache process mid-snapshot-rotation.

        The snapshot write is torn: a partial temp file is left behind,
        never renamed, and the previous snapshot + journal survive for
        recovery.  Returns True when a write was actually torn.
        """
        torn_before = self.store.torn_writes
        with self._one_shot_crash():
            self.store.snapshot(self.engine.predicate_cache)
        return self.store.torn_writes > torn_before

    def crash_mid_journal(self) -> bool:
        """Kill the cache process mid-journal-append.

        A torn record is left at the journal tail and the store wedges
        (the "process" is dead: every later append is dropped until
        restart).  Returns True when a write was actually torn.
        """
        torn_before = self.store.torn_writes
        with self._one_shot_crash():
            self.store.log_drop(_DRILL_KEY, [0])
        return self.store.torn_writes > torn_before

    @contextmanager
    def _one_shot_crash(self):
        """Fail exactly the next store write, then restore the injector."""
        saved = self.store.injector
        self.store.injector = FaultInjector(schedule={0: "error"})
        try:
            yield
        finally:
            self.store.injector = saved

    # -- the restart -----------------------------------------------------------

    def restart(self) -> RecoveryReport:
        """Replace the engine's cache with one recovered from disk.

        Models a process restart: the dead cache stops journaling
        (detached first — its in-flight scans finish as harmless orphan
        writes into the detached object), a fresh store re-reads the
        directory, the replacement hydrates warm and takes over the
        engine by reference swap, and only then is the dead cache closed
        (while a scan can still reach it, it still hears its tables).
        Safe under live traffic.
        """
        old_cache = self.engine.predicate_cache
        before = self._keys_of(old_cache)
        old_nodes = old_cache.nodes()
        for cache in old_nodes:
            cache.detach_store()
        # One writer per directory: the dead process's append handle
        # goes before the fresh store opens its own.
        self.store.close()
        fresh = CacheStore(self.store.directory, catalog=self.engine.database)
        replacement: Union[ClusterCaches, PredicateCache]
        if isinstance(old_cache, ClusterCaches):
            replacement = ClusterCaches(
                old_cache.num_nodes,
                config=old_cache.config,
                policy_factory=old_cache.policy_factory,
                store=fresh,
            )
        else:
            # The policy carries over: a restarted cache admits by the
            # same rule as the one it replaces.
            replacement = PredicateCache(old_cache.config, policy=old_cache.policy)
            fresh.attach(replacement)
        self.engine.set_predicate_cache(replacement)
        for cache in old_nodes:
            cache.close()
        self.store = fresh
        restored = self._keys_of(replacement)
        return RecoveryReport(
            keys_before=len(before),
            keys_restored=len(restored),
            warm_hit_retention=(
                len(restored & before) / len(before) if before else 1.0
            ),
        )

    @staticmethod
    def _keys_of(cache) -> Set[ScanKey]:
        keys: Set[ScanKey] = set()
        for node in cache.nodes():
            keys.update(node.keys())
        return keys
