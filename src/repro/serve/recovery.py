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
3. **report** — a :class:`RecoveryReport` records recovery time,
   journal replay volume, and *warm-hit retention*: the fraction of
   pre-crash cache keys that survived into the restarted cache.

Correctness never rides on any of this (a lost entry is a cold scan,
not a wrong answer); the drills exist to bound the performance cliff
and are gated by ``benchmarks/perf/bench_resilience.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Set

from ..core.keys import ScanKey
from ..faults.injector import FaultInjector
from ..persist.store import CacheStore

__all__ = ["RecoveryOrchestrator", "RecoveryReport"]

#: Synthetic key journalled to trigger a deterministic mid-append crash
#: (its digest matches no live entry, so replay ignores it).
_DRILL_KEY = ScanKey("__recovery_drill__", "tear-here")


@dataclass
class RecoveryReport:
    """Outcome of one crash-restart drill."""

    #: Which crash preceded the restart ("mid_snapshot", "mid_journal",
    #: or "clean" for a plain restart drill).
    crash_kind: str
    #: Whether the staged crash actually tore a write (False means the
    #: store had nothing to write at the crash point).
    torn_write: bool
    #: Distinct cache keys live immediately before the restart.
    keys_before: int
    #: Distinct cache keys in the restarted (hydrated) cache.
    keys_restored: int
    #: |restored ∩ before| / |before| — 1.0 for an empty pre-crash cache.
    warm_hit_retention: float
    #: Entries installed into the replacement cache(s) at hydration.
    warm_restores: int
    #: Journal events replayed during the restart's recovery load(s).
    journal_replayed: int
    #: Restored entries/states dropped by catalog revalidation.
    stale_dropped: int
    #: Sections/records dropped by checksum or framing damage.
    corrupt_sections: int
    #: Wall-clock seconds spent in the restart's recovery load(s).
    recovery_seconds: float


class RecoveryOrchestrator:
    """Stages cache crashes and drives warm restarts on a live engine.

    Args:
        engine: the serving :class:`~repro.engine.QueryEngine`; its
            current predicate cache (plain or cluster) is the crash
            target and is replaced wholesale at :meth:`restart`.
        store: the live :class:`~repro.persist.CacheStore` the cache
            writes through to.  The restart re-opens the same directory
            with a fresh store, exactly like a new process would.
        cache_factory: builds the replacement cache given the fresh
            store (hydrating from it and attaching write-through).
            Defaults to rebuilding the engine's current cache shape —
            same config, same node count, same policy factory.

    The orchestrator performs administrative swaps only (injector
    attach, cache reference swap); all data-plane synchronization lives
    in the store and caches themselves, so drills run safely inside a
    live multi-client workload.
    """

    def __init__(
        self,
        engine,
        store: CacheStore,
        cache_factory: Optional[Callable[[CacheStore], object]] = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.cache_factory = (
            cache_factory if cache_factory is not None else self._default_factory
        )
        # Monotonic counters (scrape-time metrics read these directly).
        self.crashes_injected = 0
        self.restarts = 0
        self.journal_replays = 0
        self.recovery_seconds_total = 0.0
        self.last_report: Optional[RecoveryReport] = None

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
        torn = self.store.torn_writes > torn_before
        if torn:
            self.crashes_injected += 1
        return torn

    def crash_mid_journal(self) -> bool:
        """Kill the cache process mid-journal-append.

        A torn record is left at the journal tail and the store wedges
        (the "process" is dead: every later append is dropped until
        restart).  Returns True when a write was actually torn.
        """
        torn_before = self.store.torn_writes
        with self._one_shot_crash():
            self.store.log_drop(_DRILL_KEY, [0])
        torn = self.store.torn_writes > torn_before
        if torn:
            self.crashes_injected += 1
        return torn

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

    def restart(self, crash_kind: str = "clean", torn_write: bool = False) -> RecoveryReport:
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
        replacement = self.cache_factory(fresh)
        self.engine.set_predicate_cache(replacement)
        for cache in old_nodes:
            cache.close()
        restored = self._keys_of(replacement)
        retention = (
            len(restored & before) / len(before) if before else 1.0
        )
        self.store = fresh
        report = RecoveryReport(
            crash_kind=crash_kind,
            torn_write=torn_write,
            keys_before=len(before),
            keys_restored=len(restored),
            warm_hit_retention=retention,
            warm_restores=fresh.warm_restores,
            journal_replayed=fresh.journal_replayed,
            stale_dropped=fresh.stale_dropped,
            corrupt_sections=fresh.corrupt_sections,
            recovery_seconds=fresh.recovery_seconds,
        )
        self.restarts += 1
        self.journal_replays += report.journal_replayed
        self.recovery_seconds_total += report.recovery_seconds
        self.last_report = report
        return report

    def drill(self, crash_kind: str) -> RecoveryReport:
        """One full drill: stage the named crash, then restart.

        ``crash_kind`` is ``"mid_snapshot"``, ``"mid_journal"``, or
        ``"clean"`` (restart without a staged crash).
        """
        if crash_kind == "mid_snapshot":
            torn = self.crash_mid_snapshot()
        elif crash_kind == "mid_journal":
            torn = self.crash_mid_journal()
        elif crash_kind == "clean":
            torn = False
        else:
            raise ValueError(f"unknown crash kind {crash_kind!r}")
        return self.restart(crash_kind=crash_kind, torn_write=torn)

    # -- cache-shape helpers ---------------------------------------------------

    def _default_factory(self, fresh: CacheStore):
        """Rebuild the engine's current cache shape over ``fresh``."""
        from ..cluster.caches import ClusterCaches
        from ..core.cache import PredicateCache

        current = self.engine.predicate_cache
        if isinstance(current, ClusterCaches):
            return ClusterCaches(
                current.num_nodes,
                config=current.config,
                policy_factory=current.policy_factory,
                store=fresh,
            )
        replacement = PredicateCache(current.config)
        fresh.attach(replacement)
        return replacement

    @staticmethod
    def _keys_of(cache) -> Set[ScanKey]:
        keys: Set[ScanKey] = set()
        for node in cache.nodes():
            keys.update(node.keys())
        return keys

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Publish the ``repro_resilience_*`` recovery family."""
        registry.counter(
            "repro_resilience_crashes_injected_total",
            "Mid-write crashes staged by recovery drills",
            fn=lambda: self.crashes_injected,
        )
        registry.counter(
            "repro_resilience_restarts_total",
            "Crash-restart recoveries performed",
            fn=lambda: self.restarts,
        )
        registry.counter(
            "repro_resilience_journal_replays_total",
            "Journal events replayed across restarts",
            fn=lambda: self.journal_replays,
        )
        registry.counter(
            "repro_resilience_recovery_seconds_total",
            "Wall-clock seconds spent recovering across restarts",
            fn=lambda: self.recovery_seconds_total,
        )
        registry.gauge(
            "repro_resilience_warm_hit_retention",
            "Pre-crash cache keys surviving the latest restart (fraction)",
            fn=lambda: (
                self.last_report.warm_hit_retention
                if self.last_report is not None
                else 1.0
            ),
        )
