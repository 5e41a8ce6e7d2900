"""Chaos differential oracle: faults on the cached twin only.

Extends the twin-engine oracle of ``test_differential``: the cached
engine runs with a multi-node cluster cache, a seeded fault injector on
its managed storage (transient errors, corrupted payloads, injected
latency), mid-workload node failures, and a bounded block cache so
vacuums and evictions keep forcing remote refetches.  The uncached twin
runs fault-free.  After every step the two must agree bit-for-bit.

The acceptance bar (ISSUE PR 3): at error rate >= 5% and corruption
rate >= 1%, a 200-step workload surfaces *zero* query errors, returns
identical rows, and the resilience counters prove faults actually
happened and were absorbed (injected > 0, retried > 0, given up == 0).
"""

import numpy as np
import pytest

from repro import ClusterCaches, FaultInjector, PredicateCacheConfig, RetryPolicy
from repro.persist import store as store_module

from tests.test_differential import TWIN_DATA, apply_step, generate_steps
from tests.twins import corrupt_next_write, crash_next_write, seeded_engine

ERROR_RATE = 0.05
CORRUPTION_RATE = 0.01
LATENCY_RATE = 0.02
# 8 attempts: at a ~6% per-attempt fault rate the chance of one fetch
# exhausting its retries is ~1e-10 — "zero surfaced errors" holds even
# at --chaos-seed=random.
CHAOS_RETRIES = RetryPolicy(max_attempts=8)


def build_chaos_twins(variant, seed, num_nodes=2):
    """Cached twin under fault injection, uncached twin fault-free."""
    caches = ClusterCaches(
        num_nodes=num_nodes, config=PredicateCacheConfig(variant=variant)
    )
    # A bounded block cache keeps remote refetches (and therefore fault
    # draws) coming for the whole workload, not just after vacuums.
    cached = seeded_engine(caches, **TWIN_DATA, cache_capacity=48)
    injector = FaultInjector(
        seed=seed,
        error_rate=ERROR_RATE,
        corruption_rate=CORRUPTION_RATE,
        latency_rate=LATENCY_RATE,
        latency_seconds=0.005,
    )
    cached.database.attach_faults(injector, CHAOS_RETRIES)
    return cached, seeded_engine(None, **TWIN_DATA), caches, injector


def run_chaos_workload(variant, seed, steps=200, fail_node_every=25):
    cached, plain, caches, injector = build_chaos_twins(variant, seed)
    workload = generate_steps(np.random.default_rng(seed), steps)
    assert len(workload) >= steps
    for step_no, step in enumerate(workload):
        # Mid-workload node failures: the replacement relearns its
        # slice share; the oracle keeps checking every step.
        if step_no and step_no % fail_node_every == 0:
            caches.fail_node((step_no // fail_node_every) % caches.num_nodes)
        apply_step(cached, plain, step, step_no)
    return cached, caches, injector


@pytest.mark.parametrize("variant,seed", [("range", 301), ("bitmap", 404)])
def test_chaos_workload_bit_identical(variant, seed):
    """The acceptance run: 200 steps under faults, zero divergence."""
    cached, caches, injector = run_chaos_workload(variant, seed)
    stats = cached.database.rms.stats

    # Faults genuinely happened ...
    assert injector.errors_injected > 0
    assert injector.corruptions_injected > 0
    assert stats.transient_errors > 0
    assert stats.corrupt_blocks > 0, "no corruption reached a checksum check"

    # ... were absorbed by retries, never surfaced ...
    assert stats.retries > 0
    assert stats.retry_giveups == 0
    assert stats.backoff_model_seconds > 0.0

    # ... and the cache was actually exercised while it happened.
    assert caches.aggregate_stats().hits > 0


def test_chaos_workload_randomized_seed(chaos_seed):
    """Opt-in randomized run (--chaos-seed=N or =random; seed echoed)."""
    for variant in ("range", "bitmap"):
        cached, caches, injector = run_chaos_workload(variant, chaos_seed)
        stats = cached.database.rms.stats
        assert injector.errors_injected > 0
        assert stats.retries > 0
        assert stats.retry_giveups == 0
        assert caches.aggregate_stats().hits > 0


class TestPersistenceChaos:
    """Crash points on the persistence write path (ISSUE PR 4).

    The cached twin journals through a :class:`CacheStore` whose writes
    run under their own fault injector (torn snapshot writes, torn
    journal appends, bit flips).  Every ``restart_every`` steps the
    whole cluster "restarts": a fresh ``ClusterCaches`` hydrates from
    the (possibly damaged) store and is swapped into the engine.  The
    differential oracle keeps asserting bit-identical results at every
    step — persistence faults may cost warmth, never correctness.
    """

    STORE_ERROR_RATE = 0.05
    STORE_CORRUPTION_RATE = 0.02

    def run_workload(self, variant, seed, directory, steps=150, restart_every=30):
        from repro import CacheStore

        cached, plain, caches, injector = build_chaos_twins(variant, seed)
        store_injector = FaultInjector(
            seed=seed + 1,
            error_rate=self.STORE_ERROR_RATE,
            corruption_rate=self.STORE_CORRUPTION_RATE,
        )
        injectors = [store_injector]
        # Damage by construction, whatever the rates draw: the first
        # restart's snapshot tears, the second's lands bit-flipped.
        damage = {1: crash_next_write, 2: corrupt_next_write}

        def new_store():
            return CacheStore(
                directory,
                catalog=cached.database,
                injector=store_injector,
            )

        totals = {"torn": 0, "corrupt": 0, "warm": 0, "stale": 0, "sections": 0}

        def retire(store):
            totals["torn"] += store.torn_writes
            totals["corrupt"] += store.corrupt_writes
            totals["warm"] += store.warm_restores
            totals["stale"] += store.stale_dropped
            totals["sections"] += store.corrupt_sections

        config = PredicateCacheConfig(variant=variant)
        caches = ClusterCaches(num_nodes=2, config=config, store=new_store())
        cached.set_predicate_cache(caches)

        workload = generate_steps(np.random.default_rng(seed), steps)
        restarts = 0
        for step_no, step in enumerate(workload):
            if step_no and step_no % restart_every == 0:
                restarts += 1
                if restarts in damage:
                    with damage[restarts](caches.store) as one_shot:
                        caches.store.snapshot(caches)
                    injectors.append(one_shot)
                else:
                    caches.store.snapshot(caches)  # may tear — that's the point
                # The restarted process is gone: its caches stop watching
                # tables and journaling, and its store lets go of the file.
                for node in caches.nodes():
                    node.close()
                caches.store.close()
                retire(caches.store)
                caches = ClusterCaches(num_nodes=2, config=config, store=new_store())
                cached.set_predicate_cache(caches)
            apply_step(cached, plain, step, step_no)
        retire(caches.store)
        totals["errors"] = sum(i.errors_injected for i in injectors)
        totals["corruptions"] = sum(i.corruptions_injected for i in injectors)
        return caches, totals, restarts

    @pytest.mark.parametrize("variant,seed", [("range", 515), ("bitmap", 616)])
    def test_store_faults_never_change_results(self, variant, seed, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "MIN_COMPACT_BYTES", 4096)
        caches, totals, restarts = self.run_workload(variant, seed, tmp_path)
        # Persistence faults genuinely happened ...
        assert totals["errors"] > 0
        assert totals["corruptions"] > 0
        assert totals["torn"] > 0
        assert totals["torn"] == totals["errors"]  # every one hit a live store
        # ... recovery found and dropped the damage or staleness ...
        assert totals["stale"] + totals["sections"] > 0
        # ... and warm starts still delivered restored entries.
        assert restarts >= 4
        assert totals["warm"] > 0
        assert caches.aggregate_stats().lookups > 0

    def test_clean_store_restart_is_fully_warm(self, tmp_path):
        """Fault-free control: restarts restore state and the twin
        oracle holds — isolates warm-start correctness from damage."""
        from repro import CacheStore

        cached, plain, caches, _ = build_chaos_twins("range", seed=77)
        config = PredicateCacheConfig(variant="range")
        store = CacheStore(tmp_path, catalog=cached.database)
        caches = ClusterCaches(num_nodes=2, config=config, store=store)
        cached.set_predicate_cache(caches)
        workload = generate_steps(np.random.default_rng(77), 60)
        for step_no, step in enumerate(workload):
            if step_no == 30:
                store.snapshot(caches)
                caches = ClusterCaches(
                    num_nodes=2,
                    config=config,
                    store=CacheStore(tmp_path, catalog=cached.database),
                )
                cached.set_predicate_cache(caches)
                assert caches.store.warm_restores > 0
            apply_step(cached, plain, step, step_no)


def test_chaos_latency_accumulates_into_model_time():
    """Injected latency and backoff show up in model_seconds, not sleeps."""
    cached, plain, _, _ = build_chaos_twins("range", seed=99)
    sql = "select count(*) as c, sum(v) as s from t where k < 70"
    chaos_model = cached.execute(sql).counters.model_seconds
    clean_model = plain.execute(sql).counters.model_seconds
    backoff = cached.database.rms.stats.backoff_model_seconds
    assert backoff > 0.0
    assert chaos_model >= backoff
    assert chaos_model > clean_model
