"""Chaos drills for the failure-survival control plane (DESIGN.md §13).

Three end-to-end drills, each run *inside* a live multi-client
closed-loop workload, each checked against the differential oracle
(bit-identical results vs. an uncached twin, zero surfaced errors,
exact invalidation accounting where DML is in play):

* **node kill + failover + warm restore** — a cluster node dies
  mid-traffic; its slices scan cache-off until the drill replaces it
  with ``ClusterCaches.fail_node``, which restores a warm replacement
  from the store while the server keeps answering every request.
* **crash-restart recovery** — the cache process "dies" mid-snapshot
  (and mid-journal-append), then restarts: journal replay + catalog
  revalidation rebuild a warm cache under live load
  (``tests/twins.py``'s ``crash_next_write`` and ``restart``).
* **overload shed** — eight clients share one tenant whose admission
  caps hold four requests; the excess is rejected as ``tenant_limit``,
  closed-loop clients retry through it and every statement still
  completes correctly.

``REPRO_DRILL_SEED`` offsets every generator seed so CI can run the
whole suite at independent seeds.
"""

import dataclasses
import os
import threading
import time

import pytest

from repro import (
    CostBasedPolicy,
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    QueryServer,
    RequestStatus,
)
from repro.cluster import ClusterCaches
from repro.core.keys import ScanKey
from repro.faults import NodeDownError
from repro.obs import MetricsRegistry
from repro.persist import CacheStore
from repro.serve import AdmissionController

from tests.loadgen import LoadGenerator, run_closed_loop, setup_load_tables
from tests.twins import assert_matches, crash_next_write, replay, restart

#: CI runs the suite at two seeds; locally this defaults to 0.
DRILL_SEED = int(os.environ.get("REPRO_DRILL_SEED", "0"))

#: Journalled only to tear a journal append: its digest matches no
#: live entry, so replay ignores it.
TEAR_KEY = ScanKey("__recovery_drill__", "tear-here")

#: The write each crash drill tears.
CRASHES = {
    "mid_snapshot": lambda engine, store: store.snapshot(engine.predicate_cache),
    "mid_journal": lambda engine, store: store.log_drop(TEAR_KEY, [0]),
}


def crash(engine, store, kind):
    """Tear the ``kind`` write of a live store; True when it tore."""
    torn_before = store.torn_writes
    with crash_next_write(store):
        CRASHES[kind](engine, store)
    return store.torn_writes > torn_before


def run_load_in_background(server, scripts):
    """Start a closed-loop run on a thread; returns (thread, results)."""
    results = []

    def runner():
        results.append(run_closed_loop(server, scripts))

    thread = threading.Thread(target=runner, name="drill-load")
    thread.start()
    return thread, results


# -- drill 1: node kill, failover, warm restore -------------------------------


class TestNodeFailoverDrill:
    def test_kill_failover_restore_under_live_load(self, tmp_path):
        gen = LoadGenerator(
            num_clients=6,
            statements_per_client=24,
            seed=31 + DRILL_SEED,
            hot_fraction=0.6,
        )
        plain = setup_load_tables(QueryEngine(Database()), gen, rows_per_table=3000)
        truth = replay(plain, gen)  # serial cache-off ground truth

        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(3, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=3000)

        server = QueryServer(engine, max_workers=4)
        try:
            thread, results = run_load_in_background(server, gen.scripts())
            # Let traffic flow, then kill a node mid-workload.
            time.sleep(0.03)
            cluster.kill_node(1)
            # Its slices scan cache-off for a while, then the node is
            # replaced by a warm restore from the store.
            time.sleep(0.01)
            replacement = cluster.fail_node(1)
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            server.shutdown()

        # The replacement took the dead node's place.
        assert cluster.node(1) is replacement
        assert len(cluster.nodes()) == 3

        # Availability: every request reached a terminal OK response,
        # bit-identical to the uncached serial truth.
        report = results[0]
        assert report.errors == 0
        assert report.count(RequestStatus.OK) == report.total_requests
        assert_matches(report, gen, truth)

        # The restored node serves cache traffic again (warm or cold).
        hot_sql = gen.scripts()[1].statements[0]
        first = engine.execute(hot_sql)
        second = engine.execute(hot_sql)
        assert first.rows() == second.rows()

    def test_undetected_window_degrades_not_errors(self, tmp_path):
        """Between the kill and the replacement, scans that hit the
        dead node's tombstone degrade to cache-off — never raise."""
        gen = LoadGenerator(num_clients=1, statements_per_client=4, seed=7)
        db = Database()
        cluster = ClusterCaches(2, store=CacheStore(tmp_path, catalog=db))
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=2000)
        sql = gen.scripts()[0].statements[0]
        baseline = engine.execute(sql).rows()

        cluster.kill_node(0)
        with pytest.raises(NodeDownError):
            cluster.node(0).keys()
        degraded = engine.execute(sql)
        assert degraded.rows() == baseline
        assert degraded.counters.degraded_scans >= 1

    def test_restore_is_warm_from_the_store(self, tmp_path):
        gen = LoadGenerator(num_clients=2, statements_per_client=12, seed=11)
        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(2, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=2000)
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        keys_before = {k for node in cluster.nodes() for k in node.keys()}
        assert keys_before

        cluster.kill_node(0)
        restores_before = store.warm_restores
        replacement = cluster.fail_node(0)
        assert cluster.node(0) is replacement
        # The replacement hydrated its slice share from the store.
        assert set(replacement.keys()) & keys_before
        assert store.warm_restores > restores_before


# -- drill 2: crash-restart recovery ------------------------------------------


class TestCrashRestartDrill:
    def _engine_with_store(self, tmp_path, gen, rows=3000):
        db = Database()
        cache = PredicateCache(PredicateCacheConfig())
        engine = QueryEngine(db, predicate_cache=cache)
        setup_load_tables(engine, gen, rows_per_table=rows)
        store = CacheStore(tmp_path, catalog=db)
        store.attach(cache)
        return engine, store

    @pytest.mark.parametrize("crash_kind", ["mid_snapshot", "mid_journal"])
    def test_crash_restart_under_live_load(self, tmp_path, crash_kind):
        gen = LoadGenerator(
            num_clients=4,
            statements_per_client=24,
            seed=47 + DRILL_SEED,
            hot_fraction=0.7,
        )
        plain = setup_load_tables(QueryEngine(Database()), gen, rows_per_table=3000)
        truth = replay(plain, gen)  # serial cache-off ground truth
        engine, store = self._engine_with_store(tmp_path, gen)

        # Warm the cache and persist a clean snapshot baseline.
        for script in gen.scripts():
            for sql in script.statements[:6]:
                engine.execute(sql)
        assert store.snapshot(engine.predicate_cache)
        assert len(engine.predicate_cache.keys()) > 0

        server = QueryServer(engine, max_workers=4)
        try:
            thread, results = run_load_in_background(server, gen.scripts())
            time.sleep(0.02)  # crash strikes mid-workload
            torn = crash(engine, store, crash_kind)
            fresh, before, restored = restart(engine, store)
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            server.shutdown()

        assert torn
        assert store.torn_writes == 1
        assert before
        assert restored
        warm_hit_retention = len(restored & before) / len(before)
        assert warm_hit_retention > 0.0
        # The replacement cache took over the engine and journals anew;
        # the fresh store counts its own recovery.
        assert engine.predicate_cache.store is fresh
        assert fresh is not store
        assert fresh.recoveries == 1
        assert fresh.warm_restores > 0

        load_report = results[0]
        assert load_report.errors == 0
        assert load_report.count(RequestStatus.OK) == load_report.total_requests
        assert_matches(load_report, gen, truth)

        # Post-restart cache keeps serving and stays consistent.
        reader = QueryEngine(engine.database)
        sql = gen.scripts()[0].statements[0]
        assert engine.execute(sql).rows() == reader.execute(sql).rows()

    def test_mid_journal_crash_wedges_until_restart(self, tmp_path):
        gen = LoadGenerator(num_clients=1, statements_per_client=8, seed=13)
        engine, store = self._engine_with_store(tmp_path, gen, rows=2000)
        for sql in gen.scripts()[0].statements:
            engine.execute(sql)
        assert crash(engine, store, "mid_journal")
        dropped_before = store.journal_dropped
        # A warm repeat changes no state and journals nothing, wedged or
        # not; what a wedged store must drop is a real install.
        engine.execute(gen.scripts()[0].statements[0])
        assert store.journal_dropped == dropped_before
        engine.execute(
            f"select count(*) from {gen.table_for(0)} where k >= 1 and k < 3"
        )
        assert store.journal_dropped > dropped_before  # wedged, as a crash would be

        fresh, _, restored = restart(engine, store)
        assert restored
        # The fresh store is not wedged: new installs journal again.
        records_before = fresh.journal_records
        engine.execute(gen.scripts()[0].statements[1])
        assert fresh.journal_records >= records_before

    def test_clean_restart_retains_all_journaled_keys(self, tmp_path):
        gen = LoadGenerator(num_clients=2, statements_per_client=10, seed=29)
        engine, store = self._engine_with_store(tmp_path, gen, rows=2000)
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        _, before, restored = restart(engine, store)
        # Nothing was lost (warm-hit retention 1.0): write-through
        # journaled every install.
        assert before <= restored

    def test_restart_keeps_the_admission_policy(self, tmp_path):
        gen = LoadGenerator(num_clients=1, statements_per_client=4, seed=5)
        db = Database()
        cache = PredicateCache(
            PredicateCacheConfig(), policy=CostBasedPolicy(min_sightings=3)
        )
        engine = QueryEngine(db, predicate_cache=cache)
        setup_load_tables(engine, gen, rows_per_table=2000)
        store = CacheStore(tmp_path, catalog=db)
        store.attach(cache)

        restart(engine, store)
        replacement = engine.predicate_cache
        assert replacement is not cache
        assert type(replacement.policy) is CostBasedPolicy
        assert replacement.policy.min_sightings == 3
        # Seen once: the cost-based rule still declines the entry.
        engine.execute(f"select count(*) from {gen.table_for(0)} where k < 17")
        assert len(replacement) == 0


# -- drill 3: overload shedding -----------------------------------------------


class TestOverloadShedDrill:
    def test_shed_mode_stays_correct_and_observable(self):
        gen = LoadGenerator(
            num_clients=8,
            statements_per_client=16,
            seed=61 + DRILL_SEED,
            shared_table=True,
            dml_fraction=0.1,
            hot_fraction=0.5,
        )
        db = Database()
        cache = PredicateCache(PredicateCacheConfig())
        engine = QueryEngine(db, predicate_cache=cache)
        setup_load_tables(engine, gen, rows_per_table=3000)
        table_name = gen.table_for(0)

        # Eight clients, one tenant: its caps admit four requests at a
        # time, so the other clients are pushed back and retry.
        scripts = [
            dataclasses.replace(script, tenant="shared") for script in gen.scripts()
        ]
        admission = AdmissionController(max_in_flight=2, max_queued=2)
        server = QueryServer(engine, max_workers=2, admission=admission)
        try:
            report = run_closed_loop(server, scripts)
        finally:
            server.shutdown()

        # Correctness under pressure: every statement eventually ran,
        # nothing errored, the cache saw the table's last layout change.
        assert report.errors == 0
        assert report.count(RequestStatus.OK) == report.total_requests
        table = engine.database.table(table_name)
        assert cache.table_layout_of(table_name) == table.layout_version

        # Pressure actually shed, and every shed was diagnosable.
        assert report.total_rejections == admission.total_rejected > 0
        assert set(report.rejections_by_reason()) == {"tenant_limit"}

        # Quiescent differential: cached view equals an uncached reader.
        reader = QueryEngine(engine.database)
        for predicate in ("k < 2500", "bucket = 7", "v >= 500"):
            sql = (
                f"select count(*) as c, sum(v) as s from {table_name} "
                f"where {predicate}"
            )
            assert engine.execute(sql).rows() == reader.execute(sql).rows()


# -- metrics: the store's and the cluster's own series ------------------------


class TestResilienceMetrics:
    def _full_registry(self, tmp_path):
        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(2, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        registry = MetricsRegistry()
        cluster.register_metrics(registry)
        store.register_metrics(registry)
        return registry, (engine, cluster, store)

    def test_expected_series_exist(self, tmp_path):
        """Failovers and crash-restarts are observed through the
        store's and the cluster's own series; no second copy exists."""
        registry, _ = self._full_registry(tmp_path)
        names = set(registry.names())
        for expected in (
            "repro_persist_torn_writes_total",
            "repro_persist_recoveries_total",
            "repro_persist_journal_replayed_total",
            "repro_persist_recovery_seconds_total",
            "repro_persist_warm_restores_total",
            "repro_predicate_cache_cluster_nodes",
        ):
            assert expected in names, expected
        assert not [n for n in names if n.startswith("repro_resilience_")]

    def test_labels_are_stable_across_activity(self, tmp_path):
        """The series/label universe is fixed at registration: drills
        and failovers change *values*, never the label sets."""
        registry, (engine, cluster, store) = self._full_registry(tmp_path)
        before = set(registry.as_dict().keys())

        gen = LoadGenerator(num_clients=1, statements_per_client=6, seed=3)
        setup_load_tables(engine, gen, rows_per_table=1000)
        for sql in gen.scripts()[0].statements:
            engine.execute(sql)
        cluster.kill_node(0)
        cluster.fail_node(0)
        assert crash(engine, store, "mid_snapshot")
        restart(engine, store)

        after = set(registry.as_dict().keys())
        assert before == after

        # And the interesting series moved.
        values = registry.as_dict()
        assert values["repro_persist_torn_writes_total"] == 1
        assert values["repro_persist_warm_restores_total"] >= 1
