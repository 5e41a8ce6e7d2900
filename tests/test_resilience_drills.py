"""Chaos drills for the failure-survival control plane (DESIGN.md §13).

Three end-to-end drills, each run *inside* a live multi-client
closed-loop workload, each checked against the differential oracle
(bit-identical results vs. an uncached twin, zero surfaced errors,
exact invalidation accounting where DML is in play):

* **node kill + failover + warm restore** — a cluster node dies
  mid-traffic; the heartbeat monitor detects it, routes its slices
  cache-off, and restores a warm replacement from the store while the
  server keeps answering every request.
* **crash-restart recovery** — the cache process "dies" mid-snapshot
  (and mid-journal-append), then restarts: journal replay + catalog
  revalidation rebuild a warm cache under live load.
* **adaptive overload shed** — a deliberately undersized server sheds
  queue pressure by reason; closed-loop clients retry through it and
  every statement still completes correctly.

``REPRO_DRILL_SEED`` offsets every generator seed so CI can run the
whole suite at independent seeds.
"""

import os
import threading
import time

import pytest

from repro import (
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    QueryServer,
    RequestStatus,
)
from repro.cluster import ClusterCaches
from repro.faults import NodeDownError
from repro.obs import MetricsRegistry
from repro.persist import CacheStore
from repro.serve import (
    SHED_REASONS,
    AdmissionController,
    ClusterHealthMonitor,
    NodeState,
    RecoveryOrchestrator,
)
from repro.serve.recovery import RecoveryReport
from repro.workloads.loadgen import (
    LoadGenerator,
    run_closed_loop,
    setup_load_tables,
)

#: CI runs the suite at two seeds; locally this defaults to 0.
DRILL_SEED = int(os.environ.get("REPRO_DRILL_SEED", "0"))


def uncached_truth(generator, rows_per_table=3000):
    """Serial cache-off ground truth for every script statement."""
    plain = QueryEngine(Database())
    setup_load_tables(plain, generator, rows_per_table=rows_per_table)
    return {
        script.client_id: [
            {k: v.tolist() for k, v in plain.execute(sql).columns.items()}
            for sql in script.statements
        ]
        for script in generator.scripts()
    }


def assert_matches_truth(report, generator, truth):
    for script in generator.scripts():
        responses = report.responses[script.client_id]
        assert len(responses) == len(script.statements)
        for position, (expected, response) in enumerate(
            zip(truth[script.client_id], responses)
        ):
            context = f"client {script.client_id} statement {position}"
            assert response.ok, f"{context}: {response.error}"
            got = {k: v.tolist() for k, v in response.result.columns.items()}
            assert got == expected, context


def run_load_in_background(server, scripts, **kwargs):
    """Start a closed-loop run on a thread; returns (thread, results)."""
    results = []

    def runner():
        results.append(run_closed_loop(server, scripts, **kwargs))

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
        truth = uncached_truth(gen)

        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(3, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=3000)
        monitor = ClusterHealthMonitor(
            cluster, suspect_after=1, down_after=2, auto_restore=True
        )

        server = QueryServer(engine, max_workers=4)
        try:
            thread, results = run_load_in_background(server, gen.scripts())
            # Let traffic flow, then kill a node mid-workload.
            time.sleep(0.03)
            cluster.kill_node(1)
            # Heartbeats: tick until the monitor declares the node down
            # and restores a warm replacement (down_after=2 -> >=2 ticks).
            restored = []
            for _ in range(50):
                restored = monitor.tick()
                if restored:
                    break
                time.sleep(0.002)
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            server.shutdown()

        # Failover happened, and it was observable.
        assert restored == [1]
        assert monitor.nodes_marked_down >= 1
        assert monitor.failovers >= 1
        assert monitor.ping_failures >= 2
        assert monitor.node_state(1) is NodeState.UP
        assert cluster.down_nodes() == []
        assert len(cluster.nodes()) == 3

        # Availability: every request reached a terminal OK response,
        # bit-identical to the uncached serial truth.
        report = results[0]
        assert report.errors == 0
        assert report.count(RequestStatus.OK) == report.total_requests
        assert_matches_truth(report, gen, truth)

        # The restored node serves cache traffic again (warm or cold).
        hot_sql = gen.scripts()[1].statements[0]
        first = engine.execute(hot_sql)
        second = engine.execute(hot_sql)
        assert first.rows() == second.rows()

    def test_undetected_window_degrades_not_errors(self, tmp_path):
        """Between the kill and the monitor's verdict, scans that hit
        the dead node's tombstone degrade to cache-off — never raise."""
        gen = LoadGenerator(num_clients=1, statements_per_client=4, seed=7)
        db = Database()
        cluster = ClusterCaches(2, store=CacheStore(tmp_path, catalog=db))
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=2000)
        sql = gen.scripts()[0].statements[0]
        baseline = engine.execute(sql).rows()

        cluster.kill_node(0)
        with pytest.raises(NodeDownError):
            cluster.node(0).ping()
        degraded = engine.execute(sql)
        assert degraded.rows() == baseline
        assert degraded.counters.degraded_scans >= 1

        # Routed-around mode (post-detection) also answers correctly.
        cluster.mark_down(0)
        assert cluster.cache_for_slice(0) is None
        assert engine.execute(sql).rows() == baseline
        assert cluster.down_route_fallbacks >= 1

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
        monitor = ClusterHealthMonitor(cluster, suspect_after=1, down_after=1)
        restored = monitor.tick()
        assert restored == [0]
        keys_after = {k for node in cluster.nodes() for k in node.keys()}
        # The replacement hydrated its slice share from the store.
        assert keys_after & keys_before
        assert store.warm_restores > 0


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
        truth = uncached_truth(gen)
        engine, store = self._engine_with_store(tmp_path, gen)

        # Warm the cache and persist a clean snapshot baseline.
        for script in gen.scripts():
            for sql in script.statements[:6]:
                engine.execute(sql)
        assert store.snapshot(engine.predicate_cache)
        assert len(engine.predicate_cache.keys()) > 0

        orchestrator = RecoveryOrchestrator(engine, store)
        server = QueryServer(engine, max_workers=4)
        try:
            thread, results = run_load_in_background(server, gen.scripts())
            time.sleep(0.02)  # crash strikes mid-workload
            report = orchestrator.drill(crash_kind)
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            server.shutdown()

        assert isinstance(report, RecoveryReport)
        assert report.crash_kind == crash_kind
        assert report.torn_write
        assert report.keys_before > 0
        assert report.keys_restored > 0
        assert report.warm_hit_retention > 0.0
        assert report.recovery_seconds >= 0.0
        # The replacement cache took over the engine and journals anew.
        assert engine.predicate_cache.store is orchestrator.store
        assert orchestrator.store is not store

        load_report = results[0]
        assert load_report.errors == 0
        assert load_report.count(RequestStatus.OK) == load_report.total_requests
        assert_matches_truth(load_report, gen, truth)

        # Post-restart cache keeps serving and stays consistent.
        reader = QueryEngine(engine.database)
        sql = gen.scripts()[0].statements[0]
        assert engine.execute(sql).rows() == reader.execute(sql).rows()

    def test_mid_journal_crash_wedges_until_restart(self, tmp_path):
        gen = LoadGenerator(num_clients=1, statements_per_client=8, seed=13)
        engine, store = self._engine_with_store(tmp_path, gen, rows=2000)
        for sql in gen.scripts()[0].statements:
            engine.execute(sql)
        orchestrator = RecoveryOrchestrator(engine, store)
        assert orchestrator.crash_mid_journal()
        dropped_before = store.journal_dropped
        # A warm repeat changes no state and journals nothing, wedged or
        # not; what a wedged store must drop is a real install.
        engine.execute(gen.scripts()[0].statements[0])
        assert store.journal_dropped == dropped_before
        engine.execute(
            f"select count(*) from {gen.table_for(0)} where k >= 1 and k < 3"
        )
        assert store.journal_dropped > dropped_before  # wedged, as a crash would be

        report = orchestrator.restart(crash_kind="mid_journal", torn_write=True)
        assert report.keys_restored > 0
        # The fresh store is not wedged: new installs journal again.
        records_before = orchestrator.store.journal_records
        engine.execute(gen.scripts()[0].statements[1])
        assert orchestrator.store.journal_records >= records_before

    def test_clean_restart_retains_all_journaled_keys(self, tmp_path):
        gen = LoadGenerator(num_clients=2, statements_per_client=10, seed=29)
        engine, store = self._engine_with_store(tmp_path, gen, rows=2000)
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        orchestrator = RecoveryOrchestrator(engine, store)
        report = orchestrator.drill("clean")
        assert report.crash_kind == "clean"
        assert not report.torn_write
        # Nothing was lost: write-through journaled every install.
        assert report.warm_hit_retention == 1.0
        assert report.keys_restored >= report.keys_before


# -- drill 3: adaptive overload shedding --------------------------------------


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

        admission = AdmissionController(
            max_in_flight=2,
            max_queued=2,
            shed_queue_depth=3,
            priority_tenants=("tenant_0",),
        )
        server = QueryServer(engine, max_workers=2, admission=admission)
        try:
            report = run_closed_loop(server, gen.scripts())
        finally:
            server.shutdown()

        # Correctness under pressure: every statement eventually ran,
        # nothing errored, invalidation accounting is exact.
        assert report.errors == 0
        assert report.count(RequestStatus.OK) == report.total_requests
        layout_changes = sum(
            int(response.result.scalar())
            for responses in report.responses.values()
            for response in responses
            if response.request.sql.startswith("vacuum")
        )
        assert cache.generation_of(table_name) == layout_changes

        # Pressure actually shed, and every shed was diagnosable.
        sheds = admission.sheds()
        assert set(sheds) == set(SHED_REASONS)
        assert admission.total_sheds > 0
        assert report.total_rejections == admission.total_sheds
        by_reason = report.rejections_by_reason()
        assert sum(by_reason.values()) == admission.total_sheds
        assert set(by_reason) <= set(SHED_REASONS)

        # Quiescent differential: cached view equals an uncached reader.
        reader = QueryEngine(engine.database)
        for predicate in ("k < 2500", "bucket = 7", "v >= 500"):
            sql = (
                f"select count(*) as c, sum(v) as s from {table_name} "
                f"where {predicate}"
            )
            assert engine.execute(sql).rows() == reader.execute(sql).rows()

    def test_deadline_unmeetable_sheds_before_queueing(self):
        admission = AdmissionController(shed_queue_depth=100)
        # Teach the EWMA that requests take ~100ms.
        for _ in range(5):
            admission.observe_service_time(0.1)
        # 10 queued ahead over 1 worker -> ~1.1s estimated wait.
        reason = admission.should_shed("t", 0.05, queue_depth=10, workers=1)
        assert reason == "deadline_unmeetable"
        # A generous deadline is admitted.
        assert admission.should_shed("t", 5.0, queue_depth=10, workers=1) is None
        # No observations -> never shed on a guess.
        fresh = AdmissionController()
        assert fresh.should_shed("t", 0.001, queue_depth=50, workers=1) is None

    def test_priority_tenants_survive_queue_pressure_longer(self):
        admission = AdmissionController(
            shed_queue_depth=4, priority_tenants=("vip",)
        )
        assert admission.should_shed("normal", None, 4, 2) == "queue_full"
        assert admission.should_shed("vip", None, 4, 2) is None
        assert admission.should_shed("vip", None, 8, 2) == "queue_full"
        assert admission.sheds()["queue_full"] == 2

    def test_memory_pressure_trims_toward_budget(self, tmp_path):
        gen = LoadGenerator(num_clients=2, statements_per_client=16, seed=5)
        db = Database()
        cluster = ClusterCaches(2, store=CacheStore(tmp_path, catalog=db))
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=3000)
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        nbytes = cluster.total_nbytes
        assert nbytes > 0
        budget = max(1, nbytes // 2)
        monitor = ClusterHealthMonitor(cluster, memory_budget_bytes=budget)
        monitor.tick()
        assert monitor.memory_trims == 1
        assert monitor.bytes_trimmed > 0
        assert cluster.total_nbytes < nbytes
        # Back under budget: the next tick is a no-op.
        trims = monitor.memory_trims
        if cluster.total_nbytes <= budget:
            monitor.tick()
            assert monitor.memory_trims == trims


# -- metrics: the repro_resilience_* family -----------------------------------


class TestResilienceMetrics:
    def _full_registry(self, tmp_path):
        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(2, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        monitor = ClusterHealthMonitor(cluster, memory_budget_bytes=1 << 20)
        admission = AdmissionController(shed_queue_depth=2)
        orchestrator = RecoveryOrchestrator(engine, store)
        registry = MetricsRegistry()
        monitor.register_metrics(registry)
        admission.register_metrics(registry)
        orchestrator.register_metrics(registry)
        store.register_metrics(registry)
        return registry, (engine, cluster, monitor, admission, orchestrator)

    def test_expected_series_exist(self, tmp_path):
        registry, _ = self._full_registry(tmp_path)
        names = set(registry.names())
        for expected in (
            "repro_resilience_node_state",
            "repro_resilience_ping_failures_total",
            "repro_resilience_nodes_marked_down_total",
            "repro_resilience_failovers_total",
            "repro_resilience_memory_trims_total",
            "repro_resilience_bytes_trimmed_total",
            "repro_resilience_down_route_fallbacks_total",
            "repro_resilience_sheds_total",
            "repro_resilience_service_time_ewma_seconds",
            "repro_resilience_crashes_injected_total",
            "repro_resilience_restarts_total",
            "repro_resilience_journal_replays_total",
            "repro_resilience_recovery_seconds_total",
            "repro_resilience_warm_hit_retention",
            "repro_persist_journal_replayed_total",
        ):
            assert expected in names, expected

    def test_labels_are_stable_across_activity(self, tmp_path):
        """The series/label universe is fixed at registration: drills,
        sheds, and failovers change *values*, never the label sets."""
        registry, (engine, cluster, monitor, admission, orchestrator) = (
            self._full_registry(tmp_path)
        )
        before = set(registry.as_dict().keys())

        gen = LoadGenerator(num_clients=1, statements_per_client=6, seed=3)
        setup_load_tables(engine, gen, rows_per_table=1000)
        for sql in gen.scripts()[0].statements:
            engine.execute(sql)
        cluster.kill_node(0)
        for _ in range(5):
            monitor.tick()
        admission.should_shed("t", None, 10, 1)
        admission.observe_service_time(0.01)
        orchestrator.drill("mid_snapshot")

        after = set(registry.as_dict().keys())
        assert before == after

        # And the interesting series moved.
        values = registry.as_dict()
        assert values["repro_resilience_failovers_total"] >= 1
        assert values['repro_resilience_sheds_total{reason="queue_full"}'] >= 1
        assert values["repro_resilience_restarts_total"] == 1

    def test_shed_reason_labels_are_preregistered(self):
        registry = MetricsRegistry()
        AdmissionController(shed_queue_depth=1).register_metrics(registry)
        series = registry.as_dict()
        for reason in SHED_REASONS:
            assert f'repro_resilience_sheds_total{{reason="{reason}"}}' in series

    def test_node_state_gauge_tracks_the_state_machine(self, tmp_path):
        db = Database()
        cluster = ClusterCaches(2, store=CacheStore(tmp_path, catalog=db))
        monitor = ClusterHealthMonitor(
            cluster, suspect_after=1, down_after=2, auto_restore=False
        )
        registry = MetricsRegistry()
        monitor.register_metrics(registry)
        gauge = 'repro_resilience_node_state{node="0"}'
        assert registry.as_dict()[gauge] == float(NodeState.UP)
        cluster.kill_node(0)
        monitor.tick()
        assert registry.as_dict()[gauge] == float(NodeState.SUSPECT)
        monitor.tick()
        assert registry.as_dict()[gauge] == float(NodeState.DOWN)
        assert cluster.is_down(0)
        cluster.fail_node(0)
        monitor.tick()
        assert registry.as_dict()[gauge] == float(NodeState.UP)
        assert not cluster.is_down(0)
