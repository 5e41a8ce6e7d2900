"""Benchmark: resilience gates for the failure-survival control plane.

Three gates, mirroring the chaos drills (DESIGN.md §13) but measured as
performance claims rather than correctness oracles:

* **warm recovery** — after a crash mid-snapshot and a journal-replay
  restart, a first pass over the hot statement set must touch at most
  2x the blocks of the same pass after a *clean* warm start.  This is
  the paper's recovery story: the journal keeps the cache warm through
  a crash, so recovery does not mean re-scanning the world.
* **failover availability** — a 3-node cache cluster loses a node mid
  closed-loop workload; its slices scan cache-off until the heartbeat
  monitor restores a warm replacement.  Every statement must reach a terminal
  OK response (100% availability) with at least one observed failover.
* **shed-mode p99** — an overloaded server with queue-depth shedding
  armed must keep the p99 latency of *admitted* requests within 1.5x
  of an uncontended single-client run.  Shedding exists precisely so
  the admitted tail does not absorb the queue.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_resilience.py          # full
    PYTHONPATH=src python benchmarks/perf/bench_resilience.py --smoke  # CI

Writes ``benchmarks/results/BENCH_resilience.json``.  Full mode
enforces the gates (exit 1 on failure); smoke mode shrinks the shapes
and records without gating, so CI stays robust to shared-runner noise.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time

from repro import (
    Database,
    PredicateCache,
    QueryEngine,
    QueryServer,
    RequestStatus,
)
from repro.cluster import ClusterCaches
from repro.persist import CacheStore
from repro.serve import (
    AdmissionController,
    ClusterHealthMonitor,
    RecoveryOrchestrator,
)
from repro.workloads.loadgen import (
    LoadGenerator,
    run_closed_loop,
    setup_load_tables,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

WARM_RECOVERY_GATE = 2.0  # post-crash first-pass blocks vs clean warm start
SHED_P99_GATE = 1.5  # admitted p99 under shed pressure vs uncontended
SEED = 17
# Large enough that every slice seals real blocks (4 slices x 1000-row
# blocks): scans then go through the RMS read path, so block counts and
# modeled fetch delays are actually exercised.
ROWS_PER_TABLE = 8_000

# Modeled remote-fetch round trip for the serving-side gates: with the
# decoded cache held small the sleep dominates service time, so queue
# wait — the thing shedding bounds — is measured against a stable base.
FETCH_DELAY_S = 0.003
CACHE_CAPACITY = 4


# -- gate A: warm recovery after a torn snapshot -------------------------------


def _hot_pass_blocks(engine, statements) -> int:
    """Blocks touched by one pass over the hot statement set."""
    return sum(engine.execute(sql).counters.blocks_accessed for sql in statements)


def measure_warm_recovery(smoke: bool) -> dict:
    gen = LoadGenerator(
        num_clients=2,
        statements_per_client=8 if smoke else 32,
        seed=SEED,
        hot_fraction=0.7,
    )
    db = Database()
    cache = PredicateCache()
    engine = QueryEngine(db, predicate_cache=cache)
    setup_load_tables(engine, gen, rows_per_table=ROWS_PER_TABLE)
    hot_set = [s for s in gen.scripts()[0].statements if s.startswith("select")]

    with tempfile.TemporaryDirectory(prefix="bench_resilience_") as directory:
        store = CacheStore(directory, catalog=db)
        store.attach(cache)
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        store.snapshot(engine.predicate_cache)

        orchestrator = RecoveryOrchestrator(engine, store)
        # Clean warm start: restart with an intact store, replay hot set.
        clean_report = orchestrator.drill("clean")
        clean_blocks = _hot_pass_blocks(engine, hot_set)

        # More traffic, then the crash strikes mid-snapshot.
        for script in gen.scripts():
            for sql in script.statements:
                engine.execute(sql)
        crash_report = orchestrator.drill("mid_snapshot")
        crash_blocks = _hot_pass_blocks(engine, hot_set)

        # Cold context: what the same pass costs with no cache at all
        # (what a recovery WITHOUT journal replay would converge from).
        cold_blocks = _hot_pass_blocks(QueryEngine(db), hot_set)

    # A fully warm pass touches zero blocks (cache entries carry the
    # qualifying rows); 0/0 is perfect recovery, not a degenerate case.
    if clean_blocks:
        ratio = crash_blocks / clean_blocks
    else:
        ratio = 1.0 if crash_blocks == 0 else float("inf")
    return {
        "hot_statements": len(hot_set),
        "clean_first_pass_blocks": clean_blocks,
        "crash_first_pass_blocks": crash_blocks,
        "cold_first_pass_blocks": cold_blocks,
        "blocks_ratio": ratio,
        "clean_warm_hit_retention": clean_report.warm_hit_retention,
        "crash_warm_hit_retention": crash_report.warm_hit_retention,
        "crash_keys_restored": crash_report.keys_restored,
        "recovery_seconds": crash_report.recovery_seconds,
        "torn_write": crash_report.torn_write,
        "pass": ratio <= WARM_RECOVERY_GATE and crash_blocks < cold_blocks,
    }


# -- gate B: failover availability under live load -----------------------------


def measure_failover(smoke: bool) -> dict:
    gen = LoadGenerator(
        num_clients=4 if smoke else 6,
        statements_per_client=12 if smoke else 32,
        seed=SEED + 1,
        hot_fraction=0.6,
    )
    db = Database()
    with tempfile.TemporaryDirectory(prefix="bench_resilience_") as directory:
        store = CacheStore(directory, catalog=db)
        cluster = ClusterCaches(3, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=ROWS_PER_TABLE)
        db.rms.fetch_delay_seconds = FETCH_DELAY_S
        monitor = ClusterHealthMonitor(cluster, down_after=2)
        server = QueryServer(engine, max_workers=4)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                run_closed_loop(server, gen.scripts())
            ),
            name="bench-failover-load",
        )
        started = time.perf_counter()
        try:
            thread.start()
            time.sleep(0.05)
            cluster.kill_node(1)
            detected = None
            for _ in range(200):
                if monitor.tick():
                    detected = time.perf_counter() - started
                    break
                time.sleep(0.002)
            thread.join(timeout=120)
        finally:
            server.shutdown()

    report = results[0]
    total = gen.num_clients * gen.statements_per_client
    terminal = report.total_requests
    ok = report.count(RequestStatus.OK)
    availability = ok / total if total else 0.0
    return {
        "statements": total,
        "terminal_responses": terminal,
        "ok": ok,
        "errors": report.errors,
        "availability": availability,
        "failovers": monitor.failovers,
        "detect_and_restore_seconds": detected,
        "qps": report.qps,
        "pass": (
            availability == 1.0
            and report.errors == 0
            and monitor.failovers >= 1
        ),
    }


# -- gate C: shed-mode p99 for admitted requests -------------------------------


def _serving_run(num_clients: int, statements: int, admission=None) -> dict:
    gen = LoadGenerator(
        num_clients=num_clients,
        statements_per_client=statements,
        seed=SEED + 2,
    )
    # Cache-off on purpose: every statement pays its remote fetches, so
    # service time is uniform and sleep-dominated and the ratio isolates
    # queue wait — the quantity shedding is supposed to bound.
    db = Database(cache_capacity=CACHE_CAPACITY)
    engine = QueryEngine(db)
    setup_load_tables(engine, gen, rows_per_table=ROWS_PER_TABLE)
    db.rms.fetch_delay_seconds = FETCH_DELAY_S
    server = QueryServer(engine, max_workers=4, admission=admission)
    try:
        report = run_closed_loop(server, gen.scripts())
    finally:
        server.shutdown()
    return {
        "clients": num_clients,
        "p50_seconds": report.p50,
        "p99_seconds": report.p99,
        "qps": report.qps,
        "errors": report.errors,
        "retried_rejections": report.total_rejections,
        "rejections_by_reason": report.rejections_by_reason(),
    }


def measure_shedding(smoke: bool) -> dict:
    statements = 8 if smoke else 24
    # Uncontended = offered concurrency equals worker count: the server
    # runs at full utilization with an empty queue, so the shed-mode
    # ratio isolates exactly the queue wait shedding is meant to bound.
    uncontended = _serving_run(4, statements)
    admission = AdmissionController(
        max_in_flight=4, max_queued=64, shed_queue_depth=1
    )
    shed = _serving_run(8 if smoke else 16, statements, admission=admission)
    shed["sheds"] = admission.sheds()
    shed["total_sheds"] = admission.total_sheds
    ratio = (
        shed["p99_seconds"] / uncontended["p99_seconds"]
        if uncontended["p99_seconds"]
        else float("inf")
    )
    return {
        "uncontended": uncontended,
        "shed_mode": shed,
        "p99_ratio": ratio,
        "pass": (
            ratio <= SHED_P99_GATE
            and shed["total_sheds"] > 0
            and shed["errors"] == 0
            and uncontended["errors"] == 0
        ),
    }


def main() -> int:
    smoke = "--smoke" in sys.argv
    print(f"BENCH_resilience ({'smoke' if smoke else 'full'} mode)")

    warm = measure_warm_recovery(smoke)
    print(f"  warm recovery : first-pass blocks {warm['crash_first_pass_blocks']}"
          f" vs clean {warm['clean_first_pass_blocks']} "
          f"({warm['blocks_ratio']:.2f}x, gate {WARM_RECOVERY_GATE}x) "
          f"retention {warm['crash_warm_hit_retention']:.2f} "
          f"recovery {warm['recovery_seconds'] * 1e3:.1f} ms "
          f"-> {'PASS' if warm['pass'] else 'FAIL'}")

    failover = measure_failover(smoke)
    print(f"  failover      : availability {failover['availability']:.3f} "
          f"({failover['ok']}/{failover['statements']} ok, "
          f"{failover['errors']} errors), "
          f"failovers {failover['failovers']} "
          f"-> {'PASS' if failover['pass'] else 'FAIL'}")

    shed = measure_shedding(smoke)
    print(f"  shed-mode p99 : {shed['shed_mode']['p99_seconds'] * 1e3:.2f} ms "
          f"vs uncontended {shed['uncontended']['p99_seconds'] * 1e3:.2f} ms "
          f"({shed['p99_ratio']:.2f}x, gate {SHED_P99_GATE}x), "
          f"sheds {shed['shed_mode']['total_sheds']} "
          f"-> {'PASS' if shed['pass'] else 'FAIL'}")

    gate_pass = warm["pass"] and failover["pass"] and shed["pass"]
    print(f"gate -> {'PASS' if gate_pass else 'FAIL'}")

    report = {
        "benchmark": "resilience",
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "fetch_delay_s": FETCH_DELAY_S,
        "rows_per_table": ROWS_PER_TABLE,
        "warm_recovery": warm,
        "failover": failover,
        "shedding": shed,
        "gate": {
            "warm_recovery_max_ratio": WARM_RECOVERY_GATE,
            "shed_p99_max_ratio": SHED_P99_GATE,
            "warm_recovery_pass": warm["pass"],
            "failover_pass": failover["pass"],
            "shed_pass": shed["pass"],
            "pass": gate_pass,
            "gating": not smoke,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_resilience.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"[saved to {out}]")
    if not smoke and not gate_pass:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
