"""Benchmark: persistent cache store — snapshot/load throughput & warm start.

Four numbers characterize the persistence subsystem (PR 4):

* **Snapshot / load throughput** — serializing a populated cluster
  cache to the versioned snapshot format, and recovering it (decode +
  journal replay + revalidation).  Reported as wall time and MB/s.
* **Snapshot size vs live size** — ``snapshot_bytes`` over the caches'
  ``total_nbytes`` (range lists as raw int64 bounds, bitmaps packed 8
  bits per byte, plus per-entry metadata).  The gate keeps the format
  from bloating: the on-disk snapshot must stay under
  ``SIZE_RATIO_GATE`` x the live payload bytes.
* **Warm-vs-cold first query** — a freshly hydrated cluster versus a
  cold one on the same query set: first-execution cache hits and the
  ``blocks_accessed`` delta.  The gate is the whole point of the
  subsystem: the warm cluster must hit on its first execution and touch
  fewer blocks than the cold one.
* **Write-through cost** — µs per journal record (encode + CRC +
  append, timed around ``CacheStore.log_state`` on never-seen
  predicates) and journal records per warm repeat, which is 0: a hit
  changes no state and appends nothing.  Reported, not gated.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_persist.py          # full
    PYTHONPATH=src python benchmarks/perf/bench_persist.py --smoke  # CI smoke

Full mode enforces the gates and writes
``benchmarks/results/BENCH_persist.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro import (
    CacheStore,
    ClusterCaches,
    Database,
    PredicateCacheConfig,
    QueryEngine,
)
from repro.storage import ColumnSpec, DataType, TableSchema

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
SIZE_RATIO_GATE = 3.0  # snapshot_bytes <= 3x live payload bytes
NUM_NODES = 4


def build_engine(num_rows: int):
    db = Database(num_slices=8, rows_per_block=512)
    db.create_table(
        TableSchema(
            "lineitem",
            (
                ColumnSpec("quantity", DataType.INT64),
                ColumnSpec("discount", DataType.INT64),
            ),
        )
    )
    caches = ClusterCaches(
        num_nodes=NUM_NODES, config=PredicateCacheConfig(variant="range")
    )
    engine = QueryEngine(db, predicate_cache=caches)
    engine.insert(
        "lineitem",
        {
            "quantity": np.arange(num_rows) % 50,
            "discount": np.arange(num_rows),
        },
    )
    return engine, caches


def query_set(num_rows: int, num_queries: int):
    """OR predicates: zone maps cannot prune them (unbounded bounds),
    so every block skipped on the warm first pass is the cache's doing."""
    span = num_rows // (num_queries + 2)
    return [
        f"select count(*) as c from lineitem "
        f"where discount < {(i + 1) * span // 4} or discount > {num_rows - span}"
        for i in range(num_queries)
    ]


def run_queries(engine, queries):
    hits = blocks = skipped = 0
    for sql in queries:
        counters = engine.execute(sql).counters
        hits += counters.cache_hits
        blocks += counters.blocks_accessed
        skipped += counters.rows_skipped_cache
    return {"cache_hits": hits, "blocks_accessed": blocks, "rows_skipped": skipped}


def main() -> int:
    smoke = "--smoke" in sys.argv
    num_rows = 60_000 if smoke else 400_000
    num_queries = 12 if smoke else 48
    rounds = 2 if smoke else 5
    print(
        f"BENCH_persist: {num_rows} rows, {num_queries} queries, {NUM_NODES} nodes "
        f"({'smoke' if smoke else 'full'} mode)"
    )

    engine, caches = build_engine(num_rows)
    queries = query_set(num_rows, num_queries)
    run_queries(engine, queries)  # populate
    populated = run_queries(engine, queries)  # all-hit reference pass
    live_nbytes = caches.total_nbytes

    directory = tempfile.mkdtemp(prefix="bench_persist_")
    try:
        store = CacheStore(directory, catalog=engine.database)

        snapshot_s = min(
            _timed(lambda: store.snapshot(caches)) for _ in range(rounds)
        )
        snapshot_bytes = store.snapshot_bytes
        size_ratio = snapshot_bytes / max(1, live_nbytes)

        load_seconds, loaded_entries = [], 0
        for _ in range(rounds):
            reader = CacheStore(directory, catalog=engine.database)
            seconds = _timed(lambda: reader.load())
            load_seconds.append(seconds)
            loaded_entries = len(reader.load().records)
        load_s = min(load_seconds)

        cold_engine, _ = build_engine(num_rows)
        cold = run_queries(cold_engine, queries)

        warm_store = CacheStore(directory, catalog=engine.database)
        warm_caches = ClusterCaches(
            num_nodes=NUM_NODES,
            config=PredicateCacheConfig(variant="range"),
            store=warm_store,
        )
        warm_engine = QueryEngine(engine.database, predicate_cache=warm_caches)
        recovery_s = warm_store.last_recovery_seconds
        warm = run_queries(warm_engine, queries)

        # Write-through cost on the hydrated, journalling cluster.
        records_before = warm_store.journal_records
        run_queries(warm_engine, queries)
        records_per_repeat = (
            warm_store.journal_records - records_before
        ) / len(queries)
        journal_s = _time_inside(warm_store, "log_state")
        records_before = warm_store.journal_records
        run_queries(warm_engine, query_set(num_rows - 1, num_queries))
        journalled = warm_store.journal_records - records_before
        journal_us = journal_s[0] * 1e6 / max(1, journalled)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    mb = snapshot_bytes / 1e6
    print(f"  entries {loaded_entries}, live payload {live_nbytes} B, "
          f"snapshot {snapshot_bytes} B (ratio {size_ratio:.2f}x)")
    print(f"  snapshot {snapshot_s * 1e3:8.3f} ms ({mb / snapshot_s:7.1f} MB/s)   "
          f"load {load_s * 1e3:8.3f} ms ({mb / load_s:7.1f} MB/s)   "
          f"hydrate-recovery {recovery_s * 1e3:8.3f} ms")
    print(f"  first pass: cold hits {cold['cache_hits']} blocks {cold['blocks_accessed']}  "
          f"vs  warm hits {warm['cache_hits']} blocks {warm['blocks_accessed']}")

    print(f"  write-through: {journal_us:.1f} us per journal record "
          f"({journalled} records), {records_per_repeat:.2f} records per warm repeat")

    gates = {
        "warm_first_pass_hits": warm["cache_hits"] > 0,
        "warm_fewer_blocks_than_cold": warm["blocks_accessed"] < cold["blocks_accessed"],
        "warm_matches_populated_hit_path": warm["cache_hits"] == populated["cache_hits"],
        "size_ratio": size_ratio <= SIZE_RATIO_GATE,
        "round_trip_entries": loaded_entries == len(caches),
    }
    gate_pass = all(gates.values())
    print(f"gates {'PASS' if gate_pass else 'FAIL'}: "
          + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in gates.items()))

    report = {
        "benchmark": "persist",
        "mode": "smoke" if smoke else "full",
        "num_rows": num_rows,
        "num_queries": num_queries,
        "num_nodes": NUM_NODES,
        "entries": loaded_entries,
        "live_nbytes": live_nbytes,
        "snapshot_bytes": snapshot_bytes,
        "snapshot_size_ratio": size_ratio,
        "snapshot_s_best": snapshot_s,
        "snapshot_mb_per_s": mb / snapshot_s,
        "load_s_best": load_s,
        "load_mb_per_s": mb / load_s,
        "hydrate_recovery_s": recovery_s,
        "journal_us_per_record": journal_us,
        "journal_records_per_warm_repeat": records_per_repeat,
        "first_pass": {"cold": cold, "warm": warm, "populated": populated},
        "gate": {
            "checks": gates,
            "max_size_ratio": SIZE_RATIO_GATE,
            "pass": gate_pass,
            "gating": not smoke,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_persist.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"[saved to {out}]")
    if not smoke and not gate_pass:
        return 1
    return 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _time_inside(obj, method_name: str) -> list:
    """Rebind ``obj.method_name`` to a timing wrapper; returns the
    one-element list its seconds accumulate into."""
    method = getattr(obj, method_name)
    total = [0.0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - t0

    setattr(obj, method_name, timed)
    return total


if __name__ == "__main__":
    raise SystemExit(main())
