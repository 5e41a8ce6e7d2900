"""A dashboard over a continuously ingesting fact table.

This is the workload the paper is motivated by (§1-2): dashboards
re-send the same parameterized queries all day while loads append new
data between repetitions.  Result caches die on every load; the
predicate cache keeps its entries and only scans the fresh tail.

The script replays one simulated "day": every tick appends a batch of
events and re-runs the dashboard's four queries, tracking how each
cache behaves.

Run:  python examples/dashboard_ingestion.py
"""

import numpy as np

from repro import Database, PredicateCache, QueryEngine
from repro.baselines.result_cache import ResultCache
from repro.storage import ColumnSpec, DataType, TableSchema

DASHBOARD = [
    "select count(*) as c from orders where status = 'failed' and region = 3",
    "select sum(total) as s from orders where status = 'paid' and total > 900.0",
    "select region, count(*) as c from orders where status = 'refunded' "
    "group by region order by region",
    "select count(*) as c from orders where total > 990.0",
]


def make_batch(rng, size, day):
    return {
        "order_id": rng.integers(0, 10**9, size),
        "status": np.array(["paid", "failed", "refunded"], dtype=object)[
            rng.choice(3, size, p=[0.96, 0.03, 0.01])
        ],
        "total": rng.random(size).round(2) * 1000,
        "region": rng.integers(0, 8, size),
        "day": np.full(size, day),
    }


def main() -> None:
    db = Database(num_slices=4, rows_per_block=500)
    db.create_table(
        TableSchema(
            "orders",
            (
                ColumnSpec("order_id", DataType.INT64),
                ColumnSpec("status", DataType.STRING),
                ColumnSpec("total", DataType.FLOAT64),
                ColumnSpec("region", DataType.INT64),
                ColumnSpec("day", DataType.INT64),
            ),
        )
    )
    engine = QueryEngine(
        db,
        predicate_cache=PredicateCache(),
        result_cache=ResultCache(),
    )
    rng = np.random.default_rng(1)
    engine.insert("orders", make_batch(rng, 100_000, day=0))

    print(f"{'tick':>4} {'rows':>9} {'result-cache hits':>18} "
          f"{'pred-cache hits':>16} {'rows scanned':>13}")
    for tick in range(1, 13):
        # Ingestion between dashboard refreshes.
        engine.insert("orders", make_batch(rng, 5_000, day=tick))

        rc_hits = pc_hits = scanned = 0
        for sql in DASHBOARD:
            result = engine.execute(sql)
            rc_hits += int(result.counters.result_cache_hit)
            pc_hits += result.counters.cache_hits
            scanned += result.counters.rows_scanned
        total_rows = engine.count_rows("orders")
        print(f"{tick:>4} {total_rows:>9} {rc_hits:>14}/4 {pc_hits:>16} "
              f"{scanned:>13}")

    pc = engine.predicate_cache.stats.snapshot()
    rc = engine.result_cache.stats
    print()
    print(f"result cache:    hit rate {rc.hit_rate:.0%} "
          f"({rc.invalidations} invalidations - every load kills it)")
    print(f"predicate cache: hit rate {pc.hit_rate:.0%} "
          f"({pc.invalidations} invalidations - loads only extend entries)")
    print()
    print("now a vacuum reorganizes the table physically ...")
    from repro import parse_predicate

    engine.delete_where("orders", parse_predicate("region = 7"))
    engine.vacuum(["orders"])
    after = engine.execute(DASHBOARD[0])
    invalidated = engine.predicate_cache.stats.invalidations - pc.invalidations
    print(f"vacuum invalidated {invalidated} entries, dropped by the next "
          f"dashboard refresh, which rebuilds them "
          f"(cache misses: {after.counters.cache_misses})")


if __name__ == "__main__":
    main()
