"""Figure 15: overhead of building predicate-cache entries.

Paper methodology: run TPC-H and TPC-DS with an empty cache, forcing
every filtered scan to insert a new entry, never *using* entries; clear
the cache after every query.  Most queries see <1 % difference and the
average degradation is below 0.5 %.

Our engine is Python, so absolute overheads are noisier.  Each repeat
runs every query on the plain engine and on the building engine back to
back, alternating which of the two goes first, and the report gives the
median of each query's per-pair overheads; the average of those
medians must stay below 15 %.  We additionally verify the
*counter-level* guarantee: entry construction never changes the rows
a query scans.
"""

import time

import numpy as np

from repro import Database, PredicateCache, PredicateCacheConfig, QueryEngine
from repro.bench import format_table
from repro.workloads import tpcds_lite, tpch

from _util import save_report

REPEATS = 10


def _median_overheads(plain_engine, building_engine, cache, queries):
    """Median relative build overhead per query over ``REPEATS`` pairs.

    A pair runs the query on both engines back to back, the plain one
    first in every other pair, so drift in the host's speed lands on
    both sides.  The building engine's cache is cleared after each of
    its runs: every run builds entries and none uses one.
    """
    overheads = {name: [] for name in queries}
    for repeat in range(REPEATS):
        for index, (name, sql) in enumerate(queries.items()):
            sides = [("base", plain_engine), ("build", building_engine)]
            if (repeat + index) % 2:
                sides.reverse()
            seconds = {}
            for side, engine in sides:
                started = time.perf_counter()
                engine.execute(sql)
                seconds[side] = time.perf_counter() - started
                if side == "build":
                    cache.clear()
            base = seconds["base"]
            overheads[name].append((seconds["build"] - base) / base)
    return {name: float(np.median(values)) for name, values in overheads.items()}


def test_fig15_build_overhead(benchmark):
    def run():
        rows = []
        overheads = []
        for label, loader, queries in (
            (
                "TPC-H",
                lambda db: tpch.load(db, scale_factor=0.005, skew=1.0, seed=15),
                tpch.queries(skewed=True),
            ),
            (
                "TPC-DS",
                lambda db: tpcds_lite.load(db, scale_factor=0.003, seed=15),
                tpcds_lite.queries(),
            ),
        ):
            db = Database(num_slices=2, rows_per_block=500)
            loader(db)
            plain_engine = QueryEngine(db)
            cache = PredicateCache(PredicateCacheConfig())
            caching_engine = QueryEngine(db, predicate_cache=cache)

            medians = _median_overheads(plain_engine, caching_engine, cache, queries)

            for name in queries:
                overhead = medians[name]
                overheads.append(overhead)
                rows.append([f"{label} {name}", f"{overhead:+.1%}"])

                # Counter-exact guarantee: building entries changes no
                # scan work.
                b = plain_engine.execute(queries[name])
                cache.clear()
                c = caching_engine.execute(queries[name])
                cache.clear()
                assert b.counters.rows_scanned == c.counters.rows_scanned, name
        return rows, overheads

    rows, overheads = benchmark.pedantic(run, rounds=1, iterations=1)
    average = float(np.mean(overheads))
    rows.append(["average", f"{average:+.1%}"])
    report = format_table(
        ["query", "build-overhead (median of paired wall times)"],
        rows,
        title=(
            "Fig. 15 - overhead of inserting predicate-cache entries\n"
            "paper: within +/-1 % for most queries, average < 0.5 % "
            "(C++/SIMD engine; Python medians are noisier)"
        ),
    )
    save_report("fig15_build_overhead", report)

    # The average overhead stays small even in Python.
    assert average < 0.15
