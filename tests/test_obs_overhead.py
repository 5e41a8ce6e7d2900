"""Idle switches must not touch the hot path.

An engine with a metrics registry attached has to run the Fig. 15
cached-repeat scan like an uninstrumented one.  Metrics are
callback-backed (scrape-time reads of stats the engine keeps anyway)
and tracing is ``None``-guarded; the one thing a registry adds to a
statement is the end-of-statement ``QueryEngine._record_query_metrics``
(a fixed handful of counter increments, whatever the scan touched).  So
the property is structural: outside that one call, the instrumented
repeat makes exactly the Python and C calls the plain one makes, and
this test counts them under ``sys.setprofile``.

The same count holds a zero-rate :class:`~repro.FaultInjector` to
``can_fault``'s promise that "no faults configured" costs nothing: a
cold scan, which fetches every block it reads from remote storage,
makes exactly the calls with the injector attached that it makes
without one.

A wall-clock assertion on a ~1 ms query does not belong in tier-1; the
warm repeat's wall time is the e2e benchmark's ``warm_repeat`` workload.
"""

import gc
import sys

import numpy as np

from repro import (
    Database,
    FaultInjector,
    MetricsRegistry,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    Tracer,
)
from repro.storage import ColumnSpec, DataType, TableSchema

QUERY = "select count(*) as c, sum(quantity) as q from lineitem where discount < 150"


def build_database(num_rows: int, num_slices: int = 2) -> Database:
    """A lineitem-shaped table with a scattered selective predicate column."""
    db = Database(num_slices=num_slices, rows_per_block=500)
    db.create_table(TableSchema("lineitem", (
        ColumnSpec("orderkey", DataType.INT64),
        ColumnSpec("quantity", DataType.INT64),
        ColumnSpec("discount", DataType.INT64),
    )))
    rng = np.random.default_rng(7)
    QueryEngine(db).insert("lineitem", {
        "orderkey": np.arange(num_rows, dtype=np.int64),
        "quantity": rng.integers(1, 50, size=num_rows),
        # ~15% selectivity, uniformly scattered -> thousands of short
        # cached ranges per slice (the fragmented hot-path shape).
        "discount": rng.integers(0, 1000, size=num_rows),
    })
    return db


def make_engine(db: Database, metrics: bool = False, tracer: bool = False):
    """A fresh engine (and predicate cache) over ``db``."""
    return QueryEngine(
        db,
        predicate_cache=PredicateCache(PredicateCacheConfig(variant="range")),
        metrics=MetricsRegistry() if metrics else None,
        tracer=Tracer() if tracer else None,
    )


def count_calls(fn, beneath: str):
    """Calls the calling thread makes while running ``fn``.

    Returns ``(outside, inside)``: Python and C calls made outside,
    and beneath, the functions named ``beneath`` (whose own call counts
    as outside).
    """
    counts = [0, 0]
    inside = []  # the open frame of ``beneath``, if any

    def profiler(frame, event, arg):
        if event in ("call", "c_call"):
            counts[bool(inside)] += 1
            if event == "call" and not inside and frame.f_code.co_name == beneath:
                inside.append(frame)
        elif event == "return" and inside and inside[0] is frame:
            inside.clear()

    # A collection in the middle would add its callbacks' calls
    # (hypothesis registers one) to whichever run it lands in.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return tuple(counts)


def test_metrics_add_no_call_to_the_cached_repeat():
    db = build_database(30_000)
    calls = {}
    for metrics in (False, True):
        engine = make_engine(db, metrics=metrics)
        for _ in range(2):  # cold fill, then one repeat past lazy set-up
            engine.execute(QUERY)
        calls[metrics] = count_calls(
            lambda: engine.execute(QUERY), "_record_query_metrics"
        )
    hot, recorded = calls[False]
    assert hot > 0 and recorded == 0
    hot_with_metrics, recorded = calls[True]
    assert hot_with_metrics == hot
    # One inc per non-zero counter plus the latency observation: a
    # per-statement constant, nothing per slice, block or row.
    assert 0 < recorded <= 3 * len(engine._m_counter_totals)


def test_zero_rate_injector_adds_no_call_to_the_cold_scan():
    # One untimed cold scan first, so lazy set-up (imports, memo
    # tables) lands in neither counted run.
    make_engine(build_database(10_000)).execute(QUERY)
    calls = {}
    for armed in (False, True):
        db = build_database(10_000)  # fresh: every block is a remote fetch
        if armed:
            db.attach_faults(FaultInjector(seed=0))
        engine = make_engine(db)
        calls[armed] = count_calls(lambda: engine.execute(QUERY), "_attempts")
    assert calls[False][0] > 0
    assert calls[True] == calls[False]


def test_instrumented_modes_agree_on_results():
    db = build_database(20_000)
    results = {}
    for mode, switches in (
        ("baseline", {}),
        ("metrics", {"metrics": True}),
        ("tracing", {"metrics": True, "tracer": True}),
    ):
        engine = make_engine(db, **switches)
        engine.execute(QUERY)  # cold fill
        results[mode] = engine.execute(QUERY).rows()
    assert results["baseline"] == results["metrics"] == results["tracing"]
