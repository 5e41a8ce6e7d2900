"""Observability must not touch the hot path.

An engine with a metrics registry attached has to run the Fig. 15
cached-repeat scan like an uninstrumented one.  Metrics are
callback-backed (scrape-time reads of stats the engine keeps anyway)
and tracing is ``None``-guarded; the one thing a registry adds to a
statement is the end-of-statement ``QueryEngine._record_query_metrics``
(a fixed handful of counter increments, whatever the scan touched).  So
the property is structural: outside that one call, the instrumented
repeat makes exactly the Python and C calls the plain one makes, and
this test counts them under ``sys.setprofile``.

What the calls cost in wall time — the 2 % gate, measured by cycles
interleaved query by query and calibrated against machine drift — is
``benchmarks/perf/bench_overhead.py`` (results in
``benchmarks/results/BENCH_overhead.json``); a wall-clock assertion on
a ~1 ms query does not belong in tier-1.
"""

import gc
import importlib.util
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def load_bench():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "bench_overhead", BENCH_DIR / "bench_overhead.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    from repro.engine import parallel

    bench = load_bench()
    db = bench.build_database(30_000, num_slices=2)
    # Inline slice tasks: with scan workers the coordinator's own call
    # count depends on how long it waits for them.
    previous = parallel.set_workers(0)
    try:
        calls = {}
        for mode in ("baseline", "metrics"):
            engine = bench.make_engine(db, mode)
            for _ in range(2):  # cold fill, then one repeat past lazy set-up
                engine.execute(bench.QUERY)
            calls[mode] = count_calls(
                lambda: engine.execute(bench.QUERY), "_record_query_metrics"
            )
    finally:
        parallel.set_workers(previous)
    hot, recorded = calls["baseline"]
    assert hot > 0 and recorded == 0
    hot_with_metrics, recorded = calls["metrics"]
    assert hot_with_metrics == hot
    # One inc per non-zero counter plus the latency observation: a
    # per-statement constant, nothing per slice, block or row.
    assert 0 < recorded <= 3 * len(engine._m_counter_totals)


def test_instrumented_modes_agree_on_results():
    bench = load_bench()
    db = bench.build_database(20_000, num_slices=2)
    results = {}
    for mode in ("baseline", "metrics", "tracing"):
        engine = bench.make_engine(db, mode)
        engine.execute(bench.QUERY)  # cold fill
        results[mode] = engine.execute(bench.QUERY).rows()
    assert results["baseline"] == results["metrics"] == results["tracing"]
