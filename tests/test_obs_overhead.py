"""Perf smoke: observability must not slow the hot path.

The acceptance gate for the observability layer is that an engine with
a metrics registry attached stays within 2% of the uninstrumented wall
time on the Fig. 15 cached-repeat scan.  Metrics are callback-backed
(scrape-time reads of stats the engine keeps anyway) and tracing is
``None``-guarded, so the instrumented hot path should be identical —
this test keeps it that way.

Wall-clock assertions on shared CI boxes are noisy, so the measurement
is deliberately robust: interleaved rounds, best-of-round per mode, and
escalating retries before declaring failure.  The full-size run lives
in ``benchmarks/perf/bench_overhead.py`` (results in
``benchmarks/results/BENCH_overhead.json``).
"""

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


def test_metrics_overhead_within_gate():
    bench = load_bench()
    db = bench.build_database(30_000, num_slices=2)
    # Escalate measurement effort before failing: noise shrinks with
    # more interleaved rounds (best-of-round), the true overhead doesn't.
    overhead = None
    for rounds, repeats in ((3, 3), (5, 4), (7, 5)):
        best = bench.measure(db, ["baseline", "metrics"], rounds, repeats)
        overhead = best["metrics"] / best["baseline"] - 1.0
        if overhead <= bench.OVERHEAD_GATE:
            break
    assert overhead <= bench.OVERHEAD_GATE, (
        f"metrics-attached engine {overhead * 100:.2f}% slower than "
        f"uninstrumented (gate {bench.OVERHEAD_GATE * 100:.0f}%)"
    )


def test_instrumented_modes_agree_on_results():
    bench = load_bench()
    db = bench.build_database(20_000, num_slices=2)
    results = {}
    for mode in ("baseline", "metrics", "tracing"):
        engine = bench.make_engine(db, mode)
        engine.execute(bench.QUERY)  # cold fill
        results[mode] = engine.execute(bench.QUERY).rows()
    assert results["baseline"] == results["metrics"] == results["tracing"]
