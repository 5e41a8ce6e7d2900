"""Overhead sweep: what an enabled-but-idle switch costs the cached repeat.

The trajectory of the warm repeat itself — every switch at its default —
is ``benchmarks/e2e`` (``warm_repeat/select_ms_p50``, parent vs change on
every PR).  No e2e workload turns a switch *on*, so this sweep covers the
other half: the Fig. 15 cached-repeat scan with one switch enabled and
nothing for it to do, against the same scan without it.

* ``metrics`` — a :class:`~repro.MetricsRegistry` attached.  Instruments
  are callback-backed (read at scrape time from stats the engine keeps
  anyway), so this must stay within OVERHEAD_GATE of ``baseline``.
* ``tracing`` — registry plus a serial :class:`~repro.Tracer`.  Reported,
  not gated: a tracer is an opt-in debugging tool.
* ``parallel`` / ``parallel-tracing`` — four scan workers, without and
  with a tracer.  Workers record per-slice span windows and the
  coordinator emits them at the barrier; that machinery is gated against
  the untraced *parallel* run.
* ``armed_zero`` — a zero-rate :class:`~repro.FaultInjector` attached:
  every query binds a retry budget and every fetch checks the armed
  flag, but no fault can fire.  Gated against ``baseline``.
* ``chaos`` — the chaos-suite rates.  Faults only fire on remote
  fetches and the warm repeats fetch nothing, so this row is the armed
  resilient path standing idle; what firing faults cost is measured by
  ``bench_resilience.py`` and the chaos test suite.  Never gated.

Every mode runs fresh engines over the same database, interleaved query
by query and calibrated against machine drift (see :func:`measure`).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_overhead.py          # full
    PYTHONPATH=src python benchmarks/perf/bench_overhead.py --smoke  # CI smoke

Full mode enforces the three gates (exit 1 on failure); smoke mode
records but never gates.  Writes ``benchmarks/results/BENCH_overhead.json``
with one row per mode.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from typing import NamedTuple, Optional

import numpy as np

from repro import (
    Database,
    FaultInjector,
    MetricsRegistry,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    RetryPolicy,
    Tracer,
)
from repro.storage import ColumnSpec, DataType, TableSchema

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
OVERHEAD_GATE = 0.02  # a gated mode must be within 2% of its reference
QUERY = "select count(*) as c, sum(quantity) as q from lineitem where discount < 150"

CHAOS_RATES = {
    "error_rate": 0.05,
    "corruption_rate": 0.01,
    "latency_rate": 0.02,
    "latency_seconds": 0.005,
}


class Mode(NamedTuple):
    """One row of the sweep: what is switched on, and what it is held to."""

    metrics: bool = False
    tracer: bool = False
    #: None defers to the session configuration, like any engine.
    scan_workers: Optional[int] = None
    #: FaultInjector rates; None attaches no injector, {} a zero-rate one.
    fault_rates: Optional[dict] = None
    versus: str = "baseline"
    gated: bool = False


MODES = {
    "baseline": Mode(),
    "metrics": Mode(metrics=True, gated=True),
    "tracing": Mode(metrics=True, tracer=True),
    "parallel": Mode(scan_workers=4),
    "parallel-tracing": Mode(
        tracer=True, scan_workers=4, versus="parallel", gated=True
    ),
    "armed_zero": Mode(fault_rates={}, gated=True),
    "chaos": Mode(fault_rates=CHAOS_RATES),
}


def build_database(
    num_rows: int, num_slices: int = 4, **database_options
) -> Database:
    """A lineitem-shaped table with a scattered selective predicate column.

    ``database_options`` go to :class:`~repro.Database` (block-cache
    capacity, block store) for the out-of-core runs.
    """
    db = Database(num_slices=num_slices, rows_per_block=500, **database_options)
    db.create_table(TableSchema("lineitem", (
        ColumnSpec("orderkey", DataType.INT64),
        ColumnSpec("quantity", DataType.INT64),
        ColumnSpec("discount", DataType.INT64),
    )))
    rng = np.random.default_rng(7)
    engine = QueryEngine(db)
    engine.insert("lineitem", {
        "orderkey": np.arange(num_rows, dtype=np.int64),
        "quantity": rng.integers(1, 50, size=num_rows),
        # ~15% selectivity, uniformly scattered -> thousands of short
        # cached ranges per slice (the fragmented hot-path shape).
        "discount": rng.integers(0, 1000, size=num_rows),
    })
    return db


def arm(db: Database, mode: str) -> None:
    """Attach (or detach) the mode's fault injector.

    Fault injection hangs off the database, not the engine, so it is
    switched before every query: modes never inherit each other's
    injector.
    """
    rates = MODES[mode].fault_rates
    injector = None if rates is None else FaultInjector(seed=0, **rates)
    # The chaos suite's retry allowance; it only matters if a fault fires.
    db.attach_faults(injector, RetryPolicy(max_attempts=8))


def make_engine(db: Database, mode: str) -> QueryEngine:
    """A fresh engine (and predicate cache) over ``db``, armed for ``mode``."""
    spec = MODES[mode]
    arm(db, mode)
    return QueryEngine(
        db,
        predicate_cache=PredicateCache(PredicateCacheConfig(variant="range")),
        metrics=MetricsRegistry() if spec.metrics else None,
        tracer=Tracer() if spec.tracer else None,
        scan_workers=spec.scan_workers,
    )


def measure(db: Database, modes, rounds: int, repeats: int) -> dict:
    """Cached-repeat seconds per mode, calibrated against machine drift.

    This sandbox's cores switch between a fast and a 10-40 % slower
    state every few seconds (benchmarks/e2e/README.md) — far more than
    the 2 % being resolved, and best-of-N per mode only cancels it when
    every mode happens to be sampled in a fast phase.  So modes are
    interleaved query by query: one *cycle* runs the cached repeat once
    per mode, back to back and in shuffled order (a fixed order gives
    every mode the same predecessor, and a query that follows a
    parallel one runs measurably slower), and every sample is divided
    by its cycle's mean.  The cycle is its own speed probe; a
    mode's result is the median of its calibrated samples, scaled back
    to seconds by the median cycle mean.

    Each round builds fresh engines (cold fill untimed) and runs
    ``repeats`` cycles.  An uncounted first pass touches every path
    (imports, pools, block cache).
    """
    modes = list(modes)
    for mode in modes:
        make_engine(db, mode).execute(QUERY)
    order = random.Random(0)
    calibrated = {mode: [] for mode in modes}
    cycle_means = []
    for _round in range(rounds):
        engines, cold = {}, {}
        for mode in modes:
            engines[mode] = make_engine(db, mode)
            cold[mode] = engines[mode].execute(QUERY).column("c")[0]
        for _cycle in range(repeats):
            order.shuffle(modes)
            seconds = {}
            for mode in modes:
                arm(db, mode)
                t0 = time.perf_counter()
                warm = engines[mode].execute(QUERY)
                seconds[mode] = time.perf_counter() - t0
                assert warm.counters.cache_hits > 0, "repeat missed the cache"
                assert warm.column("c")[0] == cold[mode]
            mean = statistics.fmean(seconds.values())
            cycle_means.append(mean)
            for mode in modes:
                calibrated[mode].append(seconds[mode] / mean)
    scale = statistics.median(cycle_means)
    return {
        mode: statistics.median(samples) * scale
        for mode, samples in calibrated.items()
    }


def main() -> int:
    smoke = "--smoke" in sys.argv
    num_rows = 40_000 if smoke else 240_000
    rounds = 3 if smoke else 14
    repeats = 3 if smoke else 14
    print(f"BENCH_overhead: {num_rows} rows, {rounds} rounds x {repeats} "
          f"repeats ({'smoke' if smoke else 'full'} mode)")

    db = build_database(num_rows)
    seconds = measure(db, list(MODES), rounds, repeats)

    rows = {}
    for name, spec in MODES.items():
        overhead = seconds[name] / seconds[spec.versus] - 1.0
        rows[name] = {
            "repeat_s": seconds[name],
            "versus": spec.versus,
            "overhead_fraction": overhead,
            "gated": spec.gated,
            "pass": not spec.gated or overhead <= OVERHEAD_GATE,
        }
        verdict = "" if not spec.gated else (
            f"  gate <= {OVERHEAD_GATE * 100:.0f}% -> "
            f"{'PASS' if rows[name]['pass'] else 'FAIL'}"
        )
        print(f"  {name:16s} cached repeat: {seconds[name] * 1e3:8.3f} ms  "
              f"{overhead * 100:+6.2f}% vs {spec.versus}{verdict}")
    gate_pass = all(row["pass"] for row in rows.values())
    print(f"gate -> {'PASS' if gate_pass else 'FAIL'}")

    report = {
        "benchmark": "overhead",
        "mode": "smoke" if smoke else "full",
        "query": QUERY,
        "num_rows": num_rows,
        "rounds": rounds,
        "repeats": repeats,
        "modes": rows,
        "gate": {
            "max_overhead": OVERHEAD_GATE,
            "pass": gate_pass,
            "gating": not smoke,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_overhead.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"[saved to {out}]")
    if not smoke and not gate_pass:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
