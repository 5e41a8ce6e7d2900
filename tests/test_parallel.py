"""Parallel slice-scan execution: bit-identical to serial at any width.

The tentpole claim of the parallel executor is *determinism*: worker
counts change wall-clock, never results, counters, traces, or cache
state.  These tests drive the differential and chaos workloads under 1,
2, and 8 workers and assert every surfaced signal matches a serial run
step for step, plus unit coverage of the knobs (env resolution, phased
storage settlement) and the memory-mapped block store.

The CI ``parallel`` job additionally runs the whole tier-1 suite with
``REPRO_PARALLEL=1`` — these tests pin serial-vs-parallel equality
explicitly, at fixed seeds, inside one process.
"""

import contextlib
import os

import numpy as np
import pytest

from repro import (
    Database,
    FaultInjector,
    MemmapBlockStore,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    env,
    parse_predicate,
)
from repro.engine import parallel
from repro.engine.parallel import ParallelScanExecutor, _workers_from_env
from repro.obs import Tracer
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.rms import ManagedStorage

from tests.test_chaos import CHAOS_RETRIES, build_chaos_twins
from tests.test_differential import apply_step, build_twins, generate_steps

WORKER_COUNTS = (1, 2, 8)


@contextlib.contextmanager
def scan_workers(workers):
    """Session-wide worker override, restored on exit."""
    previous = parallel.set_workers(workers)
    try:
        yield
    finally:
        parallel.set_workers(previous)


# -- knob resolution -----------------------------------------------------------


class TestConfiguration:
    def test_env_resolution(self, monkeypatch):
        cases = [
            (None, 0),  # unset: serial
            ("", 0),
            ("0", 0),
            ("1", parallel.DEFAULT_WORKERS),
            ("6", 6),
            ("nonsense", 0),
        ]
        for enabled, expected in cases:
            monkeypatch.setattr(env, "PARALLEL", enabled or "")
            assert _workers_from_env() == expected, enabled

    def test_set_workers_round_trip(self):
        original = parallel.configured_workers()
        previous = parallel.set_workers(3)
        assert previous == original
        assert parallel.configured_workers() == 3
        parallel.set_workers(previous)
        assert parallel.configured_workers() == original

    def test_executor_preserves_task_order_and_errors(self):
        executor = ParallelScanExecutor(4)
        results = executor.run([(lambda i=i: i * i) for i in range(20)])
        assert results == [i * i for i in range(20)]

        def boom():
            raise ValueError("slice exploded")

        with pytest.raises(ValueError, match="slice exploded"):
            executor.run([lambda: 1, boom, lambda: 3])


# -- phased storage settlement -------------------------------------------------


class TestScanPhase:
    def test_deferred_eviction_settles_in_slice_order(self):
        """During a phase, no eviction; at the barrier, the LRU replays
        accesses slice-major — independent of arrival order."""
        from repro.storage.compression import choose_codec

        rms = ManagedStorage(cache_capacity=2)
        blocks = {
            i: choose_codec(np.arange(4, dtype=np.int64) + i) for i in range(3)
        }
        keys = {i: ("t", i % 2, "c", i) for i in range(3)}
        reader = rms.query_context()
        reader.begin_scan_phase()
        # Arrival order 2, 0, 1 — deliberately not slice order.
        for i in (2, 0, 1):
            reader.read_blocks((keys[i],), (blocks[i],))
        assert rms.cached_blocks == 3  # over capacity, eviction deferred
        counts = reader.end_scan_phase()
        assert counts == {0: 2, 1: 1}  # slices 0 and 1 access counts
        assert rms.cached_blocks == 2
        # Slice-major replay: slice 0 touches block 2 then block 0,
        # slice 1 touches block 1 — so block 2 is coldest and evicted,
        # no matter that it *arrived* first.
        assert keys[2] not in rms._cache
        assert keys[0] in rms._cache and keys[1] in rms._cache


# -- differential oracle across worker counts ----------------------------------


def run_differential_workload(variant, seed, workers, steps=120):
    """The cache-on/cache-off oracle under ``workers``; per-step signature."""
    with scan_workers(workers):
        cached, plain = build_twins(variant)
        workload = generate_steps(np.random.default_rng(seed), steps)
        signature = []
        for step_no, step in enumerate(workload):
            apply_step(cached, plain, step, step_no)
            stats = cached.database.rms.stats
            cache_stats = cached.predicate_cache.stats
            signature.append(
                (
                    cached.execute("select count(*) as c from t").scalar(),
                    dict(vars(stats)),
                    (cache_stats.hits, cache_stats.misses, cache_stats.lookups),
                )
            )
        final = cached.execute(
            "select count(*) as c, sum(v) as s from t where k < 70"
        ).counters.as_dict()
        final.pop("wall_seconds")
        signature.append(final)
    return signature


@pytest.mark.parametrize("variant,seed", [("range", 101), ("bitmap", 202)])
def test_differential_oracle_identical_across_worker_counts(variant, seed):
    serial = run_differential_workload(variant, seed, workers=0)
    for workers in WORKER_COUNTS:
        parallel_run = run_differential_workload(variant, seed, workers=workers)
        assert parallel_run == serial, f"{workers} workers diverged from serial"


# -- chaos suite across worker counts ------------------------------------------


def run_chaos_parity_workload(variant, seed, workers, steps=100, fail_node_every=25):
    """The chaos oracle (faults + bounded cache + node failures) under
    ``workers``; per-step signature of every surfaced counter."""
    with scan_workers(workers):
        cached, plain, caches, injector = build_chaos_twins(variant, seed)
        workload = generate_steps(np.random.default_rng(seed), steps)
        signature = []
        for step_no, step in enumerate(workload):
            if step_no and step_no % fail_node_every == 0:
                caches.fail_node((step_no // fail_node_every) % caches.num_nodes)
            apply_step(cached, plain, step, step_no)
            stats = cached.database.rms.stats
            signature.append(
                (
                    cached.execute("select count(*) as c from t").scalar(),
                    dict(vars(stats)),
                    (
                        injector.reads_seen,
                        injector.errors_injected,
                        injector.corruptions_injected,
                        injector.latency_injected_seconds,
                    ),
                    cached.database.rms.cached_blocks,
                )
            )
        agg = caches.aggregate_stats()
        signature.append((agg.hits, agg.misses, agg.lookups))
    return signature


@pytest.mark.parametrize("variant,seed", [("range", 301), ("bitmap", 404)])
def test_chaos_suite_identical_across_worker_counts(variant, seed):
    """Fault draws are keyed and model-time addends quantized, so even
    the resilience counters (retries, backoff seconds, corrupt blocks)
    must be bit-identical whatever the worker interleaving."""
    serial = run_chaos_parity_workload(variant, seed, workers=0)
    chaos_stats = serial[-2][1]
    assert chaos_stats["transient_errors"] > 0, "chaos run injected nothing"
    assert chaos_stats["retries"] > 0
    for workers in WORKER_COUNTS:
        parallel_run = run_chaos_parity_workload(variant, seed, workers=workers)
        assert parallel_run == serial, f"{workers} workers diverged from serial"


# -- traces --------------------------------------------------------------------


def _build_traced_engine(workers):
    db = Database(num_slices=4, rows_per_block=64)
    db.create_table(
        TableSchema("t", (ColumnSpec("k", DataType.INT64), ColumnSpec("v", DataType.INT64)))
    )
    tracer = Tracer()
    engine = QueryEngine(
        db,
        predicate_cache=PredicateCache(PredicateCacheConfig()),
        tracer=tracer,
        scan_workers=workers,
    )
    rng = np.random.default_rng(11)
    engine.insert("t", {"k": rng.integers(0, 100, 800), "v": rng.integers(0, 100, 800)})
    return engine, tracer


def _span_shape(tracer):
    """(name, attrs) of every span, pre-order — everything but timing.

    ``wall_seconds`` is real elapsed time and legitimately varies run to
    run; every other attribute (counters, blocks_fetched, cache_basis,
    model_seconds) must be bit-identical across worker counts.
    """
    return [
        (span.name, {k: v for k, v in span.attrs.items() if k != "wall_seconds"})
        for root in tracer.roots
        for span in root.walk()
    ]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_spans_emitted_in_slice_order_with_identical_attrs(workers):
    serial_engine, serial_tracer = _build_traced_engine(0)
    parallel_engine, parallel_tracer = _build_traced_engine(workers)
    for sql in (
        "select count(*) as c from t where k < 40",
        "select count(*) as c from t where k < 40",  # cache-hit repeat
    ):
        serial_engine.execute(sql)
        parallel_engine.execute(sql)
    assert _span_shape(parallel_tracer) == _span_shape(serial_tracer)
    # The per-slice spans really are there, in slice order, with the
    # per-slice storage and counter attributes.
    names = [name for name, _ in _span_shape(parallel_tracer)]
    slice_names = [n for n in names if n.startswith("scan[slice")]
    assert slice_names[:4] == [f"scan[slice {i}]" for i in range(4)]
    last = parallel_tracer.roots[-1]
    slice0 = last.find("scan[slice 0]")
    assert slice0 is not None
    assert "blocks_fetched" in slice0.attrs
    assert slice0.attrs["cache_basis"] in ("plain", "off", "full", "join")
    assert slice0.end_s is not None and slice0.end_s >= slice0.start_s


# -- memory-mapped block store -------------------------------------------------


class TestMemmapBlockStore:
    SCHEMA = TableSchema(
        "big",
        (ColumnSpec("k", DataType.INT64), ColumnSpec("v", DataType.INT64)),
    )

    def _build(self, tmp_path, block_store=None):
        db = Database(num_slices=2, rows_per_block=64, block_store=block_store)
        db.create_table(self.SCHEMA)
        engine = QueryEngine(db)
        rng = np.random.default_rng(5)
        engine.insert(
            "big",
            {"k": rng.integers(0, 1000, 4000), "v": rng.integers(0, 1000, 4000)},
        )
        return engine

    def test_results_and_block_accounting_match_resident_storage(self, tmp_path):
        store = MemmapBlockStore(tmp_path / "blocks")
        mapped = self._build(tmp_path, block_store=store)
        resident = self._build(tmp_path, block_store=None)
        sql = "select count(*) as c, sum(v) as s from big where k < 250"
        rm = mapped.execute(sql)
        rr = resident.execute(sql)
        assert rm.rows() == rr.rows()
        assert (
            rm.counters.blocks_accessed == rr.counters.blocks_accessed
        ), "externalization changed the fetch cost model"
        assert rm.counters.bytes_fetched == rr.counters.bytes_fetched
        assert store.spilled_blocks > 0 and store.spilled_bytes > 0

    def test_payloads_are_memmapped_not_resident(self, tmp_path):
        store = MemmapBlockStore(tmp_path / "blocks")
        engine = self._build(tmp_path, block_store=store)
        table = engine.database.table("big")
        mapped_payloads = 0
        for data_slice in table.slices:
            for column in data_slice.columns.values():
                for block in column.blocks:
                    for values in block.payload:
                        if isinstance(values, np.memmap):
                            mapped_payloads += 1
        assert mapped_payloads > 0
        assert mapped_payloads >= store.spilled_blocks

    def test_checksums_survive_externalization_under_faults(self, tmp_path):
        """CRC verification decodes spilled payloads: corruption is still
        caught and retried, and clean reads still verify."""
        store = MemmapBlockStore(tmp_path / "blocks")
        engine = self._build(tmp_path, block_store=store)
        injector = FaultInjector(seed=13, error_rate=0.05, corruption_rate=0.05)
        engine.database.attach_faults(injector, CHAOS_RETRIES)
        result = engine.execute("select count(*) as c from big where k < 500")
        stats = engine.database.rms.stats
        assert stats.corrupt_blocks > 0, "no corruption reached a checksum check"
        assert stats.retry_giveups == 0
        clean = self._build(tmp_path, block_store=None)
        assert result.scalar() == clean.execute(
            "select count(*) as c from big where k < 500"
        ).scalar()

    def test_vacuum_reseals_through_store_and_releases_old_spills(self, tmp_path):
        directory = tmp_path / "blocks"
        store = MemmapBlockStore(directory)
        engine = self._build(tmp_path, block_store=store)
        before = engine.execute("select count(*) as c from big where k < 250").scalar()
        files_before = len(os.listdir(directory))
        engine.delete_where("big", parse_predicate("k >= 900"))
        engine.vacuum(["big"])
        after = engine.execute("select count(*) as c from big where k < 250").scalar()
        assert after == before
        # Old spill files were released; the rewritten table spills again.
        assert len(os.listdir(directory)) <= files_before
        assert store.spilled_blocks > 0

    @pytest.mark.parametrize("workers", (2,))
    def test_parallel_scans_over_memmapped_blocks(self, tmp_path, workers):
        store = MemmapBlockStore(tmp_path / "blocks")
        mapped = self._build(tmp_path, block_store=store)
        resident = self._build(tmp_path, block_store=None)
        with scan_workers(workers):
            sql = "select count(*) as c, sum(v) as s from big where k < 250"
            assert mapped.execute(sql).rows() == resident.execute(sql).rows()
