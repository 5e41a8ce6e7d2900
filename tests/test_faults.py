"""The resilience layer: injection, retries, checksums, degradation.

The contract under test is the paper's "safe to be wrong" property
taken to its operational conclusion: a lost, corrupted, or stale cache
state may cost performance but must never surface an error or a wrong
row.  Faults are injected deterministically (seeded stream or explicit
schedule), retried under a bounded policy, detected by block checksums,
and — when persistent — degraded around by dropping the suspect cache
state and rescanning.
"""

import numpy as np
import pytest

from repro import (
    CircuitBreaker,
    Database,
    FaultInjector,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    RetryBudgetExceeded,
    RetryPolicy,
    ScanKey,
    TransientStorageError,
)
from repro.core.rowrange import RangeList
from repro.engine.explain import render_analyze
from repro.lake import LakeScanner, LakeTable
from repro.obs import MetricsRegistry, Tracer
from repro.predicates import parse_predicate
from repro.storage import ColumnSpec, DataType, TableSchema
from repro.storage.compression import array_checksum, choose_codec, decode_block


def make_engine(num_slices=1, rows_per_block=32, rows=200, tracer=None):
    db = Database(num_slices=num_slices, rows_per_block=rows_per_block)
    db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))
    engine = QueryEngine(db, predicate_cache=PredicateCache(), tracer=tracer)
    engine.insert("t", {"x": np.arange(rows)})
    return db, engine


def make_lake(num_files=2, rows_per_file=400, rows_per_group=100, seed=0):
    table = LakeTable("events", rows_per_group=rows_per_group)
    rng = np.random.default_rng(seed)
    for _ in range(num_files):
        table.append_file(
            {
                "k": np.sort(rng.integers(0, 100, rows_per_file)),
                "v": rng.random(rows_per_file).round(4),
            }
        )
    return table


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        kwargs = dict(error_rate=0.2, corruption_rate=0.1, latency_rate=0.3)
        a = FaultInjector(seed=42, **kwargs)
        b = FaultInjector(seed=42, **kwargs)
        assert [a.draw() for _ in range(500)] == [b.draw() for _ in range(500)]
        assert a.errors_injected == b.errors_injected
        assert a.corruptions_injected == b.corruptions_injected
        assert a.latency_injected_seconds == b.latency_injected_seconds

    def test_different_seed_different_decisions(self):
        a = FaultInjector(seed=1, error_rate=0.3)
        b = FaultInjector(seed=2, error_rate=0.3)
        assert [a.draw() for _ in range(200)] != [b.draw() for _ in range(200)]

    def test_zero_rates_always_clean(self):
        injector = FaultInjector(seed=7)
        assert all(injector.draw().clean for _ in range(100))
        assert injector.reads_seen == 100
        assert injector.errors_injected == 0

    def test_schedule_pins_faults_to_reads(self):
        injector = FaultInjector(
            schedule={1: "error", 3: "corrupt", 5: "latency"}, latency_seconds=0.5
        )
        decisions = [injector.draw() for _ in range(7)]
        assert [d.fail for d in decisions] == [
            False, True, False, False, False, False, False
        ]
        assert decisions[3].corrupt
        assert decisions[5].latency_seconds == 0.5
        assert injector.errors_injected == 1
        assert injector.corruptions_injected == 1
        assert injector.latency_injected_seconds == 0.5

    def test_rejects_bad_rates_and_kinds(self):
        with pytest.raises(ValueError):
            FaultInjector(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(corruption_rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(schedule={0: "meteor"}).draw()

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(100, dtype=np.int64),
            np.linspace(0.0, 1.0, 50),
            np.array(["alpha", "beta", "gamma"], dtype=object),
            np.array([5], dtype=np.int64),
            np.array([], dtype=np.int64),
        ],
    )
    def test_corruption_is_detectable_and_nonmutating(self, values):
        injector = FaultInjector(seed=3)
        original = values.copy()
        clean_sum = array_checksum(values)
        for _ in range(20):
            corrupted = injector.corrupt_array(values)
            assert array_checksum(corrupted) != clean_sum
            np.testing.assert_array_equal(values, original)


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_backoff_seconds=0.01,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.05,
            jitter=0.0,
        )
        delays = [policy.backoff_seconds(i, u=0.0) for i in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_backoff_seconds=0.01, jitter=0.5)
        assert policy.backoff_seconds(0, u=0.0) == pytest.approx(0.005)
        assert policy.backoff_seconds(0, u=1.0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure("f")
        breaker.record_failure("f")
        assert breaker.allow("f")
        breaker.record_success("f")  # resets the consecutive count
        breaker.record_failure("f")
        breaker.record_failure("f")
        assert not breaker.is_open("f")
        assert breaker.trips == 0

    def test_trips_cools_down_and_recovers(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=2)
        breaker.record_failure("f")
        breaker.record_failure("f")
        assert breaker.is_open("f")
        assert breaker.trips == 1
        # Cool-down: denied for cooldown_ticks calls, then a probe.
        assert not breaker.allow("f")
        assert not breaker.allow("f")
        assert breaker.allow("f")
        assert breaker.state_of("f") == "half-open"
        assert breaker.short_circuits == 2
        breaker.record_success("f")
        assert breaker.state_of("f") == "closed"
        assert breaker.recoveries == 1

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=1)
        breaker.record_failure("f")
        assert not breaker.allow("f")
        assert breaker.allow("f")  # half-open probe
        breaker.record_failure("f")
        assert breaker.is_open("f")
        assert breaker.trips == 2

    def test_keys_are_independent_and_forgettable(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("a")
        assert breaker.is_open("a")
        assert breaker.allow("b")
        breaker.forget("a")
        assert breaker.allow("a")


class TestBlockChecksums:
    @pytest.mark.parametrize(
        "values",
        [
            np.arange(500, dtype=np.int64),
            np.arange(500, dtype=np.int32),  # FOR codec widens to int64
            np.full(100, 7, dtype=np.int64),  # constant-encoded
            np.linspace(0, 1, 64),
            np.array(["x", "yy", "zzz"] * 10, dtype=object),
        ],
    )
    def test_checksum_covers_decoded_form(self, values):
        block = choose_codec(values)
        assert block.checksum is not None
        assert array_checksum(decode_block(block)) == block.checksum

    def test_truncation_is_caught(self):
        values = np.arange(100, dtype=np.int64)
        assert array_checksum(values[:50]) != array_checksum(values)


class TestManagedStorageResilience:
    def test_transient_error_is_retried_transparently(self):
        db, engine = make_engine()
        expected = engine.execute("select count(*) as c from t where x < 150").scalar()
        db.attach_faults(FaultInjector(schedule={0: "error"}))
        db.rms.clear()  # force remote refetches
        result = engine.execute("select count(*) as c from t where x < 150")
        assert result.scalar() == expected
        assert result.counters.storage_faults == 1
        assert result.counters.storage_retries == 1
        assert result.counters.retry_giveups == 0
        assert result.counters.backoff_seconds > 0.0
        assert result.counters.model_seconds >= result.counters.backoff_seconds

    def test_corrupt_fetch_is_detected_and_retried(self):
        db, engine = make_engine()
        expected = engine.execute("select sum(x) as s from t").scalar()
        db.attach_faults(FaultInjector(seed=5, schedule={0: "corrupt", 2: "corrupt"}))
        db.rms.clear()
        result = engine.execute("select sum(x) as s from t")
        assert result.scalar() == expected
        assert result.counters.corrupt_blocks == 2
        assert result.counters.storage_retries == 2

    def test_injected_latency_is_model_time(self):
        db, engine = make_engine()
        db.attach_faults(FaultInjector(schedule={0: "latency"}, latency_seconds=0.25))
        db.rms.clear()
        result = engine.execute("select count(*) as c from t where x >= 0")
        assert result.counters.backoff_seconds >= 0.25
        assert result.counters.model_seconds >= 0.25

    def test_persistent_fault_exhausts_attempts(self):
        db, engine = make_engine()
        db.attach_faults(
            FaultInjector(schedule={0: "error", 1: "error"}),
            RetryPolicy(max_attempts=2),
        )
        db.rms.clear()
        with pytest.raises(TransientStorageError):
            engine.execute("select count(*) as c from t where x >= 0")
        assert db.rms.stats.retry_giveups == 1

    def test_retry_budget_exhaustion_raises(self):
        db, engine = make_engine()
        db.attach_faults(
            FaultInjector(schedule={0: "error"}),
            RetryPolicy(max_attempts=4, retry_budget=0),
        )
        db.rms.clear()
        with pytest.raises(RetryBudgetExceeded):
            engine.execute("select count(*) as c from t where x >= 0")

    def test_retry_budget_resets_per_query(self):
        db, engine = make_engine()
        # One retry allowed per query; each query hits exactly one error.
        db.attach_faults(
            FaultInjector(schedule={0: "error", 40: "error"}),
            RetryPolicy(max_attempts=4, retry_budget=1),
        )
        db.rms.clear()
        expected = 200
        assert engine.execute("select count(*) as c from t where x >= 0").scalar() == expected
        db.rms.clear()
        # Skip schedule indices forward to the second query's fetches.
        db.rms.fault_injector.reads_seen = 40
        assert engine.execute("select count(*) as c from t where x >= 0").scalar() == expected
        assert db.rms.stats.retry_giveups == 0

    def test_resilience_metrics_exported(self):
        db, engine = make_engine()
        db.attach_faults(FaultInjector(schedule={0: "error"}))
        db.rms.clear()
        registry = MetricsRegistry()
        db.register_metrics(registry)
        engine.execute("select count(*) as c from t where x >= 0")
        text = registry.render_prometheus()
        assert "repro_storage_transient_errors_total 1" in text
        assert "repro_storage_retries_total 1" in text
        assert "repro_storage_backoff_model_seconds_total" in text


class TestStaleGenerationInstalls:
    """Satellite (c): lookup -> vacuum -> install must not resurrect."""

    def test_install_after_invalidation_is_refused(self):
        cache = PredicateCache(PredicateCacheConfig(variant="range"))
        key = ScanKey("t", "x < 10")
        entry = cache.get_or_create(key, num_slices=2)
        cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 10)
        assert entry.slice_states[0] is not None

        cache.invalidate_table("t")  # the vacuum
        assert key not in cache

        # The scan still holds the old entry and tries to install its
        # second slice: the write must be dropped, not resurrected.
        cache.record_slice_scan(entry, 1, RangeList([(0, 5)]), 10)
        assert key not in cache
        assert len(cache) == 0
        assert cache.stats.stale_installs == 1

    def test_generation_stamp_blocks_cross_generation_install(self):
        cache = PredicateCache(PredicateCacheConfig(variant="bitmap"))
        key = ScanKey("t", "x < 10")
        old = cache.get_or_create(key, num_slices=1)
        assert old.generation == 0
        cache.invalidate_table("t")
        fresh = cache.get_or_create(key, num_slices=1)
        assert fresh.generation == 1

        # Old-generation object: refused even though the key is live again.
        cache.record_slice_scan(old, 0, RangeList([(0, 5)]), 10)
        assert cache.stats.stale_installs == 1
        assert fresh.slice_states[0] is None

        # The fresh entry installs normally.
        cache.record_slice_scan(fresh, 0, RangeList([(0, 5)]), 10)
        assert fresh.slice_states[0] is not None

    def test_clear_bumps_generation(self):
        cache = PredicateCache()
        key = ScanKey("t", "x < 10")
        entry = cache.get_or_create(key, num_slices=1)
        cache.clear()
        cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 10)
        assert cache.stats.stale_installs == 1
        assert cache.get_or_create(key, 1).generation == entry.generation + 1

    def test_engine_vacuum_between_queries_never_resurrects(self):
        _, engine = make_engine(num_slices=2)
        cache = engine.predicate_cache
        sql = "select count(*) as c from t where x < 50"
        expected = engine.execute(sql).scalar()
        stale_entry = cache.entries()[0]
        engine.delete_where("t", parse_predicate("x = 199"))
        engine.vacuum(["t"])  # layout change drops + generation-bumps
        assert len(cache) == 0
        cache.record_slice_scan(stale_entry, 0, RangeList([(0, 5)]), 10)
        assert len(cache) == 0
        assert cache.stats.stale_installs == 1
        assert engine.execute(sql).scalar() == expected


class TestDegradedScan:
    def test_inconsistent_entry_dropped_and_rescanned(self):
        """A cached watermark beyond the slice's rows (a missed
        invalidation) must degrade to a full scan, not error."""
        _, engine = make_engine(num_slices=2, rows=400)
        cache = engine.predicate_cache
        sql = "select count(*) as c from t where x < 100"
        expected = engine.execute(sql).scalar()

        entry = cache.entries()[0]
        for state in entry.slice_states:
            if state is not None:
                state.last_cached_row = 10**9  # rows that do not exist

        result = engine.execute(sql)
        assert result.scalar() == expected
        assert result.counters.degraded_scans >= 1
        assert cache.stats.invalidations >= 1
        # The degraded scan's own install attempt is refused (its entry
        # object is the dropped one), so the cache is empty now ...
        assert len(cache) == 0
        assert cache.stats.stale_installs >= 1

        # ... and the next scan rebuilds a sound entry from scratch.
        again = engine.execute(sql)
        assert again.scalar() == expected
        assert again.counters.degraded_scans == 0
        assert len(cache) == 1

    def test_dropped_entry_slices_report_a_full_scan(self):
        """The probe hit, but the stale entry was dropped before any
        slice ran: every slice span (and so EXPLAIN ANALYZE) must say
        the slice scanned in full, not that the entry served it."""
        _, engine = make_engine(num_slices=2, rows=400, tracer=Tracer())
        sql = "select count(*) as c from t where x < 100"
        engine.execute(sql)
        for state in engine.predicate_cache.entries()[0].slice_states:
            if state is not None:
                state.last_cached_row = 10**9

        result = engine.execute(sql)
        assert result.counters.degraded_scans == 1
        assert result.trace.find("cache-lookup").attrs["outcome"] == "hit"
        bases = [
            result.trace.find(f"scan[slice {i}]").attrs["cache_basis"]
            for i in range(2)
        ]
        assert bases == ["full", "full"]
        assert "cache_basis=plain" not in render_analyze(result.trace)


class TestLakeResilience:
    def test_zero_rate_injector_is_transparent(self):
        table = make_lake(seed=11)
        pred = parse_predicate("k < 30")
        plain_out, plain_stats = LakeScanner(table).scan(pred, ["k", "v"])
        armed = LakeScanner(table, fault_injector=FaultInjector(seed=1))
        out, stats = armed.scan(pred, ["k", "v"])
        np.testing.assert_array_equal(out["k"], plain_out["k"])
        np.testing.assert_array_equal(out["v"], plain_out["v"])
        assert stats.row_groups_read == plain_stats.row_groups_read
        assert stats.retries == 0 and stats.degraded_files == 0

    def test_transient_chunk_error_is_retried(self):
        table = make_lake(seed=12)
        pred = parse_predicate("k < 30")
        expected, _ = LakeScanner(table).scan(pred, ["k"])
        scanner = LakeScanner(
            table, fault_injector=FaultInjector(schedule={0: "error", 4: "error"})
        )
        out, stats = scanner.scan(pred, ["k"])
        np.testing.assert_array_equal(out["k"], expected["k"])
        assert stats.transient_errors == 2
        assert stats.retries == 2
        assert stats.backoff_model_seconds > 0.0

    def test_corrupt_chunk_is_detected(self):
        table = make_lake(seed=13)
        pred = parse_predicate("k >= 60")
        expected, _ = LakeScanner(table).scan(pred, ["k", "v"])
        scanner = LakeScanner(
            table, fault_injector=FaultInjector(seed=2, schedule={1: "corrupt"})
        )
        out, stats = scanner.scan(pred, ["k", "v"])
        np.testing.assert_array_equal(out["k"], expected["k"])
        np.testing.assert_array_equal(out["v"], expected["v"])
        assert stats.corrupt_chunks == 1
        assert stats.retries == 1

    def test_persistent_fault_degrades_cached_scan(self):
        table = make_lake(num_files=2, seed=14)
        pred = parse_predicate("k between 20 and 40")
        reference = LakeScanner(table)
        expected, _ = reference.scan(pred, ["k", "v"])

        scanner = LakeScanner(table, retry_policy=RetryPolicy(max_attempts=1))
        scanner.scan(pred, ["k", "v"])  # warm the cache fault-free
        # One attempt per read, and the warm scan's first fetch errors:
        # the cached-bits path must fail and degrade to a full rescan.
        scanner.attach_faults(FaultInjector(schedule={0: "error"}))
        out, stats = scanner.scan(pred, ["k", "v"])
        np.testing.assert_array_equal(out["k"], expected["k"])
        np.testing.assert_array_equal(out["v"], expected["v"])
        assert stats.cache_hit
        assert stats.degraded_files == 1
        assert scanner.degraded_scans == 1
        assert scanner.cache.stats.invalidations >= 1
        assert scanner.storage.stats.retry_giveups == 1

        # The full rescan relearned the file's bits: next scan is clean.
        out2, stats2 = scanner.scan(pred, ["k", "v"])
        np.testing.assert_array_equal(out2["k"], expected["k"])
        assert stats2.degraded_files == 0
        assert stats2.row_groups_skipped_cache > 0

    def test_breaker_routes_around_cache_then_recovers(self):
        table = make_lake(num_files=1, seed=15)
        pred = parse_predicate("k < 50")
        expected, _ = LakeScanner(table).scan(pred, ["k"])

        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=1)
        scanner = LakeScanner(
            table, retry_policy=RetryPolicy(max_attempts=1), breaker=breaker
        )
        scanner.scan(pred, ["k"])  # warm
        scanner.attach_faults(FaultInjector(schedule={0: "error"}))
        out, stats = scanner.scan(pred, ["k"])  # degrades, trips the breaker
        np.testing.assert_array_equal(out["k"], expected["k"])
        assert stats.degraded_files == 1
        assert breaker.trips == 1

        file_id = table.current_snapshot.file_ids[0]
        assert breaker.is_open(file_id)
        out, stats = scanner.scan(pred, ["k"])  # open: cache bypassed
        np.testing.assert_array_equal(out["k"], expected["k"])
        assert stats.files_short_circuited == 1
        assert stats.row_groups_skipped_cache == 0

        out, stats = scanner.scan(pred, ["k"])  # half-open probe succeeds
        np.testing.assert_array_equal(out["k"], expected["k"])
        assert stats.files_short_circuited == 0
        assert breaker.recoveries == 1
        assert breaker.state_of(file_id) == "closed"

    def test_scanner_metrics_exported(self):
        table = make_lake(seed=16)
        scanner = LakeScanner(table, fault_injector=FaultInjector(schedule={0: "error"}))
        registry = MetricsRegistry()
        scanner.register_metrics(registry)
        scanner.scan(parse_predicate("k < 10"), ["k"])
        text = registry.render_prometheus()
        assert 'repro_lake_cache_transient_errors_total{table="events"} 1' in text
        assert 'repro_lake_cache_retries_total{table="events"} 1' in text


class TestFaultMetricsRegistration:
    def test_injector_and_breaker_render(self):
        registry = MetricsRegistry()
        injector = FaultInjector(schedule={0: "error"})
        breaker = CircuitBreaker(failure_threshold=1)
        injector.register_metrics(registry)
        breaker.register_metrics(registry)
        injector.draw()
        breaker.record_failure("f")
        text = registry.render_prometheus()
        assert "repro_faults_errors_injected_total 1" in text
        assert "repro_breaker_trips_total 1" in text
        assert "repro_breaker_open_circuits 1" in text
