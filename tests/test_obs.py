"""The observability layer: metrics, tracing, EXPLAIN ANALYZE."""

import json

import numpy as np
import pytest

from repro import (
    ClusterCaches,
    Database,
    MetricsRegistry,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    Tracer,
)
from repro.engine.counters import QueryCounters
from repro.engine.explain import render_analyze
from repro.engine.plan import ScanNode
from repro.obs import Histogram
from repro.storage import ColumnSpec, DataType, TableSchema


def make_engine(**engine_kwargs):
    db = Database(num_slices=2, rows_per_block=100)
    db.create_table(
        TableSchema(
            "lineitem",
            (
                ColumnSpec("quantity", DataType.INT64),
                ColumnSpec("discount", DataType.INT64),
                ColumnSpec("price", DataType.INT64),
            ),
        )
    )
    engine = QueryEngine(db, **engine_kwargs)
    rng = np.random.default_rng(11)
    engine.insert(
        "lineitem",
        {
            "quantity": rng.integers(1, 50, 4000),
            "discount": rng.integers(0, 100, 4000),
            "price": rng.integers(1, 1000, 4000),
        },
    )
    return engine


Q6 = (
    "select sum(price) as revenue from lineitem "
    "where discount < 10 and quantity < 24"
)


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        # Same name, different labels -> distinct series.
        assert reg.counter("a_total", labels={"node": "0"}) is not reg.counter(
            "a_total", labels={"node": "1"}
        )

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")

    def test_callback_instruments_read_live_state(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        g = reg.gauge("live", fn=lambda: state["v"])
        assert g.value == 1
        state["v"] = 7
        assert g.value == 7
        with pytest.raises(ValueError):
            g.set(3)  # callback-backed gauges are read-only

    def test_histogram_buckets(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 100.0):
            h.observe(v)
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.count == 5
        assert h.sum == pytest.approx(106.05)

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Cache hits", labels={"node": "0"}).inc(3)
        reg.gauge("repro_bytes", "Payload bytes").set(42)
        h = reg.histogram("repro_seconds", "Latency", buckets=(0.5, 1.0))
        h.observe(0.2)
        text = reg.render_prometheus()
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{node="0"} 3' in text
        assert "repro_bytes 42" in text
        assert 'repro_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_seconds_count 1" in text

    def test_as_dict_flattens_series(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels={"node": "1"}).inc(2)
        flat = reg.as_dict()
        assert flat['c_total{node="1"}'] == 2


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("query") as q:
            with tracer.span("parse"):
                pass
            with tracer.span("execute") as e:
                e.set("rows", 5)
        assert [c.name for c in q.children] == ["parse", "execute"]
        assert q.children[1].attrs["rows"] == 5
        assert q.duration_s >= q.children[0].duration_s

    def test_exception_closes_and_annotates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        root = tracer.last_root
        assert root.end_s is not None
        assert "RuntimeError" in root.attrs["error"]

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        root = tracer.last_root
        assert [s.name for s in root.walk()] == ["a", "b", "c"]
        assert root.find("c").name == "c"
        assert root.find("zzz") is None

    def test_json_export_round_trips(self):
        tracer = Tracer()
        with tracer.span("query", sql="select 1"):
            pass
        data = json.loads(tracer.to_json())
        assert data["spans"][0]["name"] == "query"
        assert data["spans"][0]["attrs"]["sql"] == "select 1"

    def test_chrome_trace_events(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("scan"):
                pass
        trace = tracer.to_chrome_trace()
        events = trace["traceEvents"]
        assert {e["name"] for e in events} == {"query", "scan"}
        assert all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events)
        json.dumps(trace)  # must be serializable as-is


class TestEngineIntegration:
    def test_result_trace_attached(self):
        engine = make_engine(tracer=Tracer())
        result = engine.execute(Q6)
        assert result.trace is not None
        assert result.trace.name == "query"
        names = [s.name for s in result.trace.walk()]
        assert "parse" in names and "plan" in names and "execute" in names

    def test_no_tracer_no_trace(self):
        engine = make_engine()
        assert engine.execute(Q6).trace is None

    def test_failed_execute_plan_closes_its_span(self):
        """A direct ``execute_plan`` that raises must not leave its
        ``execute`` span open: the next query would be attached under
        the dead span instead of becoming a root."""
        tracer = Tracer()
        engine = make_engine(tracer=tracer)
        with pytest.raises(KeyError):
            engine.execute_plan(ScanNode("no_such_table"))
        assert tracer._stack == []
        assert "KeyError" in tracer.roots[0].attrs["error"]
        result = engine.execute_plan(ScanNode("lineitem"))
        assert result.num_rows == 4000
        assert tracer._stack == []
        # ``output`` is the second query's sibling span, as on any
        # direct execute_plan call.
        assert [root.name for root in tracer.roots] == [
            "execute", "execute", "output",
        ]
        assert result.trace is tracer.roots[1]

    def test_scan_slices_and_cache_lookup_traced(self):
        cache = PredicateCache(PredicateCacheConfig(variant="range"))
        engine = make_engine(predicate_cache=cache, tracer=Tracer())
        runs = [engine.execute(Q6) for _ in ("cold", "warm")]
        for result in runs:
            # One closed span per slice, in slice order; together they
            # read every block the statement read.
            slices = [s for s in result.trace.walk() if s.name.startswith("scan[slice")]
            assert [s.name for s in slices] == ["scan[slice 0]", "scan[slice 1]"]
            assert all(s.end_s is not None and s.end_s >= s.start_s for s in slices)
            fetched = [s.attrs["blocks_fetched"] for s in slices]
            assert all(n > 0 for n in fetched)
            assert sum(fetched) == result.counters.blocks_accessed
        trace = runs[1].trace
        lookup = trace.find("cache-lookup")
        assert lookup.attrs["outcome"] == "hit"
        assert lookup.attrs["basis"] == "plain"
        slice0 = trace.find("scan[slice 0]")
        assert slice0.attrs["cache_basis"] == "plain"
        assert slice0.attrs["rows_skipped_cache"] > 0
        assert runs[0].trace.find("scan[slice 0]").attrs["cache_basis"] == "full"
        # ``exact`` says whether the hit took an exact state's verdict.
        (entry,) = cache.entries()
        assert slice0.attrs["exact"] is entry.slice_states[0].exact
        assert runs[0].trace.find("scan[slice 0]").attrs["exact"] is False
        # ``visibility`` says whether the slice's MVCC summary answered
        # for every row or the scan checked them one by one: after a
        # DELETE, later readers check rows.
        assert [s.attrs["visibility"] for s in slices] == ["summary", "summary"]
        engine.execute("DELETE FROM lineitem WHERE quantity = 7")
        after = engine.execute(Q6).trace
        assert [
            after.find(f"scan[slice {i}]").attrs["visibility"] for i in (0, 1)
        ] == ["rows", "rows"]

    def test_explain_analyze_cached_repeat(self):
        """The acceptance scenario: TPC-H Q6-style scan, cached repeat."""
        cache = PredicateCache(PredicateCacheConfig(variant="range"))
        engine = make_engine(predicate_cache=cache)
        engine.execute(Q6)  # cold: fills the cache
        text = engine.explain_analyze(Q6)
        assert "outcome=hit" in text
        assert "cache_basis=plain exact=True visibility=summary" in text
        assert "rows_skipped_cache=" in text
        assert "blocks_fetched=" in text
        assert "Scan(lineitem" in text
        assert "Totals:" in text

    def test_explain_analyze_shows_a_repeated_text_parsed_once(self):
        engine = make_engine()

        def parse_line(text):
            lines = text.splitlines()
            (line,) = [row for row in lines if row.lstrip().startswith("parse ")]
            return line

        assert "cached=False" in parse_line(engine.explain_analyze(Q6))
        assert "cached=True" in parse_line(engine.explain_analyze(Q6))
        assert "cached=False" in parse_line(engine.explain_analyze(Q6 + " "))

    def test_explain_analyze_leaves_engine_untraced(self):
        engine = make_engine()
        engine.explain_analyze(Q6)
        assert engine.tracer is None
        assert engine.execute(Q6).trace is None

    def test_explain_analyze_never_touches_the_engines_tracer(self):
        # What a statement running concurrently on the same engine sees
        # mid-explain: the engine's own tracer, never the one-off one.
        own = Tracer()
        engine = make_engine(tracer=own)
        seen = []
        run = engine._executor.execute

        def spying(plan, statement):
            seen.append((engine.tracer, statement.trace))
            return run(plan, statement)

        engine._executor.execute = spying
        text = engine.explain_analyze(Q6)
        assert "Scan(lineitem" in text
        ((during, used),) = seen
        assert during is own and engine.tracer is own
        assert used.roots is not own.roots
        assert own.roots == []

    def test_render_analyze_requires_trace(self):
        with pytest.raises(ValueError):
            render_analyze(None)

    def test_query_metrics_recorded(self):
        reg = MetricsRegistry()
        cache = PredicateCache()
        engine = make_engine(predicate_cache=cache, metrics=reg)
        engine.execute(Q6)
        engine.execute(Q6)
        flat = reg.as_dict()
        assert flat["repro_queries_total"] == 2
        assert flat["repro_query_rows_scanned_total"] > 0
        assert reg.get("repro_predicate_cache_hits_total").value == 1
        assert reg.get("repro_query_seconds").count == 2
        assert flat["repro_storage_blocks_accessed_total"] > 0

    def test_result_cache_hit_metric(self):
        from repro.baselines.result_cache import ResultCache

        reg = MetricsRegistry()
        engine = make_engine(result_cache=ResultCache(), metrics=reg)
        engine.execute(Q6)
        result = engine.execute(Q6)
        assert result.counters.result_cache_hit
        assert reg.get("repro_result_cache_hits_total").value == 1


class TestComponentRegistration:
    def test_cluster_caches_register_per_node(self):
        cluster = ClusterCaches(num_nodes=2)
        reg = MetricsRegistry()
        cluster.register_metrics(reg)
        assert reg.get(
            "repro_predicate_cache_hits_total", labels={"node": "0"}
        ) is not None
        assert reg.get("repro_predicate_cache_cluster_nodes").value == 2
        # fail_node swaps the cache object; scrape must follow the router.
        node0 = cluster.node(0)
        node0.stats.hits = 9
        cluster.fail_node(0)
        assert (
            reg.get(
                "repro_predicate_cache_hits_total", labels={"node": "0"}
            ).value
            == 0
        )

    def test_cluster_registers_reuse_series_per_node(self):
        """The per-cache series are defined once: a cluster exposes the
        reuse family per node too, and it counts a composed serve."""
        config = PredicateCacheConfig(variant="range", enable_reuse=True)
        cluster = ClusterCaches(num_nodes=2, config=config)
        reg = MetricsRegistry()
        engine = make_engine(predicate_cache=cluster, metrics=reg)
        a, b = "discount < 10", "quantity < 24"
        for where in (a, b, f"{a} and {b}"):
            engine.execute(f"select sum(price) as r from lineitem where {where}")
        bare = MetricsRegistry()
        PredicateCache().register_metrics(bare)
        reuse_names = {n.split("{")[0] for n in bare.as_dict() if "_reuse_" in n}
        assert len(reuse_names) == 4  # lookups, hits, composed and subsumed serves
        for name in reuse_names:
            for node in ("0", "1"):
                assert reg.get(name, labels={"node": node}) is not None, name
        composed = [
            reg.get("repro_reuse_composed_serves_total", labels={"node": n}).value
            for n in ("0", "1")
        ]
        assert composed == [c.reuse_stats.composed_serves for c in cluster.nodes()]
        assert sum(composed) >= 1

    def test_lake_scanner_registers(self):
        from repro.lake import LakeScanner, LakeTable

        table = LakeTable("events", rows_per_group=50)
        table.append_file({"k": np.arange(100), "v": np.arange(100)})
        scanner = LakeScanner(table)
        reg = MetricsRegistry()
        scanner.register_metrics(reg)
        from repro.predicates import parse_predicate

        scanner.scan(parse_predicate("k < 10"), ["v"])
        scanner.scan(parse_predicate("k < 10"), ["v"])
        labels = {"table": "events"}
        assert reg.get("repro_lake_cache_lookups_total", labels=labels).value == 2
        assert reg.get("repro_lake_cache_hits_total", labels=labels).value == 1
        assert reg.get("repro_lake_cache_entries", labels=labels).value == 1

    def test_database_storage_metrics(self):
        engine = make_engine()
        reg = MetricsRegistry()
        engine.database.register_metrics(reg)
        engine.execute(Q6)
        flat = reg.as_dict()
        assert flat["repro_storage_tables"] == 1
        assert flat["repro_storage_blocks_sealed"] > 0
        assert flat["repro_storage_blocks_accessed_total"] > 0
        assert flat["repro_storage_compressed_nbytes"] > 0


class TestCounters:
    def test_every_numeric_field_has_a_total_series(self):
        """The engine derives its ``repro_query_<field>_total`` list from
        the dataclass; a field without a series shows up here."""
        reg = MetricsRegistry()
        engine = make_engine(metrics=reg)
        numeric = [
            name
            for name, value in vars(QueryCounters()).items()
            if not isinstance(value, bool)
        ]
        assert sorted(engine._m_counter_totals) == sorted(numeric)
        for name in numeric:
            assert reg.get(f"repro_query_{name}_total") is not None, name

    def test_snapshot_delta(self):
        c = QueryCounters(rows_scanned=10)
        before = c.snapshot()
        c.rows_scanned += 5
        c.cache_hits += 1
        assert c.delta(before) == {"rows_scanned": 5, "cache_hits": 1}
