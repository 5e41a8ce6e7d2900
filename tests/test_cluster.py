"""Multi-node per-node caches (§3.4 "lightweight", §4.6 per-node state)."""

import numpy as np
import pytest

from repro import Database, PredicateCache, PredicateCacheConfig, QueryEngine
from repro.cluster import ClusterCaches
from repro.cluster.caches import DownedCache
from repro.core import CostBasedPolicy
from repro.faults import NodeDownError
from repro.storage import ColumnSpec, DataType, TableSchema


def make_cluster(num_slices=8, num_nodes=4, **config):
    db = Database(num_slices=num_slices, rows_per_block=100)
    db.create_table(
        TableSchema("t", (ColumnSpec("x", DataType.INT64), ColumnSpec("v", DataType.FLOAT64)))
    )
    caches = ClusterCaches(
        num_nodes=num_nodes,
        config=PredicateCacheConfig(variant="bitmap", bitmap_block_rows=100, **config),
    )
    engine = QueryEngine(db, predicate_cache=caches)
    rng = np.random.default_rng(3)
    engine.insert(
        "t", {"x": np.sort(rng.integers(0, 1000, 40_000)), "v": rng.random(40_000)}
    )
    return engine, caches


class TestRouting:
    def test_slices_route_round_robin(self):
        caches = ClusterCaches(num_nodes=3)
        assert caches.cache_for_slice(0) is caches.node(0)
        assert caches.cache_for_slice(4) is caches.node(1)
        assert caches.cache_for_slice(5) is caches.node(2)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ClusterCaches(num_nodes=0)

    def test_results_identical_to_single_cache(self):
        engine, _ = make_cluster()
        single_db = Database(num_slices=8, rows_per_block=100)
        single_db.create_table(
            TableSchema("t", (ColumnSpec("x", DataType.INT64), ColumnSpec("v", DataType.FLOAT64)))
        )
        from repro import PredicateCache

        single = QueryEngine(
            single_db,
            predicate_cache=PredicateCache(
                PredicateCacheConfig(variant="bitmap", bitmap_block_rows=100)
            ),
        )
        rng = np.random.default_rng(3)
        single.insert(
            "t", {"x": np.sort(rng.integers(0, 1000, 40_000)), "v": rng.random(40_000)}
        )
        for sql in (
            "select count(*) as c from t where x < 50",
            "select count(*) as c from t where x < 50",
            "select sum(v) as s from t where x between 200 and 220",
        ):
            assert engine.execute(sql).scalar() == pytest.approx(
                single.execute(sql).scalar()
            )

        # Third twin: a one-node router *is* the bare cache.  The scan
        # path addresses both through cache_for_slice()/nodes(), so every
        # observable must agree exactly — results, query counters, cache
        # stats, footprint, and what the admission policy saw.
        from repro import PredicateCache

        config = PredicateCacheConfig(variant="bitmap", bitmap_block_rows=100)
        bare_cache = PredicateCache(config, policy=CostBasedPolicy())
        router = ClusterCaches(1, config=config, policy_factory=CostBasedPolicy)
        twins = []
        for cache in (bare_cache, router):
            db = Database(num_slices=8, rows_per_block=100)
            db.create_table(
                TableSchema("t", (ColumnSpec("x", DataType.INT64), ColumnSpec("v", DataType.FLOAT64)))
            )
            twin = QueryEngine(db, predicate_cache=cache)
            rng = np.random.default_rng(3)
            twin.insert(
                "t", {"x": np.sort(rng.integers(0, 1000, 40_000)), "v": rng.random(40_000)}
            )
            twins.append(twin)
        bare, routed = twins
        statements = [
            "select count(*) as c from t where x < 50",
            "select count(*) as c from t where x < 50",
            "select sum(v) as s from t where x between 200 and 220",
            "select count(*) as c from t where x < 50",
            None,  # an insert: the next repeat extends the entry's tail
            "select count(*) as c from t where x < 50",
            "select x, v from t where x between 200 and 220",
        ]
        for sql in statements:
            if sql is None:
                for twin in twins:
                    twin.insert("t", {"x": np.arange(40), "v": np.zeros(40)})
                continue
            a, b = bare.execute(sql), routed.execute(sql)
            assert a.rows() == b.rows(), sql
            for name in (
                "blocks_accessed", "rows_scanned", "cache_hits",
                "cache_misses", "degraded_scans",
            ):
                assert getattr(a.counters, name) == getattr(b.counters, name), (sql, name)
        node = router.node(0)
        assert router.nodes() == [node] and bare_cache.nodes() == [bare_cache]
        assert bare_cache.cache_for_slice(5) is bare_cache
        assert vars(node.stats) == vars(bare_cache.stats)
        assert vars(router.aggregate_stats()) == vars(bare_cache.stats)
        assert bare_cache.stats.hits > 0 and bare_cache.stats.extensions > 0
        assert len(router) == len(bare_cache) > 0
        assert router.total_nbytes == bare_cache.total_nbytes > 0

        def sightings(policy):
            return {
                key: (seen.sightings, seen.selectivity)
                for key, seen in policy._observations.items()
            }

        assert sightings(node.policy) == sightings(bare_cache.policy) != {}
        assert node.policy.admissions == bare_cache.policy.admissions > 0
        assert node.policy.rejections == bare_cache.policy.rejections > 0


class TestPerNodeState:
    def test_each_node_holds_only_its_slices(self):
        engine, caches = make_cluster(num_slices=8, num_nodes=4)
        engine.execute("select count(*) as c from t where x < 50")
        for node_id in range(4):
            entries = caches.node(node_id).entries()
            assert len(entries) == 1
            states = entries[0].slice_states
            owned = {s for s in range(8) if s % 4 == node_id}
            for slice_id, state in enumerate(states):
                if slice_id in owned:
                    assert state is not None
                else:
                    assert state is None

    def test_memory_is_balanced(self):
        engine, caches = make_cluster()
        engine.execute("select count(*) as c from t where x < 100")
        sizes = caches.per_node_nbytes()
        assert max(sizes) - min(sizes) <= 16

    def test_aggregate_stats(self):
        engine, caches = make_cluster()
        engine.execute("select count(*) as c from t where x < 100")
        engine.execute("select count(*) as c from t where x < 100")
        stats = caches.aggregate_stats()
        # One probe per (node, scan): 4 nodes x 2 scans.
        assert stats.lookups == 8
        assert stats.hits == 4
        assert stats.misses == 4

    def test_len_counts_distinct_keys(self):
        engine, caches = make_cluster()
        engine.execute("select count(*) as c from t where x < 100")
        engine.execute("select count(*) as c from t where x < 200")
        assert len(caches) == 2


class TestNodeFailure:
    def test_failure_relearns_only_that_node(self):
        engine, caches = make_cluster()
        sql = "select count(*) as c from t where x < 50"
        expected = engine.execute(sql).scalar()
        engine.execute(sql)

        survivors_bytes = [
            caches.node(i).total_nbytes for i in range(4) if i != 2
        ]
        caches.fail_node(2)
        assert caches.node(2).total_nbytes == 0

        after = engine.execute(sql)
        assert after.scalar() == expected
        # Survivors untouched; the replacement relearned its share.
        assert [
            caches.node(i).total_nbytes for i in range(4) if i != 2
        ] == survivors_bytes
        assert caches.node(2).total_nbytes > 0
        again = engine.execute(sql)
        assert again.scalar() == expected

    def test_failure_during_dml_lifecycle(self):
        engine, caches = make_cluster()
        sql = "select count(*) as c from t where x < 50"
        base = engine.execute(sql).scalar()
        engine.insert("t", {"x": [-5], "v": [0.5]})  # sentinel not in data
        caches.fail_node(0)
        assert engine.execute(sql).scalar() == base + 1
        engine.delete_where("t", __import__("repro").parse_predicate("x = -5"))
        assert engine.execute(sql).scalar() == base


class TestNodeFailureRegressions:
    def test_fail_node_preserves_policy_factory(self):
        """Regression: the replacement node must get a fresh policy from
        ``policy_factory``, not silently fall back to AlwaysAdmit."""
        caches = ClusterCaches(
            num_nodes=2,
            policy_factory=lambda: CostBasedPolicy(min_sightings=2),
        )
        original_policy = caches.node(1).policy
        replacement = caches.fail_node(1)
        assert isinstance(replacement.policy, CostBasedPolicy)
        assert replacement.policy is not original_policy
        assert replacement.policy is not caches.node(0).policy

    def test_failed_node_relearns_admission_from_scratch(self):
        db = Database(num_slices=2, rows_per_block=100)
        db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))
        caches = ClusterCaches(
            num_nodes=2,
            policy_factory=lambda: CostBasedPolicy(min_sightings=2),
        )
        engine = QueryEngine(db, predicate_cache=caches)
        engine.insert("t", {"x": np.arange(10_000)})
        sql = "select count(*) as c from t where x < 10"
        engine.execute(sql)
        engine.execute(sql)
        assert len(caches) == 1  # both nodes admitted after 2 sightings
        caches.fail_node(0)
        # The replacement's fresh policy needs its own two sightings.
        engine.execute(sql)
        assert len(caches.node(0)) == 0
        engine.execute(sql)
        assert len(caches.node(0)) == 1

    def test_metrics_follow_replacement_node(self):
        """Gauges are read through the router, so after fail_node they
        report the successor — per node and in the cluster rollups."""
        from repro.obs import MetricsRegistry

        engine, caches = make_cluster(num_slices=8, num_nodes=4)
        registry = MetricsRegistry()
        caches.register_metrics(registry)
        engine.execute("select count(*) as c from t where x < 50")

        def series(text, name, node=None):
            label = f'{{node="{node}"}}' if node is not None else ""
            for line in text.splitlines():
                if line.startswith(f"{name}{label} "):
                    return float(line.rsplit(" ", 1)[1])
            raise AssertionError(f"{name}{label} not found")

        before = registry.render_prometheus()
        assert series(before, "repro_predicate_cache_nbytes", node=2) > 0
        assert series(before, "repro_predicate_cache_lookups_total", node=2) == 1
        cluster_before = series(before, "repro_predicate_cache_cluster_nbytes")
        assert cluster_before == sum(caches.per_node_nbytes())

        caches.fail_node(2)
        after = registry.render_prometheus()
        # The dead node's series drop to the cold replacement ...
        assert series(after, "repro_predicate_cache_nbytes", node=2) == 0
        assert series(after, "repro_predicate_cache_lookups_total", node=2) == 0
        assert series(after, "repro_predicate_cache_entries", node=2) == 0
        # ... survivors are untouched, and the rollup re-aggregates.
        assert series(after, "repro_predicate_cache_nbytes", node=1) > 0
        assert series(after, "repro_predicate_cache_cluster_nbytes") == sum(
            caches.per_node_nbytes()
        )
        assert series(after, "repro_predicate_cache_cluster_nbytes") < cluster_before

        # After the replacement relearns its share, its gauges recover.
        engine.execute("select count(*) as c from t where x < 50")
        recovered = registry.render_prometheus()
        assert series(recovered, "repro_predicate_cache_nbytes", node=2) > 0


class TestResize:
    def test_resize_reshards_by_slice_routing(self):
        engine, caches = make_cluster(num_slices=8, num_nodes=4)
        sql = "select count(*) as c from t where x < 50"
        expected = engine.execute(sql).scalar()

        caches.resize(3)
        assert caches.num_nodes == 3
        # Every state moved to its new owner: slice s lives on node s % 3.
        for node_id in range(3):
            for entry in caches.node(node_id).entries():
                for slice_id, state in enumerate(entry.slice_states):
                    if state is not None:
                        assert slice_id % 3 == node_id
        assert caches.cache_for_slice(5) is caches.node(2)

        # Nothing was lost in the re-shard: first post-resize execution
        # is all hits and the answer is unchanged.
        result = engine.execute(sql)
        assert result.scalar() == expected
        assert result.counters.cache_hits > 0
        assert result.counters.cache_misses == 0

    def test_resize_shrink_and_grow_round_trip(self):
        engine, caches = make_cluster(num_slices=8, num_nodes=4)
        sql = "select count(*) as c from t where x < 50"
        expected = engine.execute(sql).scalar()
        for n in (1, 4, 2):
            caches.resize(n)
            result = engine.execute(sql)
            assert result.scalar() == expected, n
            assert result.counters.cache_misses == 0, n
        assert len(caches) == 1

    def test_resize_transfers_table_watches(self):
        """A vacuum right after a resize must still invalidate: each
        moved state keeps the layout stamp its old node held, so the
        first scan after the vacuum drops it on the new nodes instead of
        serving it."""
        engine, caches = make_cluster()
        sql = "select count(*) as c from t where x < 50"
        engine.execute(sql)
        caches.resize(2)
        assert len(caches) == 1  # the states moved to the new nodes
        engine.delete_where("t", __import__("repro").parse_predicate("x < 10"))
        assert engine.vacuum(["t"]) == ["t"]
        stale = caches.node(0).entries()[0]
        result = engine.execute(sql)
        assert result.counters.cache_hits == 0
        assert result.scalar() == QueryEngine(engine.database).execute(sql).scalar()
        assert caches.aggregate_stats().invalidations == 2  # one per node
        assert all(stale is not entry for entry in caches.node(0).entries())

    def test_resize_noop_and_validation(self):
        caches = ClusterCaches(num_nodes=2)
        nodes_before = caches.nodes()
        assert caches.resize(2) is caches
        assert caches.nodes() == nodes_before  # same-size resize is a no-op
        with pytest.raises(ValueError):
            caches.resize(0)

    def test_resize_preserves_policy_factory(self):
        caches = ClusterCaches(
            num_nodes=2,
            policy_factory=lambda: CostBasedPolicy(min_sightings=2),
        )
        caches.resize(3)
        policies = [caches.node(i).policy for i in range(3)]
        assert all(isinstance(p, CostBasedPolicy) for p in policies)
        assert len({id(p) for p in policies}) == 3

    def test_gauges_consistent_after_resize(self):
        """Satellite regression (ISSUE PR 4): after resize, new node
        labels appear, removed node ids report zero, and the cluster
        rollups equal the per-node sums."""
        from repro.obs import MetricsRegistry

        engine, caches = make_cluster(num_slices=8, num_nodes=4)
        registry = MetricsRegistry()
        caches.register_metrics(registry)
        engine.execute("select count(*) as c from t where x < 50")

        def series(text, name, node=None):
            label = f'{{node="{node}"}}' if node is not None else ""
            for line in text.splitlines():
                if line.startswith(f"{name}{label} "):
                    return float(line.rsplit(" ", 1)[1])
            raise AssertionError(f"{name}{label} not found")

        caches.resize(2)
        shrunk = registry.render_prometheus()
        assert series(shrunk, "repro_predicate_cache_cluster_nodes") == 2
        # Stale node ids are still rendered but report empty caches.
        assert series(shrunk, "repro_predicate_cache_nbytes", node=3) == 0
        assert series(shrunk, "repro_predicate_cache_entries", node=3) == 0
        assert series(shrunk, "repro_predicate_cache_cluster_nbytes") == sum(
            caches.per_node_nbytes()
        )
        assert series(shrunk, "repro_predicate_cache_nbytes", node=0) > 0

        caches.resize(6)
        grown = registry.render_prometheus()
        assert series(grown, "repro_predicate_cache_cluster_nodes") == 6
        # Growth re-registers: the new node ids have live series.
        for node_id in range(6):
            assert series(
                grown, "repro_predicate_cache_entries", node=node_id
            ) == len(caches.node(node_id))
        assert series(grown, "repro_predicate_cache_cluster_nbytes") == sum(
            caches.per_node_nbytes()
        )


class TestDownedCache:
    # Methods, properties and the attributes __init__ sets alike.
    PUBLIC = sorted(n for n in dir(PredicateCache()) if not n.startswith("_"))

    @pytest.mark.parametrize("name", PUBLIC)
    def test_every_public_name_of_a_live_cache_refuses(self, name):
        with pytest.raises(NodeDownError, match="cache node 3 is down"):
            getattr(DownedCache(3), name)

    def test_the_tombstone_itself_answers(self):
        downed = DownedCache(3)
        assert downed.node_id == 3
        assert not isinstance(downed, PredicateCache)
        assert not hasattr(downed, "__deepcopy__")
        assert {"lookup_part", "record_reuse_serve", "store", "config", "close"} <= set(
            self.PUBLIC
        )


class TestPolicyFactory:
    def test_per_node_policies_are_independent(self):
        db = Database(num_slices=4, rows_per_block=100)
        db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))
        caches = ClusterCaches(
            num_nodes=2,
            policy_factory=lambda: CostBasedPolicy(min_sightings=2),
        )
        engine = QueryEngine(db, predicate_cache=caches)
        engine.insert("t", {"x": np.arange(10_000)})
        sql = "select count(*) as c from t where x < 10"
        engine.execute(sql)
        assert len(caches) == 0  # first sighting observed, not admitted
        engine.execute(sql)
        assert len(caches) == 1
        assert caches.node(0).policy is not caches.node(1).policy
