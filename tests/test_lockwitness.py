"""Runtime lock-order witness: unit tests + static↔dynamic cross-check.

The toy-fixture tests pin the wrapper semantics (env gating, edge
recording, same-instance re-entry elision, cross-instance self-edges,
condition integration) and the required regression: a deliberately
*inverted* acquisition order over two locks is caught by
:func:`~repro.obs.lockwitness.assert_acyclic` even when the two
threads never actually deadlock.

The live test drives a real serving + failover workload with
``REPRO_LOCK_WITNESS=1`` and proves every observed acquisition-order
edge is contained in the lock-order graph ``tools.check`` computed
statically — the soundness contract that lets CI trust the static
checker.
"""

import threading
import time

import pytest

from repro import env
from repro.obs import lockwitness


@pytest.fixture(autouse=True)
def _witness_on(monkeypatch):
    monkeypatch.setattr(env, "LOCK_WITNESS", True)
    lockwitness.reset()
    yield
    lockwitness.reset()


class TestFactories:
    def test_disabled_returns_plain_stdlib_locks(self, monkeypatch):
        monkeypatch.setattr(env, "LOCK_WITNESS", False)
        assert not lockwitness.enabled()
        assert not isinstance(
            lockwitness.named_lock("X._lock"), lockwitness.WitnessLock
        )
        assert not isinstance(
            lockwitness.named_rlock("X._lock"), lockwitness.WitnessLock
        )
        cv = lockwitness.named_condition("X._cv")
        assert isinstance(cv, threading.Condition)
        assert not isinstance(cv._lock, lockwitness.WitnessLock)

    def test_enabled_returns_instrumented(self):
        assert isinstance(
            lockwitness.named_lock("X._lock"), lockwitness.WitnessLock
        )
        cv = lockwitness.named_condition("X._cv")
        assert isinstance(cv._lock, lockwitness.WitnessLock)


class TestEdgeRecording:
    def test_nested_acquisition_records_edge(self):
        a = lockwitness.named_lock("A._lock")
        b = lockwitness.named_lock("B._lock")
        with a:
            with b:
                pass
        assert ("A._lock", "B._lock") in lockwitness.observed_edges()
        assert ("B._lock", "A._lock") not in lockwitness.observed_edges()

    def test_sequential_acquisition_records_nothing(self):
        a = lockwitness.named_lock("A._lock")
        b = lockwitness.named_lock("B._lock")
        with a:
            pass
        with b:
            pass
        assert lockwitness.observed_edges() == set()

    def test_same_instance_reentry_records_no_edge(self):
        a = lockwitness.named_rlock("A._lock")
        with a:
            with a:
                pass
        assert lockwitness.observed_edges() == set()

    def test_cross_instance_same_name_records_self_edge(self):
        # Two shard caches share a lock name; nesting them is the
        # cross-shard acquisition ClusterCaches forbids.
        shard0 = lockwitness.named_rlock("PredicateCache._lock")
        shard1 = lockwitness.named_rlock("PredicateCache._lock")
        with shard0:
            with shard1:
                pass
        assert (
            "PredicateCache._lock",
            "PredicateCache._lock",
        ) in lockwitness.observed_edges()
        with pytest.raises(AssertionError, match="cycle"):
            lockwitness.assert_acyclic()

    def test_edges_recorded_per_thread(self):
        a = lockwitness.named_lock("A._lock")
        b = lockwitness.named_lock("B._lock")

        def worker():
            with b:
                pass

        with a:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread held nothing of its own: no A->B edge.
        assert lockwitness.observed_edges() == set()

    def test_condition_wait_releases_through_wrapper(self):
        cv = lockwitness.named_condition("Q._cv")
        hits = []

        def waiter():
            with cv:
                while not hits:
                    cv.wait(timeout=2.0)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.02)
        with cv:
            hits.append(1)
            cv.notify_all()
        t.join(timeout=2.0)
        assert not t.is_alive()
        lockwitness.assert_acyclic()


class TestInvertedOrderRegression:
    def test_inverted_two_lock_order_is_caught(self):
        """The required regression: A->B in one thread, B->A in the
        other.  Sequential execution means no actual deadlock occurs,
        but the observed graph has the cycle and teardown fails."""
        a = lockwitness.named_lock("Toy.A")
        b = lockwitness.named_lock("Toy.B")

        def forward():
            with a:
                with b:
                    pass

        def backward():  # deliberately inverted
            with b:
                with a:
                    pass

        t1 = threading.Thread(target=forward)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backward)
        t2.start()
        t2.join()

        edges = lockwitness.observed_edges()
        assert ("Toy.A", "Toy.B") in edges
        assert ("Toy.B", "Toy.A") in edges
        with pytest.raises(AssertionError, match="Toy\\."):
            lockwitness.assert_acyclic()
        cycle = lockwitness.find_cycle()
        assert cycle is not None and cycle[0] == cycle[-1]

    def test_consistent_order_passes(self):
        a = lockwitness.named_lock("Toy.A")
        b = lockwitness.named_lock("Toy.B")
        for _ in range(3):
            with a:
                with b:
                    pass
        lockwitness.assert_acyclic()
        assert lockwitness.missing_from({("Toy.A", "Toy.B")}) == set()
        assert lockwitness.missing_from(set()) == {("Toy.A", "Toy.B")}


class TestLiveWorkloadContainment:
    def test_observed_edges_subset_of_static_graph(self, tmp_path):
        """Serving + DML + node failover under the witness: the
        observed graph must be acyclic and contained in the static
        lock-order graph (``tools.check``)."""
        import os
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        if repo_root not in sys.path:
            sys.path.insert(0, repo_root)
        from tools.check import check_paths

        from repro import (
            Database,
            PredicateCache,
            QueryEngine,
            QueryServer,
            Request,
        )
        from repro.cluster import ClusterCaches
        from repro.persist import CacheStore
        from repro.serve.health import ClusterHealthMonitor
        from repro.workloads.loadgen import LoadGenerator, setup_load_tables

        gen = LoadGenerator(
            num_clients=4, statements_per_client=10, seed=97, hot_fraction=0.5
        )
        db = Database()
        store = CacheStore(tmp_path, catalog=db)
        cluster = ClusterCaches(2, store=store)
        engine = QueryEngine(db, predicate_cache=cluster)
        setup_load_tables(engine, gen, rows_per_table=1200)
        monitor = ClusterHealthMonitor(
            cluster, suspect_after=1, down_after=2, auto_restore=True
        )
        server = QueryServer(engine, max_workers=3)
        try:
            futures = []
            for script in gen.scripts():
                for sql in script.statements:
                    futures.append(server.submit(Request(sql=sql)))
            cluster.kill_node(1)
            for _ in range(8):
                monitor.tick()
            for future in futures:
                future.result(timeout=30)
        finally:
            server.shutdown()

        observed = lockwitness.observed_edges()
        assert observed, "the workload should exercise nested locking"
        lockwitness.assert_acyclic()

        static = check_paths(
            [os.path.join(repo_root, "src", "repro")]
        ).program.edge_names()
        missing = lockwitness.missing_from(static)
        assert missing == set(), (
            "observed lock-order edges absent from the static graph: "
            f"{sorted(missing)}"
        )


class TestWriteThroughOffTheCacheLock:
    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_concurrent_writers_keep_the_store_a_mirror(self, tmp_path, variant):
        """Threads install, extend and evict on one cache with a
        store: the journal holds the cache's mutations in order (a
        restart recovers exactly the live states), and no append ran
        with the cache lock held."""
        import sys

        import numpy as np

        from repro import PredicateCache, PredicateCacheConfig
        from repro.core.keys import ScanKey
        from repro.core.rowrange import RangeList
        from repro.persist import CacheStore
        from tests.test_persist import assert_store_mirrors

        cache = PredicateCache(
            PredicateCacheConfig(variant=variant, bitmap_block_rows=64, max_entries=6)
        )
        store = CacheStore(tmp_path, min_compact_bytes=2048, compact_factor=1.0)
        store.attach(cache)

        def writer(worker):
            rng = np.random.default_rng(worker)
            watermarks = {}
            for step in range(150):
                key = ScanKey("t", f"x < {int(rng.integers(10))}")  # shared keys
                slice_id = int(rng.integers(4))
                entry = cache.get_or_create(key, 4)
                state = entry.slice_states[slice_id]
                known = state.last_cached_row if state is not None else 0
                upto = max(known, watermarks.get((key, slice_id), 0)) + int(
                    rng.integers(0, 3)
                ) * 100
                rows = RangeList.from_bounds(
                    np.array([[max(0, upto - 40), upto]], dtype=np.int64)
                )
                try:
                    cache.record_slice_scan(entry, slice_id, rows, upto)
                except ValueError:
                    continue  # the other writer extended past us meanwhile
                watermarks[key, slice_id] = upto
                if step % 50 == 49:
                    cache.trim_to_bytes(0)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside capture and drain
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert cache.stats.evictions > 0
        assert cache.stats.extensions > 0
        assert store.compactions > 0
        assert_store_mirrors(store, cache)

        edges = lockwitness.observed_edges()
        assert ("PredicateCache._lock", "CacheStore._io_lock") not in edges
        assert ("CacheStore._io_lock", "PredicateCache._lock") not in edges
        lockwitness.assert_acyclic()

    def test_a_hit_does_not_wait_out_another_threads_append(self, tmp_path):
        """While one thread's install is stuck behind the store's I/O
        lock, lookups and a repeat that changed nothing — calls that
        queued nothing — return without touching that lock."""
        import numpy as np

        from repro import PredicateCache
        from repro.core.keys import ScanKey
        from repro.core.rowrange import RangeList
        from repro.persist import CacheStore
        from tests.test_persist import assert_store_mirrors

        cache = PredicateCache()
        store = CacheStore(tmp_path)
        store.attach(cache)
        rows = RangeList.from_bounds(np.array([[0, 40]], dtype=np.int64))
        warm = cache.get_or_create(ScanKey("t", "x < 1"), 4)
        cache.record_slice_scan(warm, 0, rows, 100)

        held, release = threading.Event(), threading.Event()

        def hold_io_lock():  # an append or compaction in flight
            with store.io_lock:
                held.set()
                release.wait(timeout=30)

        def install():
            entry = cache.get_or_create(ScanKey("t", "x < 2"), 4)
            cache.record_slice_scan(entry, 0, rows, 100)

        def read():
            assert cache.lookup(warm.key) is warm
            assert cache.select_entry([warm.key]) is warm
            assert cache.lookup_part(warm.key) is warm
            assert cache.lookup(ScanKey("t", "x < 3")) is None
            cache.record_slice_scan(warm, 0, RangeList.empty(), 100)

        holder = threading.Thread(target=hold_io_lock)
        installer = threading.Thread(target=install)
        reader = threading.Thread(target=read)
        holder.start()
        assert held.wait(timeout=30)
        try:
            installer.start()
            deadline = time.monotonic() + 30
            while not cache._pending and time.monotonic() < deadline:
                time.sleep(0.001)
            assert cache._pending  # queued, and stuck draining
            reader.start()
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert installer.is_alive()
        finally:
            release.set()
            for thread in (holder, installer, reader):
                thread.join(timeout=30)
        assert not cache._pending
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert_store_mirrors(store, cache)
