"""Per-node cache routing for multi-node clusters.

Each node's cache holds its own layout stamps and checks them when a
scan routed to it reads (DESIGN.md §5); no node hears from a table.  A
re-shard carries each entry's stamp with its states, so a vacuum that
no scan has seen yet still drops them on the new nodes.
"""

from __future__ import annotations

from typing import Callable, List, NoReturn, Optional

from ..core.cache import PredicateCache, cache_series
from ..core.config import PredicateCacheConfig
from ..core.stats import CacheStats
from ..faults.errors import NodeDownError

__all__ = ["ClusterCaches", "DownedCache"]


class DownedCache:
    """Tombstone standing in for a dead node's cache.

    :meth:`ClusterCaches.kill_node` swaps one of these into the node
    list to model a compute node whose process died: every cache
    operation raises :class:`~repro.faults.NodeDownError`, the way an
    RPC to a crashed node fails.  The scan path catches the error at
    cache-context resolution and degrades to cache-off scans for the
    node's slices — the one signal of a dead node — until whoever
    killed it calls :meth:`ClusterCaches.fail_node` (DESIGN.md §13).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def __getattr__(self, name: str) -> NoReturn:
        # Reached for every name but ``node_id``: whatever a live cache
        # would answer — method, property, counter — the dead one
        # refuses.  (Dunder probes by copy/pickle/pytest get the plain
        # "no such attribute".)
        if name.startswith("__"):
            raise AttributeError(name)
        raise NodeDownError(f"cache node {self.node_id} is down")


class ClusterCaches:
    """N independent per-node predicate caches, routed by slice id.

    Slice ``s`` belongs to node ``s % num_nodes`` — the same static
    assignment the leader uses for data slices.  Each node's cache
    fills only its own slices' states of each entry; no state is ever
    shared or synchronized between nodes (§4.6).

    ``cache_for_slice`` and ``nodes`` are the router protocol the scan
    planner and the store address every cache through (a bare
    :class:`PredicateCache` implements the same two methods as a
    one-node router); everything else (aggregate stats, memory, failure
    injection, persistence) is operator convenience.

    With a :class:`~repro.persist.CacheStore` attached, every node
    writes its cache events through to the store, initial nodes and the
    replacements created by :meth:`fail_node` hydrate their slice
    shares from it (warm start), and restored entries are revalidated
    against the store's bound catalog first.

    Concurrency: the router itself holds no lock — each
    :class:`PredicateCache` node is internally synchronized, and the
    only router-level mutations (``fail_node`` swapping one element,
    ``resize`` swapping the whole node list) publish by single
    reference assignment, which readers snapshot (see
    :meth:`cache_for_slice`).  Administrative operations themselves
    (resize/fail_node racing each other) are expected to be serialized
    by the operator, e.g. under the serving layer's write lock.

    **Canonical shard-lock order** (enforced by ``tools.check``
    RP010 on the global lock-order graph): at most one node cache's
    lock may be held at a time.  Cross-node operations — aggregate
    stats, :meth:`clear`, hydration — visit nodes sequentially in
    ascending node id and never call into node *j*'s cache while
    holding node *i*'s lock.  All node caches share the lock name
    ``PredicateCache._lock``, and the runtime witness skips only
    *same-instance* re-entry — so a nested cross-node acquisition
    records a ``PredicateCache._lock → PredicateCache._lock`` edge that
    is absent from the static graph (the static side elides re-entrant
    self-edges) and fails the witness cross-check.  The reference-swap mutations above are
    deliberately lock-free; they run on operator calls (a failover, a
    resize), never from a worker entry point, so ``tools.check``
    RP012 has nothing to flag.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[PredicateCacheConfig] = None,
        policy_factory=None,
        store=None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.config = config if config is not None else PredicateCacheConfig()
        self.policy_factory = policy_factory
        self._store = store
        self._registrations: List[tuple] = []
        self._nodes: List[PredicateCache] = [
            self._new_node() for _ in range(num_nodes)
        ]
        if store is not None:
            for node_id, cache in enumerate(self._nodes):
                store.attach(cache, owned=self._owned_by(node_id))

    def _new_node(self) -> PredicateCache:
        return PredicateCache(
            self.config,
            policy=self.policy_factory() if self.policy_factory is not None else None,
        )

    def _owned_by(self, node_id: int) -> Callable[[int], bool]:
        """Slice-ownership test of ``node_id`` under the current layout."""
        num_nodes = self.num_nodes
        return lambda slice_id: slice_id % num_nodes == node_id

    # -- routing (the scan-path interface) -------------------------------------

    def cache_for_slice(self, slice_id: int) -> PredicateCache:
        """The owning node's cache — a dead node's tombstone included:
        the scan planner turns its ``NodeDownError`` into cache-off
        scans of the node's slices."""
        # Snapshot the node list once and derive the modulus from it:
        # a concurrent resize() publishes a new list as a single
        # reference swap, so the captured list and its length always
        # agree (indexing self._nodes by self.num_nodes separately
        # could race a grow and fall off the shorter old list).
        nodes = self._nodes
        return nodes[slice_id % len(nodes)]

    # -- operator surface ---------------------------------------------------------

    def node(self, node_id: int) -> PredicateCache:
        return self._nodes[node_id]

    def nodes(self) -> List[PredicateCache]:
        """The live per-node caches (persistence snapshots read these).

        Killed nodes' tombstones are excluded: a dead node's state is
        unreachable, so snapshots and in-memory re-shards work from the
        survivors only.
        """
        return [c for c in self._nodes if not isinstance(c, DownedCache)]

    @property
    def store(self):
        return self._store

    # -- failure injection & replacement ---------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Kill one node's process (drill injection, DESIGN.md §13).

        The node's cache is replaced by a :class:`DownedCache`
        tombstone: until :meth:`fail_node` replaces it, scans routed to
        it fail with :class:`~repro.faults.NodeDownError` and degrade to
        cache-off.  The dead cache is closed (a crashed process stops
        journaling).  Idempotent.
        """
        dead = self._nodes[node_id]
        if isinstance(dead, DownedCache):
            return
        self._nodes[node_id] = DownedCache(node_id)
        dead.close()

    def fail_node(self, node_id: int) -> PredicateCache:
        """Replace a node — dead (after :meth:`kill_node`) or live.

        This is the one failover call: whoever kills a node replaces it
        here.  A new compute node downloads its data slices from managed
        storage (§4.2.1).  Without a store its cache starts cold and
        only its share of each entry must be relearned — the other
        nodes keep theirs.  With a store attached, the replacement
        hydrates its slice share from the last snapshot + journal
        (revalidated against the catalog) and continues warm.  The
        replacement is built exactly like the original node, including
        a fresh policy from ``policy_factory`` (a failure must not
        silently downgrade a cost-based cluster to default admission).
        """
        replaced = self._nodes[node_id]
        replacement = self._new_node()
        self._nodes[node_id] = replacement
        # Retired only once the router no longer hands it out: a cache
        # that can still serve a scan still writes through.
        if not isinstance(replaced, DownedCache):
            replaced.close()
        if self._store is not None:
            self._store.attach(replacement, owned=self._owned_by(node_id))
        return replacement

    def resize(self, num_nodes: int) -> "ClusterCaches":
        """Re-shard the cluster to ``num_nodes`` compute nodes.

        Slice ownership is recomputed (``slice % num_nodes``), so every
        entry's per-slice states move, in memory, from the live nodes
        to their new owning node.  With a store attached the new nodes
        only write through to it: the store already holds every state
        by entry and slice, so nothing is snapshotted or reloaded.
        Each state moves with the layout stamp its old node held, so a
        state of a layout no scan has checked yet is still dropped by
        the first scan after the resize.  Metrics registered through
        :meth:`register_metrics` are re-registered so new node labels
        appear and the cluster rollups stay consistent.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if num_nodes == self.num_nodes:
            return self
        from ..persist.records import collect_records

        # Tombstones of killed nodes are excluded: a re-shard works
        # from surviving state, exactly like a real cluster resize
        # after a node loss.
        old_nodes = self.nodes()
        records = collect_records(old_nodes)
        self.num_nodes = num_nodes
        # Build and fill the new shard off to the side, then publish
        # the node list as one reference swap: concurrent scans routing
        # through cache_for_slice see either the complete old layout or
        # the complete new one, never a half-built mix.
        new_nodes = [self._new_node() for _ in range(num_nodes)]
        for node_id, cache in enumerate(new_nodes):
            owned = self._owned_by(node_id)
            for record in records.values():
                record.install_into(cache, owned)
            if self._store is not None:
                cache.attach_store(self._store)
        self._nodes = new_nodes
        for cache in old_nodes:
            cache.close()
        for registry, prefix in self._registrations:
            self._register(registry, prefix)
        return self

    def clear(self) -> None:
        for cache in self.nodes():
            cache.clear()

    # -- observability ---------------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "repro_predicate_cache") -> None:
        """Expose every node's cache plus cluster-level rollups.

        Each node gets the standard per-cache series labelled with its
        node id, read *through the router* at scrape time so a node
        replaced by :meth:`fail_node` reports its successor, not the
        dead cache.  After :meth:`resize`, removed node ids report zero
        and new node ids are registered automatically.  The cluster
        adds aggregate gauges so dashboards do not need to sum label
        sets client-side.
        """
        if (registry, prefix) not in self._registrations:
            self._registrations.append((registry, prefix))
        self._register(registry, prefix)

    def _register(self, registry, prefix: str) -> None:
        for node_id in range(self.num_nodes):
            labels = {"node": str(node_id)}
            for kind, name, help_text, read in cache_series(prefix):
                getattr(registry, kind)(
                    name,
                    help_text,
                    labels=labels,
                    fn=lambda n=node_id, read=read: self._node_value(n, read),
                )
        registry.gauge(
            f"{prefix}_cluster_nbytes",
            "Summed predicate-cache payload bytes across nodes",
            fn=lambda: self.total_nbytes,
        )
        registry.gauge(
            f"{prefix}_cluster_keys",
            "Distinct scan keys cached anywhere in the cluster",
            fn=lambda: len(self),
        )
        registry.gauge(
            f"{prefix}_cluster_nodes",
            "Compute nodes in the cluster",
            fn=lambda: self.num_nodes,
        )

    def _node_value(self, node_id: int, read):
        """Scrape helper: node ids removed by a resize — or currently
        dead — report zero instead of dangling into the shrunk node
        list or raising out of a scrape."""
        nodes = self._nodes
        if node_id >= len(nodes) or isinstance(nodes[node_id], DownedCache):
            return 0
        return read(nodes[node_id])

    # -- aggregation -----------------------------------------------------------------

    @property
    def total_nbytes(self) -> int:
        return sum(cache.total_nbytes for cache in self.nodes())

    def per_node_nbytes(self) -> List[int]:
        """Per-slot payload bytes (dead nodes report zero)."""
        return [
            0 if isinstance(cache, DownedCache) else cache.total_nbytes
            for cache in self._nodes
        ]

    def per_node_entries(self) -> List[int]:
        """Per-slot entry counts (dead nodes report zero)."""
        return [
            0 if isinstance(cache, DownedCache) else len(cache)
            for cache in self._nodes
        ]

    def aggregate_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self.nodes():
            for field in vars(total):
                setattr(
                    total, field,
                    getattr(total, field) + getattr(cache.stats, field),
                )
        return total

    def __len__(self) -> int:
        """Distinct keys across live nodes (entries are per-node shards)."""
        keys = set()
        for cache in self.nodes():
            keys.update(cache.keys())
        return len(keys)
