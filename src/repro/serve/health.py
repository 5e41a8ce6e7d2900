"""Cluster heartbeat monitoring and node failover (DESIGN.md §13).

A :class:`ClusterHealthMonitor` probes every node of a
:class:`~repro.cluster.ClusterCaches` once per :meth:`~ClusterHealthMonitor.tick`:

* A :meth:`~repro.core.cache.PredicateCache.ping` that raises
  :class:`~repro.faults.NodeDownError` is one missed heartbeat; a node
  with missed beats is SUSPECT.
* After ``down_after`` consecutive misses the monitor replaces the node
  via ``cluster.fail_node``: the replacement hydrates its slice share
  warm from the attached store, and the node is UP again.  Each
  replacement counts a *failover*.

The monitor never routes around a node.  Until the replacement lands,
the dead node's tombstone is the only signal: the scan planner catches
its ``NodeDownError`` and scans the node's slices cache-off
(availability over freshness; correctness never depended on the cache).
Cache memory is not the monitor's business either: each node's cache
enforces ``PredicateCacheConfig.max_bytes`` at every install and
extension.

Whoever owns the cadence calls :meth:`tick` (tests drive it directly).
Every decision is counted and exported as ``repro_resilience_*`` series
via :meth:`register_metrics`.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from ..faults.errors import NodeDownError
from ..obs import lockwitness

__all__ = ["ClusterHealthMonitor", "NodeState"]


class NodeState(enum.IntEnum):
    """Liveness verdict for one cluster node (gauge value = member value)."""

    UP = 0
    SUSPECT = 1


class ClusterHealthMonitor:
    """Heartbeat monitor + failover driver over a cache cluster.

    Args:
        cluster: a :class:`~repro.cluster.ClusterCaches` (or any object
            with ``node``/``num_nodes``/``fail_node``).
        down_after: consecutive missed heartbeats before the node is
            replaced via ``cluster.fail_node`` (store-backed warm
            restore).

    Concurrency: one internal lock serializes ticks, so miss counts and
    counters stay consistent when several threads tick.  The cluster
    mutation it performs (``fail_node``) publishes by reference swap and
    is safe under concurrent scans.
    """

    def __init__(self, cluster, down_after: int = 3) -> None:
        if down_after < 1:
            raise ValueError("down_after must be >= 1")
        self.cluster = cluster
        self.down_after = down_after
        self._lock = lockwitness.named_lock("ClusterHealthMonitor._lock")
        self._missed: Dict[int, int] = {}
        # Monotonic counters (public: scrape-time metrics read these).
        self.ping_failures = 0
        self.failovers = 0

    def tick(self) -> List[int]:
        """Run one probe round; returns node ids replaced this round."""
        restored: List[int] = []
        with self._lock:
            for node_id in range(self.cluster.num_nodes):
                try:
                    self.cluster.node(node_id).ping()
                    missed = 0
                except NodeDownError:
                    self.ping_failures += 1
                    missed = self._missed.get(node_id, 0) + 1
                if missed >= self.down_after:
                    self.cluster.fail_node(node_id)
                    self.failovers += 1
                    restored.append(node_id)
                    missed = 0
                self._missed[node_id] = missed
        return restored

    def node_state(self, node_id: int) -> NodeState:
        with self._lock:
            missed = self._missed.get(node_id, 0)
        return NodeState.SUSPECT if missed else NodeState.UP

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Publish the ``repro_resilience_*`` failover family.

        Node-state gauges are registered for the node ids present at
        registration time; ids removed by a later resize report UP(0).
        """
        for node_id in range(self.cluster.num_nodes):
            registry.gauge(
                "repro_resilience_node_state",
                "Node liveness (0=up, 1=suspect)",
                labels={"node": str(node_id)},
                fn=lambda n=node_id: int(self._safe_state(n)),
            )
        registry.counter(
            "repro_resilience_ping_failures_total",
            "Heartbeat probes answered by a dead node",
            fn=lambda: self.ping_failures,
        )
        registry.counter(
            "repro_resilience_failovers_total",
            "Dead nodes replaced by warm-restored successors",
            fn=lambda: self.failovers,
        )

    def _safe_state(self, node_id: int) -> NodeState:
        if node_id >= self.cluster.num_nodes:
            return NodeState.UP
        return self.node_state(node_id)
