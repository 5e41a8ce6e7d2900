"""Cluster heartbeat monitoring and node failover (DESIGN.md §13).

A :class:`ClusterHealthMonitor` probes every node of a
:class:`~repro.cluster.ClusterCaches` on a fixed cadence and drives the
failure-survival state machine:

``UP → SUSPECT → DOWN → RESTORING → UP``

* A :meth:`~repro.core.cache.PredicateCache.ping` that raises
  :class:`~repro.faults.NodeDownError` is one missed heartbeat; after
  ``suspect_after`` consecutive misses the node is SUSPECT, after
  ``down_after`` it is declared DOWN.
* Declaring a node DOWN calls ``cluster.mark_down`` — from then on the
  router returns ``None`` for the node's slices and scans degrade to
  cache-off (availability over freshness; correctness never depended on
  the cache).
* With ``auto_restore`` (the default) the monitor immediately replaces
  the dead node via ``cluster.fail_node``: the replacement hydrates its
  slice share warm from the attached store and the router resumes
  cache-on scans.  Restoration counts a *failover*.
* With a ``memory_budget_bytes`` the monitor also acts as the memory
  pressure valve: whenever the cluster's payload exceeds the budget it
  trims LRU entries back toward it (:meth:`ClusterCaches.trim_to_bytes`)
  instead of letting the cache grow into an OOM kill.

The monitor is deterministic-by-default: tests drive :meth:`tick`
directly; :meth:`start`/:meth:`stop` wrap the same tick in a daemon
thread for live serving.  Every decision is counted and exported as
``repro_resilience_*`` series via :meth:`register_metrics`.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, List, Optional

from ..faults.errors import NodeDownError
from ..obs import lockwitness

__all__ = ["ClusterHealthMonitor", "NodeState"]


class NodeState(enum.IntEnum):
    """Liveness verdict for one cluster node (gauge value = member value)."""

    UP = 0
    SUSPECT = 1
    DOWN = 2
    RESTORING = 3


class ClusterHealthMonitor:
    """Heartbeat monitor + failover driver over a cache cluster.

    Args:
        cluster: a :class:`~repro.cluster.ClusterCaches` (or any object
            with ``node``/``num_nodes``/``mark_down``/``fail_node``).
        suspect_after: consecutive missed heartbeats before SUSPECT.
        down_after: consecutive missed heartbeats before DOWN (must be
            >= ``suspect_after``).
        auto_restore: replace DOWN nodes immediately via
            ``cluster.fail_node`` (store-backed warm restore).
        memory_budget_bytes: cluster-wide payload budget; exceeded bytes
            are trimmed each tick (``None`` disables the valve).
        interval_seconds: probe cadence of the background thread
            (:meth:`start`); :meth:`tick` ignores it.

    Concurrency: one internal lock serializes ticks (manual and
    threaded), so state transitions and counters are consistent even
    when a test calls :meth:`tick` while the daemon runs.  The cluster
    mutations it performs (``mark_down``/``fail_node``) publish by
    reference swap and are safe under concurrent scans.
    """

    def __init__(
        self,
        cluster,
        suspect_after: int = 1,
        down_after: int = 3,
        auto_restore: bool = True,
        memory_budget_bytes: Optional[int] = None,
        interval_seconds: float = 0.02,
    ) -> None:
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if down_after < suspect_after:
            raise ValueError("down_after must be >= suspect_after")
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        self.cluster = cluster
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.auto_restore = auto_restore
        self.memory_budget_bytes = memory_budget_bytes
        self.interval_seconds = interval_seconds
        self._lock = lockwitness.named_lock("ClusterHealthMonitor._lock")
        self._missed: Dict[int, int] = {}
        self._states: Dict[int, NodeState] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Monotonic counters (public: scrape-time metrics read these).
        self.ticks = 0
        self.ping_failures = 0
        self.nodes_marked_down = 0
        self.failovers = 0
        self.memory_trims = 0
        self.bytes_trimmed = 0

    # -- the heartbeat round ---------------------------------------------------

    def tick(self) -> List[int]:
        """Run one probe round; returns node ids restored this round."""
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self) -> List[int]:
        """Caller holds ``_lock``."""
        self.ticks += 1
        restored: List[int] = []
        for node_id in range(self.cluster.num_nodes):
            if self._probe(node_id):
                self._missed[node_id] = 0
                self._states[node_id] = NodeState.UP
                continue
            missed = self._missed.get(node_id, 0) + 1
            self._missed[node_id] = missed
            if missed >= self.down_after:
                if self._states.get(node_id) is not NodeState.DOWN:
                    self.cluster.mark_down(node_id)
                    self.nodes_marked_down += 1
                self._states[node_id] = NodeState.DOWN
                if self.auto_restore:
                    self._restore(node_id)
                    restored.append(node_id)
            elif missed >= self.suspect_after:
                self._states[node_id] = NodeState.SUSPECT
        self._trim_memory()
        return restored

    def _probe(self, node_id: int) -> bool:
        """One heartbeat; a dead node's raise is a missed beat.

        Caller holds ``_lock``.
        """
        try:
            return bool(self.cluster.node(node_id).ping())
        except NodeDownError:
            self.ping_failures += 1
            return False

    def _restore(self, node_id: int) -> None:
        """Replace a DOWN node (warm when a store is attached).

        Caller holds ``_lock``.
        """
        self._states[node_id] = NodeState.RESTORING
        self.cluster.fail_node(node_id)
        self.failovers += 1
        self._missed[node_id] = 0
        self._states[node_id] = NodeState.UP

    def _trim_memory(self) -> None:
        """Memory-pressure valve: trim toward the byte budget.

        Caller holds ``_lock``.
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return
        if self.cluster.total_nbytes <= budget:
            return
        released = self.cluster.trim_to_bytes(budget)
        if released > 0:
            self.memory_trims += 1
            self.bytes_trimmed += released

    # -- introspection ---------------------------------------------------------

    def node_state(self, node_id: int) -> NodeState:
        with self._lock:
            return self._states.get(node_id, NodeState.UP)

    def node_states(self) -> Dict[int, NodeState]:
        """Point-in-time states for every current node id."""
        with self._lock:
            return {
                node_id: self._states.get(node_id, NodeState.UP)
                for node_id in range(self.cluster.num_nodes)
            }

    # -- background probing ----------------------------------------------------

    def start(self) -> "ClusterHealthMonitor":
        """Probe on a daemon thread every ``interval_seconds``."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="health-monitor", daemon=True
            )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.tick()

    def stop(self) -> None:
        """Stop the daemon thread (joins it); manual ticks still work."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)

    def __enter__(self) -> "ClusterHealthMonitor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Publish the ``repro_resilience_*`` failover family.

        Node-state gauges are registered for the node ids present at
        registration time; ids removed by a later resize report UP(0).
        """
        for node_id in range(self.cluster.num_nodes):
            registry.gauge(
                "repro_resilience_node_state",
                "Node liveness (0=up, 1=suspect, 2=down, 3=restoring)",
                labels={"node": str(node_id)},
                fn=lambda n=node_id: int(self._safe_state(n)),
            )
        registry.counter(
            "repro_resilience_ping_failures_total",
            "Heartbeat probes answered by a dead node",
            fn=lambda: self.ping_failures,
        )
        registry.counter(
            "repro_resilience_nodes_marked_down_total",
            "Nodes declared dead after missed heartbeats",
            fn=lambda: self.nodes_marked_down,
        )
        registry.counter(
            "repro_resilience_failovers_total",
            "Dead nodes replaced by warm-restored successors",
            fn=lambda: self.failovers,
        )
        registry.counter(
            "repro_resilience_memory_trims_total",
            "Memory-pressure trims toward the byte budget",
            fn=lambda: self.memory_trims,
        )
        registry.counter(
            "repro_resilience_bytes_trimmed_total",
            "Payload bytes released by memory-pressure trims",
            fn=lambda: self.bytes_trimmed,
        )
        registry.counter(
            "repro_resilience_down_route_fallbacks_total",
            "Slices routed cache-off because their node was down",
            fn=lambda: self.cluster.down_route_fallbacks,
        )

    def _safe_state(self, node_id: int) -> NodeState:
        if node_id >= self.cluster.num_nodes:
            return NodeState.UP
        return self.node_state(node_id)
