"""Interprocedural fixpoint: transitive acquire/blocking summaries and
the global lock-acquisition-order graph.

For every function ``f`` the fixpoint computes:

* ``acquires(f)`` — every lock some call chain out of ``f`` may
  acquire, with one witness chain per lock;
* ``blocking(f)`` — every blocking operation reachable from ``f``,
  with one witness chain per distinct op.

Both are monotone over finite sets, so a round-robin worklist
converges.  The **lock-order graph** then has an edge ``A → B``
whenever some site acquires (directly or transitively) ``B`` while
``A`` is held — unless ``A == B`` and the lock is re-entrant
(``RLock``/``Condition``), which is an ordinary re-entry, not an
ordering.  A non-re-entrant self-acquire *is* kept as a self-loop: a
plain ``Lock`` taken twice on one stack deadlocks immediately.

Every edge carries a witness chain (function displays with lines) so
RP010/RP011 findings point at real code paths, not abstract pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import CallGraph
from .locks import BlockOp, FunctionEffects, LockInventory

__all__ = [
    "TransBlock",
    "LockOrderEdge",
    "Summaries",
    "compute_summaries",
    "build_lock_order",
    "find_cycles",
]

#: Safety valve: witness chains longer than this are truncated when
#: propagated (the lattice itself stays finite per (function, key)).
_MAX_CHAIN = 12


@dataclass(frozen=True)
class TransBlock:
    """One blocking op reachable from a function, with its witness."""

    kind: str
    detail: str
    cv: str
    chain: Tuple[str, ...]

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.kind, self.detail, self.cv)


@dataclass(frozen=True)
class LockOrderEdge:
    """``src`` held while ``dst`` is acquired, at a concrete site."""

    src: str
    dst: str
    chain: Tuple[str, ...]
    line: int


@dataclass
class Summaries:
    """Per-function transitive summaries."""

    #: qualid -> lock name -> one witness chain of function displays.
    acquires: Dict[str, Dict[str, Tuple[str, ...]]] = field(default_factory=dict)
    #: qualid -> (kind, detail, cv) -> TransBlock.
    blocking: Dict[str, Dict[Tuple[str, str, str], TransBlock]] = field(
        default_factory=dict
    )


def _site(display: str, line: int) -> str:
    return f"{display}:{line}"


def compute_summaries(
    effects: Dict[str, FunctionEffects], graph: CallGraph
) -> Summaries:
    """Round-robin fixpoint over the call graph."""
    summaries = Summaries()
    for qualid, fx in effects.items():
        acq: Dict[str, Tuple[str, ...]] = {}
        for acquire in fx.acquires:
            acq.setdefault(
                acquire.lock, (_site(fx.info.display, acquire.line),)
            )
        summaries.acquires[qualid] = acq
        blk: Dict[Tuple[str, str, str], TransBlock] = {}
        for op in fx.blocking:
            entry = TransBlock(
                op.kind, op.detail, op.cv,
                (_site(fx.info.display, op.line),),
            )
            blk.setdefault(entry.key, entry)
        summaries.blocking[qualid] = blk

    changed = True
    while changed:
        changed = False
        for qualid, fx in effects.items():
            acq = summaries.acquires[qualid]
            blk = summaries.blocking[qualid]
            for edge in graph.callees(qualid):
                callee_acq = summaries.acquires.get(edge.callee, {})
                prefix = _site(fx.info.display, edge.line)
                for lock, chain in callee_acq.items():
                    if lock not in acq:
                        acq[lock] = (prefix, *chain[: _MAX_CHAIN])
                        changed = True
                callee_blk = summaries.blocking.get(edge.callee, {})
                for key, entry in callee_blk.items():
                    if key not in blk:
                        blk[key] = TransBlock(
                            entry.kind, entry.detail, entry.cv,
                            (prefix, *entry.chain[: _MAX_CHAIN]),
                        )
                        changed = True
    return summaries


def build_lock_order(
    effects: Dict[str, FunctionEffects],
    graph: CallGraph,
    summaries: Summaries,
    inventory: LockInventory,
) -> List[LockOrderEdge]:
    """Every ``held → acquired`` pair, direct and through calls."""
    edges: Dict[Tuple[str, str], LockOrderEdge] = {}

    def add(src: str, dst: str, chain: Tuple[str, ...], line: int) -> None:
        if src == dst and inventory.reentrant(dst):
            return  # ordinary RLock/Condition re-entry
        edges.setdefault((src, dst), LockOrderEdge(src, dst, chain, line))

    for qualid, fx in effects.items():
        display = fx.info.display
        for acquire in fx.acquires:
            for held in sorted(acquire.held):
                add(held, acquire.lock,
                    (_site(display, acquire.line),), acquire.line)
        for edge in graph.callees(qualid):
            if not edge.held:
                continue
            callee_acq = summaries.acquires.get(edge.callee, {})
            prefix = _site(display, edge.line)
            for lock, chain in callee_acq.items():
                for held in sorted(edge.held):
                    add(held, lock, (prefix, *chain), edge.line)
    return sorted(edges.values(), key=lambda e: (e.src, e.dst))


def find_cycles(edges: List[LockOrderEdge]) -> List[List[str]]:
    """Elementary cycles of the lock-order graph (one per SCC + loops).

    Tarjan SCC first; inside each multi-node SCC a DFS recovers one
    concrete cycle — enough to fail the build and show the operator a
    real ordering violation without enumerating every permutation.
    """
    adjacency: Dict[str, List[str]] = {}
    nodes: Set[str] = set()
    for edge in edges:
        adjacency.setdefault(edge.src, []).append(edge.dst)
        nodes.add(edge.src)
        nodes.add(edge.dst)

    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = adjacency.get(node, [])
            for i in range(child_idx, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(nodes):
        if node not in index:
            strongconnect(node)

    cycles: List[List[str]] = []
    edge_set = {(e.src, e.dst) for e in edges}
    for component in sccs:
        if len(component) == 1:
            node = component[0]
            if (node, node) in edge_set:
                cycles.append([node, node])
            continue
        cycle = _one_cycle(component, adjacency)
        if cycle is not None:
            cycles.append(cycle)
    return cycles


def _one_cycle(
    component: List[str], adjacency: Dict[str, List[str]]
) -> Optional[List[str]]:
    """Shortest cycle through the smallest member (BFS back to start).

    Strong connectivity guarantees every member reaches ``start``, so
    the BFS from each of ``start``'s in-component successors succeeds.
    """
    members = set(component)
    start = min(component)
    for first in adjacency.get(start, []):
        if first not in members:
            continue
        parent: Dict[str, Optional[str]] = {first: None}
        queue = [first]
        while queue:
            current = queue.pop(0)
            if current == start:
                path = [current]
                node = parent[current]
                while node is not None:
                    path.append(node)
                    node = parent[node]
                return [start] + list(reversed(path))
            for child in adjacency.get(current, []):
                if child in members and child not in parent:
                    parent[child] = current
                    queue.append(child)
    return None
