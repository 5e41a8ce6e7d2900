"""Runtime lock-order witness: the dynamic half of ``tools.check``.

When ``REPRO_LOCK_WITNESS=1``, the ``named_lock`` / ``named_rlock`` /
``named_condition`` factories return instrumented locks that record,
per thread, every *acquisition-order edge*: "lock ``A`` was held when
lock ``B`` was acquired".  At teardown a suite can then

* :func:`assert_acyclic` — the observed edge graph must have no
  cycle (a cycle means two threads can deadlock on these locks), and
* :func:`missing_from` — every observed edge must be present in the
  statically computed lock-order graph from ``tools.check``, proving
  the static model sound against real executions.

When the variable is unset the factories return plain stdlib locks —
the wrapper class is never constructed, so production overhead is one
``repro.env`` attribute read per lock *construction*, not per
acquisition.

Lock names are the checker's canonical names (``ClassName._attr``),
passed as string literals at the construction site; the static side
reads the same literals out of the ``named_*`` calls, so the two
graphs agree on vocabulary by construction.

Re-entrancy: acquiring a lock *instance* already held by the current
thread records no edge (it is a re-entry, matching the static side's
elision of re-entrant self-edges).  Acquiring a *different* instance
with the same name does record the ``name → name`` self-edge — that
is exactly the cross-shard nesting ``ClusterCaches`` forbids, and it
fails both checks.

Condition integration: :class:`WitnessLock` exposes ``_is_owned`` /
``_release_save`` / ``_acquire_restore`` delegating to its inner
``RLock``, which ``threading.Condition`` requires to release a held
re-entrant lock around ``wait()`` correctly.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from .. import env

__all__ = [
    "WitnessLock",
    "enabled",
    "named_lock",
    "named_rlock",
    "named_condition",
    "observed_edges",
    "reset",
    "assert_acyclic",
    "missing_from",
    "find_cycle",
]

def enabled() -> bool:
    return env.LOCK_WITNESS


class _Registry:
    """Global edge store + per-thread held stacks."""

    def __init__(self) -> None:
        # Deliberately a *plain* uninstrumented lock: the registry
        # guard is internal bookkeeping, not part of the witnessed
        # program order.
        self._guard = threading.Lock()
        self._edges: Dict[Tuple[str, str], int] = {}
        self._tls = threading.local()

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def on_acquired(self, name: str, instance: int) -> None:
        stack = self._stack()
        reentry = any(held_id == instance for _, held_id in stack)
        if not reentry and stack:
            with self._guard:
                for held_name, _ in stack:
                    key = (held_name, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append((name, instance))

    def on_released(self, instance: int) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][1] == instance:
                del stack[i]
                return

    def edges(self) -> Set[Tuple[str, str]]:
        with self._guard:
            return set(self._edges)

    def reset(self) -> None:
        with self._guard:
            self._edges.clear()


_REGISTRY = _Registry()


class WitnessLock:
    """Instrumented lock wrapper recording acquisition-order edges."""

    def __init__(self, name: str, inner=None) -> None:
        self._name = name
        self._inner = inner if inner is not None else threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _REGISTRY.on_acquired(self._name, id(self))
        return acquired

    def release(self) -> None:
        _REGISTRY.on_released(id(self))
        self._inner.release()

    def __enter__(self) -> "WitnessLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # threading.Condition integration: it releases/restores its lock
    # around wait() through these, and they must hit the real RLock.
    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        return self._inner._release_save()

    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)


def named_lock(name: str):
    """A ``threading.Lock`` (instrumented when the witness is on)."""
    if not enabled():
        return threading.Lock()
    return WitnessLock(name, threading.Lock())


def named_rlock(name: str):
    """A ``threading.RLock`` (instrumented when the witness is on)."""
    if not enabled():
        return threading.RLock()
    return WitnessLock(name, threading.RLock())


def named_condition(name: str):
    """A ``threading.Condition`` over an (instrumented) RLock."""
    if not enabled():
        return threading.Condition()
    return threading.Condition(WitnessLock(name, threading.RLock()))


def observed_edges() -> Set[Tuple[str, str]]:
    """Every ``(held, acquired)`` name pair recorded so far."""
    return _REGISTRY.edges()


def reset() -> None:
    """Clear recorded edges (suite setup)."""
    _REGISTRY.reset()


def find_cycle(
    edges: Optional[Set[Tuple[str, str]]] = None,
) -> Optional[List[str]]:
    """One cycle of the observed graph, or ``None`` if acyclic."""
    if edges is None:
        edges = observed_edges()
    adjacency: Dict[str, List[str]] = {}
    for src, dst in sorted(edges):
        adjacency.setdefault(src, []).append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    path: List[str] = []

    def dfs(node: str) -> Optional[List[str]]:
        color[node] = GRAY
        path.append(node)
        for child in adjacency.get(node, []):
            state = color.get(child, WHITE)
            if state == GRAY:
                return path[path.index(child):] + [child]
            if state == WHITE:
                cycle = dfs(child)
                if cycle is not None:
                    return cycle
        path.pop()
        color[node] = BLACK
        return None

    for node in sorted(adjacency):
        if color.get(node, WHITE) == WHITE:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


def assert_acyclic() -> None:
    """Raise ``AssertionError`` if the observed graph has a cycle."""
    cycle = find_cycle()
    if cycle is not None:
        raise AssertionError(
            "lock-order witness observed a cycle: " + " -> ".join(cycle)
        )


def missing_from(static_edges: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Observed edges absent from the static graph (must be empty).

    Only edges whose *both* endpoints are witness-named locks are
    compared — the static graph also contains locks (metrics, fault
    injector) that are not instrumented at runtime.
    """
    return observed_edges() - set(static_edges)
