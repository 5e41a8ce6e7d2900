"""Call-site resolution: from syntactic call sites to target functions.

Resolution is *sound by over-approximation* for the rules this
analyzer implements: when the receiver type is unknown, a method call
resolves to **every** project method of that name, so a lock edge or a
blocking op can be missed only if the callee is outside the analyzed
tree.  Precision comes from the attribute-type inference in
:mod:`tools.check.project`:

* ``self.method()`` → the enclosing class's method (base classes
  searched);
* ``self._store.log_state()`` with ``self._store: Optional["CacheStore"]``
  → exactly ``CacheStore.log_state``;
* ``self._queue.clear()`` with ``self._queue: Deque`` → *nothing*
  (opaque container — must not alias ``PredicateCache.clear``), and so
  ``self._journal.close()`` with ``self._journal: Optional[BinaryIO]``
  (a class outside the project — must not alias ``PredicateCache.close``);
* ``ClassName.method()`` → that class's method;
* anything else → all project methods named ``method``.

A resolution also carries whether it is **exact** (receiver type
known); contract checking (calling a ``Caller holds ...`` helper
without the lock) only uses exact resolutions to avoid false
positives from the by-name fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .locks import CONTAINER_MUTATORS, CallSite, FunctionEffects
from .project import OPAQUE, FunctionInfo, Project

__all__ = ["CallEdge", "CallGraph", "build_callgraph"]

#: Method names too generic for by-name fallback: on an *unknown*
#: receiver, ``x.append(...)`` is near-certainly a list, not
#: ``ColumnStore.append`` — resolving it to every project ``append``
#: fabricates edges (and cycles).  Typed receivers still resolve to
#: these methods exactly.
_FALLBACK_EXCLUDED = frozenset(CONTAINER_MUTATORS) | frozenset(
    {"get", "items", "keys", "values", "copy"}
)


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller→callee edge with the held-set at the site."""

    caller: str           # qualid
    callee: str           # qualid
    held: FrozenSet[str]
    line: int
    exact: bool           # receiver type was known (not by-name fallback)


@dataclass
class CallGraph:
    """Resolved edges, indexed by caller and callee."""

    edges: List[CallEdge]
    out_edges: Dict[str, List[CallEdge]]
    in_edges: Dict[str, List[CallEdge]]

    def callees(self, qualid: str) -> List[CallEdge]:
        return self.out_edges.get(qualid, [])


def _attr_type_candidates(project: Project, cls: str, attr: str) -> Set[str]:
    """Inferred type names for ``self.<attr>`` within class ``cls``."""
    candidates: Set[str] = set()
    seen: Set[str] = set()
    stack = [cls]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for info in project.class_infos(current):
            candidates |= info.attr_types.get(attr, set())
            stack.extend(info.bases)
    return candidates


def _resolve_site(
    project: Project, info: FunctionInfo, site: CallSite
) -> Tuple[List[str], bool]:
    """``(target qualids, exact)`` for one call site."""
    method = site.method
    if site.recv_kind == "self" and info.cls is not None:
        targets = project.resolve_method(info.cls, method)
        if targets:
            return targets, True
        return [], True  # inherited from outside the project — no effects
    if site.recv_kind == "self_attr" and info.cls is not None:
        candidates = _attr_type_candidates(project, info.cls, site.recv_attr)
        if candidates:
            targets: List[str] = []
            for candidate in sorted(candidates):
                if candidate == OPAQUE:
                    continue
                targets.extend(project.resolve_method(candidate, method))
            if targets or not any(c in project.classes for c in candidates):
                # Resolved — or every inferred type is a container or a
                # class outside the project (``BinaryIO``): no effects.
                return sorted(set(targets)), True
        # Unknown attribute type: fall through to by-name.
    if site.recv_kind == "class":
        return project.resolve_method(site.recv_class, method), True
    if site.recv_kind == "":
        # Bare name: module function, or a project class constructor.
        local = project.module_funcs.get((info.module, method))
        if local is not None:
            return [local], True
        ctor = project.resolve_method(method, "__init__") if (
            method in project.classes
        ) else []
        return ctor, True
    # Fallback: every project method of this name (sound over-approx),
    # except names too generic to be meaningful on an unknown receiver.
    if method in _FALLBACK_EXCLUDED:
        return [], False
    return sorted(set(project.methods_by_name.get(method, []))), False


def build_callgraph(
    project: Project, effects: Dict[str, FunctionEffects]
) -> CallGraph:
    """Resolve every call site of every function."""
    edges: List[CallEdge] = []
    for qualid, fx in effects.items():
        info = fx.info
        for site in fx.calls:
            targets, exact = _resolve_site(project, info, site)
            for target in targets:
                edges.append(
                    CallEdge(qualid, target, site.held, site.line, exact)
                )
        # Property loads on self behave like zero-arg self calls.
        for attr, held, line in fx.self_property_loads:
            if info.cls is None:
                continue
            for target in project.resolve_method(info.cls, attr):
                edges.append(CallEdge(qualid, target, held, line, True))
    out_edges: Dict[str, List[CallEdge]] = {}
    in_edges: Dict[str, List[CallEdge]] = {}
    for edge in edges:
        out_edges.setdefault(edge.caller, []).append(edge)
        in_edges.setdefault(edge.callee, []).append(edge)
    return CallGraph(edges=edges, out_edges=out_edges, in_edges=in_edges)
