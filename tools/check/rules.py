"""The rule table: every code RP001–RP012, its summary and its check.

Each check takes the one :class:`~tools.check.model.Program` and
returns :class:`~tools.check.findings.Finding` objects; a check may
emit more than one code (the lexical visitor emits seven from one walk
per file), so :func:`run_rules` runs each distinct check once.

* **RP001–RP003, RP005, RP006, RP008, RP009** — purely lexical, see
  :mod:`tools.check.lexical`.

* **RP004** — retired: it policed a hand-typed metric-name list that
  ``QueryEngine._register_metrics`` now derives from
  ``dataclasses.fields(QueryCounters)``; ``tests/test_obs.py`` pins
  ``merge`` and the exposed series at runtime.

* **RP007 — unsynchronized private-attribute mutation** in ``serve/``
  and ``core/cache.py``: every mutation of a private ``self._x``
  happens under a lexical ``with <lock>:`` block, inside ``__init__``,
  or inside a helper whose docstring declares "caller holds ..."
  (DESIGN.md §12).  A filter over the effects pass's ``Mutation``
  records — the same records RP012 reads, scoped by module instead of
  by reachability.

* **RP010 — lock-order cycle.**  Any cycle in the global
  lock-acquisition-order graph is a potential deadlock: two threads
  traversing the cycle from different entry edges can each hold one
  lock and wait for the other forever.  A non-re-entrant self-acquire
  is the one-lock special case.

* **RP011 — blocking while holding a lock.**  ``time.sleep``, file
  I/O (``open``/``os.replace``/``os.fsync``), thread joins,
  ``Future.result``/pool waits, and waiting on a *different*
  condition are flagged whenever some call path reaches them with a
  lock held.  Blocking under a hot lock turns one slow operation into
  a system-wide stall.

* **RP012 — unguarded shared-state escape.**  A mutation of an
  instance attribute of a guarded class (``PredicateCache``,
  ``QueryServer``, ``AdmissionController``, ``ClusterHealthMonitor``,
  ``CacheStore``, ``ClusterCaches``) on some path from a concurrent
  entry point (``scan._scan_slice``, ``QueryServer._worker_loop``,
  ``ClusterHealthMonitor._run``) without a dominating lock
  acquisition, docstring contract, or ``__init__`` context.  RP012
  also checks contracts interprocedurally: calling a
  ``Caller holds ...`` helper without that lock in the held-set at
  the call site is a finding even though the helper itself is exempt.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple

from .callgraph import CallGraph
from .findings import Finding
from .fixpoint import find_cycles
from .lexical import lexical_findings
from .model import Program

__all__ = [
    "ENTRY_POINTS",
    "GUARDED_CLASSES",
    "RULES",
    "run_rules",
]

#: Modules RP007 holds to the serving-layer locking discipline.
SYNCHRONIZED_PACKAGES = ("repro/serve/",)
SYNCHRONIZED_MODULES = ("repro/core/cache.py",)

#: Classes whose instance attributes are shared across threads.
GUARDED_CLASSES = frozenset(
    {
        "PredicateCache",
        "QueryServer",
        "AdmissionController",
        "ClusterHealthMonitor",
        "CacheStore",
        "ClusterCaches",
    }
)

#: Function displays that concurrent threads enter directly.
ENTRY_POINTS = (
    "scan._scan_slice",
    "QueryServer._worker_loop",
    "ClusterHealthMonitor._run",
)


def _chain_text(chain: Sequence[str]) -> str:
    return " -> ".join(chain)


# -- RP007 --------------------------------------------------------------------


def _rp007(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for fx in program.effects.values():
        info = fx.info
        if not (
            info.module.startswith(SYNCHRONIZED_PACKAGES)
            or info.module in SYNCHRONIZED_MODULES
        ):
            continue
        for mutation in fx.mutations:
            if mutation.guarded or not mutation.attr.startswith("_"):
                continue
            findings.append(
                Finding(
                    "RP007",
                    f"RP007:{info.display}:{mutation.attr}",
                    program.path_of(info.module),
                    mutation.line,
                    f"self.{mutation.attr} is mutated ({mutation.kind}) "
                    "without holding a lock; wrap the mutation in "
                    "`with <lock>:`, or move it into __init__ or a helper "
                    "documented as caller-holds-lock",
                )
            )
    return findings


# -- RP010 --------------------------------------------------------------------


def _rp010(program: Program) -> List[Finding]:
    edges, inventory = program.edges, program.inventory
    findings: List[Finding] = []
    by_pair = {(e.src, e.dst): e for e in edges}
    for cycle in find_cycles(edges):
        key = "RP010:" + "->".join(cycle)
        witness_parts = []
        for src, dst in zip(cycle, cycle[1:]):
            edge = by_pair.get((src, dst))
            if edge is not None:
                witness_parts.append(
                    f"{src} -> {dst} at {_chain_text(edge.chain)}"
                )
        first = by_pair.get((cycle[0], cycle[1]))
        lock = inventory.locks.get(cycle[0])
        findings.append(
            Finding(
                "RP010",
                key,
                program.path_of(lock.module) if lock else "<project>",
                first.line if first else 0,
                "lock-order cycle "
                + " -> ".join(cycle)
                + " (potential deadlock); "
                + "; ".join(witness_parts),
            )
        )
    return findings


# -- RP011 --------------------------------------------------------------------


def _rp011(program: Program) -> List[Finding]:
    graph, summaries = program.graph, program.summaries
    findings: Dict[str, Finding] = {}

    def emit(
        holder_display: str,
        module: str,
        line: int,
        kind: str,
        detail: str,
        cv: str,
        held: FrozenSet[str],
        chain: Sequence[str],
    ) -> None:
        relevant = set(held) - ({cv} if kind == "cv_wait" else set())
        if not relevant:
            return
        origin = chain[-1].rsplit(":", 1)[0] if chain else holder_display
        key = f"RP011:{holder_display}:{detail}@{origin}"
        if key in findings:
            return
        findings[key] = Finding(
            "RP011",
            key,
            program.path_of(module),
            line,
            f"blocking {kind} ({detail}) while holding "
            + ", ".join(sorted(relevant))
            + (f" via {_chain_text(chain)}" if len(chain) > 1 else ""),
        )

    for qualid, fx in program.effects.items():
        info = fx.info
        for op in fx.blocking:
            emit(
                info.display, info.module, op.line,
                op.kind, op.detail, op.cv, op.held,
                (f"{info.display}:{op.line}",),
            )
        for edge in graph.callees(qualid):
            if not edge.held:
                continue
            for entry in summaries.blocking.get(edge.callee, {}).values():
                emit(
                    info.display, info.module, edge.line,
                    entry.kind, entry.detail, entry.cv, edge.held,
                    (f"{info.display}:{edge.line}", *entry.chain),
                )
    return list(findings.values())


# -- RP012 --------------------------------------------------------------------


def _reachable(graph: CallGraph, roots: Sequence[str]) -> Set[str]:
    seen: Set[str] = set(roots)
    stack = list(roots)
    while stack:
        current = stack.pop()
        for edge in graph.callees(current):
            if edge.callee not in seen:
                seen.add(edge.callee)
                stack.append(edge.callee)
    return seen


def _rp012(program: Program) -> List[Finding]:
    project, effects = program.project, program.effects
    graph, inventory = program.graph, program.inventory
    roots = [
        qualid
        for qualid, fx in effects.items()
        if fx.info.display in ENTRY_POINTS
    ]
    reachable = _reachable(graph, roots)
    findings: Dict[str, Finding] = {}

    for qualid in sorted(reachable):
        fx = effects.get(qualid)
        if fx is None:
            continue
        info = fx.info
        # Unguarded mutations of guarded-class state.
        if info.cls in GUARDED_CLASSES:
            for mutation in fx.mutations:
                if mutation.guarded:
                    continue
                key = f"RP012:{info.display}:{mutation.attr}"
                if key in findings:
                    continue
                findings[key] = Finding(
                    "RP012",
                    key,
                    program.path_of(info.module),
                    mutation.line,
                    f"unguarded write to self.{mutation.attr} "
                    f"({mutation.kind}) reachable from a worker "
                    "entry point without a dominating lock",
                )
        # Contract violations: calling a caller-holds helper bare.
        for edge in graph.callees(qualid):
            if not edge.exact:
                continue  # by-name fallback is too coarse for contracts
            callee = project.functions.get(edge.callee)
            if callee is None or not callee.contracts:
                continue
            required = {
                inventory.resolve_self_attr(callee.cls, attr)
                for attr in callee.contracts
            }
            required.discard(None)
            missing = sorted(lock for lock in required if lock not in edge.held)
            if not missing:
                continue
            key = f"RP012:{info.display}:calls:{callee.display}"
            if key in findings:
                continue
            findings[key] = Finding(
                "RP012",
                key,
                program.path_of(info.module),
                edge.line,
                f"calls {callee.display} (contract: caller holds "
                + ", ".join(missing)
                + ") without holding it",
            )
    return list(findings.values())


# -- the table ----------------------------------------------------------------

Check = Callable[[Program], List[Finding]]


def _lexical(program: Program) -> List[Finding]:
    return lexical_findings(program.files)


#: code -> (summary, the check that emits it).  RP004 is retired (see
#: the module docstring); its number is not reused.
RULES: Dict[str, Tuple[str, Check]] = {
    "RP001": (
        "raw hash() outside repro/engine/hashing.py "
        "(PYTHONHASHSEED-dependent; use stable FNV-1a hashing)",
        _lexical,
    ),
    "RP002": (
        "ambient time/randomness in core/, engine/, or persist/ "
        "(breaks the differential and chaos oracles; inject seeds/clocks)",
        _lexical,
    ),
    "RP003": (
        "bare or swallowing except on the read path "
        "(would hide StorageFault and break the degradation ladder)",
        _lexical,
    ),
    "RP005": (
        "persisted-format constant spelled as a literal outside "
        "repro/persist/format.py (format drift)",
        _lexical,
    ),
    "RP006": (
        "shared engine/cache state mutated inside scan worker code "
        "(installs belong to the coordinator barrier)",
        _lexical,
    ),
    "RP007": (
        "unsynchronized shared-state mutation in serving/cache code "
        "(mutate private attributes under the owning lock, or in a "
        "helper documented as caller-holds-lock)",
        _rp007,
    ),
    "RP008": (
        "StorageFault swallowed on a health/recovery path without "
        "counting it (resilience decisions must be observable: "
        "increment a metric or re-raise)",
        _lexical,
    ),
    "RP009": (
        "cache-mutating call inside repro/reuse/ (reuse planning is "
        "read-only; every served result must route through the "
        "differential-oracle-covered install path in engine/scan.py)",
        _lexical,
    ),
    "RP010": (
        "lock-acquisition-order graph must be acyclic (deadlock)",
        _rp010,
    ),
    "RP011": ("no blocking operation while holding a lock", _rp011),
    "RP012": (
        "shared state reached from worker entry points must be "
        "lock-guarded (RP007's mutation records, by reachability)",
        _rp012,
    ),
}


def run_rules(program: Program) -> List[Finding]:
    """Every rule's findings, each distinct check run once."""
    findings: List[Finding] = []
    for check in dict.fromkeys(check for _, check in RULES.values()):
        findings.extend(check(program))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.key))
    return findings
