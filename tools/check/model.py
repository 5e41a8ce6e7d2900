"""The one program model every rule reads.

Built once per run from the parsed files:

1. :func:`~tools.check.project.build_project` — functions, classes,
   attribute-type inference, docstring contracts;
2. :func:`~tools.check.locks.build_inventory` /
   :func:`~tools.check.locks.extract_effects` — lock inventory and
   per-function acquire/call/blocking/mutation effects;
3. :func:`~tools.check.callgraph.build_callgraph` — call-site
   resolution (typed where inferable, by-name fallback otherwise);
4. :func:`~tools.check.fixpoint.compute_summaries` /
   :func:`~tools.check.fixpoint.build_lock_order` — interprocedural
   fixpoint and the global lock-order graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .astutils import ProjectFiles
from .callgraph import CallGraph, build_callgraph
from .fixpoint import (
    LockOrderEdge,
    Summaries,
    build_lock_order,
    compute_summaries,
)
from .locks import (
    FunctionEffects,
    LockInventory,
    build_inventory,
    extract_effects,
)
from .project import Project, build_project

__all__ = ["Program", "build_program"]


@dataclass
class Program:
    """Parsed files plus every index the rules consume."""

    files: ProjectFiles
    project: Project
    inventory: LockInventory
    effects: Dict[str, FunctionEffects]
    graph: CallGraph
    summaries: Summaries
    edges: List[LockOrderEdge]

    def path_of(self, module: str) -> str:
        """The path a module was handed in under (findings print it)."""
        return self.files.by_module.get(module, module)

    def edge_names(self) -> Set[Tuple[str, str]]:
        """The static lock-order graph as ``(src, dst)`` name pairs.

        The runtime witness checks every *observed* edge is in here.
        """
        return {(e.src, e.dst) for e in self.edges}


def build_program(files: ProjectFiles) -> Program:
    project = build_project(files)
    inventory = build_inventory(project)
    effects = extract_effects(project, inventory)
    graph = build_callgraph(project, effects)
    summaries = compute_summaries(effects, graph)
    edges = build_lock_order(effects, graph, summaries, inventory)
    return Program(files, project, inventory, effects, graph, summaries, edges)
