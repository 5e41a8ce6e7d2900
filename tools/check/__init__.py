"""The project checker: one parse, one program model, one rule table.

Generic linters cannot know that builtin ``hash()`` broke
reproducibility once already, that the differential/chaos oracles only
work because the hot path has no ambient clocks or randomness, that
every cache write belongs at the coordinator barrier and under the
owning lock (the paper's safety argument: cached ranges are a superset
of truth *because* nothing installs around the re-check), or that the
lock-order graph must stay acyclic.  :data:`~tools.check.rules.RULES`
encodes those repo-specific rules, RP001–RP012; every one reports the
same :class:`Finding`, and any finding can be waived by key in
``waivers.toml``.

Use as a library (the tests do)::

    from tools.check import check_paths, check_sources
    result = check_paths(["src/repro"])
    result.unwaived, result.waived, result.program.edge_names()

or from the command line::

    python -m tools.check src/repro            # exit 1 on unwaived
    python -m tools.check src/repro --graph    # print lock-order edges
    python -m tools.check --list-rules
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .astutils import ProjectFiles, parse_files, parse_sources
from .findings import (
    Finding,
    Waiver,
    apply_waivers,
    load_waivers,
    parse_waivers,
)
from .model import Program, build_program
from .rules import RULES, run_rules

__all__ = [
    "CheckResult",
    "Finding",
    "RULES",
    "WAIVERS_FILE",
    "check_paths",
    "check_sources",
    "main",
]

#: Waiver file shipped next to this package.
WAIVERS_FILE = os.path.join(os.path.dirname(__file__), "waivers.toml")


@dataclass
class CheckResult:
    """Everything one checker run produced."""

    program: Program
    findings: List[Finding]
    seconds: float = 0.0

    @property
    def unwaived(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]


def _check(files: ProjectFiles, waivers: Sequence[Waiver]) -> CheckResult:
    start = time.perf_counter()
    program = build_program(files)
    findings = run_rules(program)
    apply_waivers(findings, waivers)
    return CheckResult(program, findings, time.perf_counter() - start)


def check_paths(
    paths: Sequence[str], waivers_path: str = WAIVERS_FILE
) -> CheckResult:
    """Check every ``.py`` file under ``paths``."""
    return _check(parse_files(paths), load_waivers(waivers_path))


def check_sources(sources: Dict[str, str], waivers_toml: str = "") -> CheckResult:
    """Check in-memory sources keyed by (virtual) path (fixture tests)."""
    return _check(parse_sources(sources), parse_waivers(waivers_toml))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.check",
        description="Project checker (rules RP001-RP012).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--waivers", default=WAIVERS_FILE,
        help="waiver TOML (default: tools/check/waivers.toml)",
    )
    parser.add_argument(
        "--graph", action="store_true",
        help="print the lock-acquisition-order graph",
    )
    parser.add_argument(
        "--show-waived", action="store_true",
        help="also print waived findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, (summary, _) in RULES.items():
            print(f"{code}  {summary}")
        return 0
    if not args.paths:
        parser.error("no paths given")

    result = check_paths(args.paths, args.waivers)
    program = result.program

    if args.graph:
        print(f"lock-order graph: {len(program.edges)} edge(s), "
              f"{len(program.inventory.locks)} lock(s)")
        for edge in program.edges:
            print(f"  {edge.src} -> {edge.dst}   [{' -> '.join(edge.chain)}]")

    unwaived = result.unwaived
    for finding in result.findings if args.show_waived else unwaived:
        print(finding.render())

    print(
        f"tools.check: {len(unwaived)} finding(s) "
        f"({len(result.waived)} waived) across {len(program.files)} file(s) "
        f"in {result.seconds:.2f}s"
    )
    return 1 if unwaived else 0
