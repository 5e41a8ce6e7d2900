"""Project-specific AST linter for the predicate-caching reproduction.

Generic linters cannot know that builtin ``hash()`` broke reproducibility
once already (PYTHONHASHSEED salting of str — fixed by PR 1's FNV-1a
hashing), that the differential/chaos oracles only work because the hot
path has no ambient clocks or randomness, or that the on-disk snapshot
format has exactly one source of truth for its magic numbers.  This
linter encodes those repo-specific rules:

========  ==============================================================
RP001     no raw ``hash()`` outside ``repro/engine/hashing.py`` (dunder
          ``__hash__`` definitions excepted — in-process only)
RP002     no ambient time/randomness (``time.time``, ``random.*``,
          ``datetime.now``) in ``core/``, ``engine/``, ``persist/``
RP003     no bare ``except:`` / swallowing ``except Exception: pass`` on
          the read path (``core/``, ``engine/``, ``storage/``,
          ``lake/``, ``persist/``)
RP004     every ``QueryCounters`` field must appear in ``merge`` and be
          mentioned by a registered metric name
RP005     persisted-format constants (snapshot magic, version, section
          and op ids) must not be spelled as literals outside
          ``repro/persist/format.py``
========  ==============================================================

Use as a library (the tests do)::

    from tools.lint import lint_source, lint_paths
    findings = lint_paths(["src"])

or from the command line::

    python -m tools.lint src/
"""

from __future__ import annotations

import sys
import time
from typing import Optional, Sequence

from .astutils import parse_files
from .rules import (
    RULES,
    Finding,
    FormatConstants,
    check_counters,
    extract_format_constants,
    lint_paths,
    lint_project,
    lint_source,
)

__all__ = [
    "Finding",
    "FormatConstants",
    "RULES",
    "check_counters",
    "extract_format_constants",
    "lint_paths",
    "lint_project",
    "lint_source",
    "main",
]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the given paths, print findings, exit 1 on any."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "--list-rules" in args:
        # The whole-program concurrency rules live in tools.analyze but
        # share this numbering; list both sets so `--list-rules` is the
        # one catalogue of RP codes.
        from tools.analyze.rules import ANALYZE_RULES

        combined = {**RULES, **ANALYZE_RULES}
        for code in sorted(combined):
            print(f"{code}  {combined[code]}")
        return 0
    paths = [a for a in args if not a.startswith("-")] or ["src"]
    started = time.perf_counter()
    project = parse_files(paths)
    findings = lint_project(project)
    elapsed = time.perf_counter() - started
    for finding in findings:
        print(f"{finding.path}:{finding.line}:{finding.col} "
              f"{finding.code} {finding.message}")
    print(
        f"tools.lint: {len(findings)} finding(s) across "
        f"{len(project)} file(s) in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if findings else 0
