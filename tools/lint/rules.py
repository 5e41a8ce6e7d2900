"""Rule implementations for the project linter.

Per-file rules (RP001/RP002/RP003/RP005) run as one AST walk per file;
module applicability is decided from the file's path relative to the
source root (``repro/engine/scan.py`` etc.), so fixture tests can run
any rule by handing :func:`lint_source` a virtual path.  RP004 is a
cross-file rule over ``engine/counters.py`` and ``engine/engine.py``.

Every source file is read and parsed exactly once: :func:`lint_paths`
builds one :class:`~tools.lint.astutils.ProjectFiles` and hands the
shared trees to the per-file checker and the cross-file rules.  The
string-taking entry points (:func:`lint_source`,
:func:`check_counters`, :func:`extract_format_constants`) are thin
wrappers over the tree-taking cores, kept for fixture tests.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .astutils import (
    LOCK_NAME_HINTS as _LOCK_NAME_HINTS,
    ProjectFiles,
    attr_chain as _attr_chain,
    normalize_path as _normalize_path,
    parse_files,
    terminal_name as _terminal_name,
)

__all__ = [
    "Finding",
    "FormatConstants",
    "RULES",
    "check_counters",
    "check_counters_trees",
    "extract_format_constants",
    "extract_format_constants_tree",
    "lint_paths",
    "lint_project",
    "lint_source",
    "lint_tree",
]

RULES: Dict[str, str] = {
    "RP001": "raw hash() outside repro/engine/hashing.py "
             "(PYTHONHASHSEED-dependent; use stable FNV-1a hashing)",
    "RP002": "ambient time/randomness in core/, engine/, or persist/ "
             "(breaks the differential and chaos oracles; inject seeds/clocks)",
    "RP003": "bare or swallowing except on the read path "
             "(would hide StorageFault and break the degradation ladder)",
    "RP004": "QueryCounters field missing from merge or without a "
             "registered metric (counter drift)",
    "RP005": "persisted-format constant spelled as a literal outside "
             "repro/persist/format.py (format drift)",
    "RP006": "shared engine/cache state mutated inside scan worker code "
             "(installs belong to the coordinator barrier)",
    "RP007": "unsynchronized shared-state mutation in serving/cache code "
             "(mutate private attributes under the owning lock, or in a "
             "helper documented as caller-holds-lock)",
    "RP008": "StorageFault swallowed on a health/recovery path without "
             "counting it (resilience decisions must be observable: "
             "increment a metric or re-raise)",
    "RP009": "cache-mutating call inside repro/reuse/ (reuse planning is "
             "read-only; every served result must route through the "
             "differential-oracle-covered install path in engine/scan.py)",
}

#: The only module allowed to call builtin ``hash()`` (RP001).
HASHING_MODULE = "repro/engine/hashing.py"

#: Packages where ambient time/randomness is banned (RP002).
DETERMINISTIC_PACKAGES = ("repro/core/", "repro/engine/", "repro/persist/")

#: Read-path packages where swallowing excepts are banned (RP003).
READ_PATH_PACKAGES = (
    "repro/core/",
    "repro/engine/",
    "repro/storage/",
    "repro/lake/",
    "repro/persist/",
)

#: The single source of truth for persisted-format constants (RP005).
FORMAT_MODULE = "repro/persist/format.py"

#: Module-level names extracted from the format module for RP005.
FORMAT_CONSTANT_NAMES = (
    "SNAPSHOT_MAGIC",
    "FORMAT_VERSION",
    "SECTION_META",
    "SECTION_ENTRY",
    "SECTION_END",
    "OP_STATE",
    "OP_DROP",
)

#: Identifier fragments that mark an int literal as format-flavoured in
#: a comparison (RP005): ``kind == 2``, ``version > 1``, ``op != 255``.
_FORMAT_NAME_HINTS = ("kind", "section", "version", "magic", "op")

#: Modules whose scan-worker functions RP006 inspects.
PARALLEL_SCAN_MODULES = (
    "repro/engine/scan.py",
    "repro/engine/parallel.py",
)

#: Functions that may run on scan worker threads.  Everything else in
#: the modules above is coordinator-side and may install freely.
WORKER_FUNCTIONS = ("_scan_slice", "_prune_with_zonemaps")

#: Methods that mutate scan-shared engine/cache state.  Calling one from
#: worker code is a data race *and* makes the mutation order depend on
#: thread scheduling; such calls belong after the barrier, on the
#: coordinating thread (the allowlisted install sites in execute_scan).
_RP006_SHARED_MUTATORS = frozenset(
    {
        "record_slice_scan",
        "record_scan_stats",
        "get_or_create",
        "drop_stale",
        "watch_table",
        "invalidate_table",
        "invalidate_block",
        "observe",
    }
)

#: Modules RP007 holds to the serving-layer locking discipline: every
#: mutation of a private ``self._x`` attribute happens under a lexical
#: ``with <lock>:`` block, inside ``__init__``, or inside a helper whose
#: docstring declares "caller holds ...lock" (DESIGN.md §12).
SYNCHRONIZED_PACKAGES = ("repro/serve/",)
SYNCHRONIZED_MODULES = ("repro/core/cache.py",)

#: Identifier fragments that mark a ``with`` context expression as a
#: lock for RP007 — shared with the analyzer via ``astutils``
#: (imported above as ``_LOCK_NAME_HINTS``).

#: Container methods that mutate their receiver (RP007): calling one on
#: a private ``self._x`` container is a shared-state write.
_RP007_CONTAINER_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Docstring markers that exempt a whole function from RP007: the
#: function documents its synchronization contract instead of taking
#: the lock itself.
_RP007_EXEMPT_DOCSTRING = re.compile(
    r"caller holds[^.\n]*lock|caller is `*__init__", re.IGNORECASE
)

#: Modules RP008 holds to the resilience observability contract: an
#: except handler that catches a StorageFault subclass must count the
#: fault (a ``self.<counter> += 1`` / ``.inc()`` call) or re-raise —
#: a silently swallowed fault is an invisible failover decision.
RESILIENCE_MODULES = (
    "repro/serve/health.py",
    "repro/serve/recovery.py",
)

#: Modules RP009 holds to the reuse read-only contract (DESIGN.md §14):
#: conjunct decomposition, composition, and subsumption matching may
#: *read* the cache (``lookup_part``, ``entries``, ``select_entry``) but
#: never write it — ad-hoc installs from planning code would bypass the
#: coordinator-barrier install path that the differential oracle covers.
REUSE_MODULES = ("repro/reuse/",)

#: Cache methods that mutate entries, accounting, or watch state.
_RP009_CACHE_WRITERS = frozenset(
    {
        "record_slice_scan",
        "record_entry_stats",
        "record_scan_stats",
        "get_or_create",
        "install_restored",
        "invalidate_table",
        "invalidate_block",
        "invalidate_build_side",
        "clear",
        "drop_stale",
        "trim_to_bytes",
        "attach_store",
        "watch_table",
    }
)

#: The StorageFault family (repro/faults/errors.py) RP008 watches for
#: in except clauses, matched by terminal name so qualified references
#: (``faults.NodeDownError``) count too.
_STORAGE_FAULT_NAMES = frozenset(
    {
        "StorageFault",
        "TransientStorageError",
        "CorruptedBlockError",
        "RetryBudgetExceeded",
        "NodeDownError",
    }
)


@dataclass(frozen=True)
class Finding:
    """One linter finding, stable enough to assert on in tests."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


@dataclass(frozen=True)
class FormatConstants:
    """Persisted-format constant values RP005 hunts for as literals."""

    magic: bytes = b""
    ints: Tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.magic and not self.ints


def extract_format_constants(source: str) -> FormatConstants:
    """String wrapper over :func:`extract_format_constants_tree`."""
    return extract_format_constants_tree(ast.parse(source))


def extract_format_constants_tree(tree: ast.Module) -> FormatConstants:
    """Pull the format constants out of ``repro/persist/format.py``.

    Only plain module-level ``NAME = <constant>`` assignments to the
    known constant names are read, so the extraction keeps working as
    the module grows.
    """
    magic = b""
    ints: List[int] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id not in FORMAT_CONSTANT_NAMES:
            continue
        if not isinstance(node.value, ast.Constant):
            continue
        value = node.value.value
        if isinstance(value, bytes):
            magic = value
        elif isinstance(value, int):
            ints.append(value)
    return FormatConstants(magic=magic, ints=tuple(ints))


class _FileChecker(ast.NodeVisitor):
    """One pass applying every per-file rule that covers this module."""

    def __init__(
        self,
        path: str,
        module: str,
        format_constants: Optional[FormatConstants],
    ) -> None:
        self.path = path
        self.module = module
        self.findings: List[Finding] = []
        self._func_stack: List[str] = []
        self.check_hash = module != HASHING_MODULE
        self.check_determinism = module.startswith(DETERMINISTIC_PACKAGES)
        self.check_excepts = module.startswith(READ_PATH_PACKAGES)
        self.check_resilience = module in RESILIENCE_MODULES
        self.check_worker_mutation = module in PARALLEL_SCAN_MODULES
        self.check_reuse_readonly = module.startswith(REUSE_MODULES)
        self.check_sync = (
            module.startswith(SYNCHRONIZED_PACKAGES)
            or module in SYNCHRONIZED_MODULES
        )
        self._lock_depth = 0
        self._sync_exempt_stack: List[bool] = []
        self.format_constants = (
            format_constants
            if format_constants is not None and module != FORMAT_MODULE
            else None
        )

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code,
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    # -- function stack (RP001's __hash__ exemption, RP007 contracts) -----

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        exempt = node.name == "__init__" or bool(
            (doc := ast.get_docstring(node)) and _RP007_EXEMPT_DOCSTRING.search(doc)
        )
        self._sync_exempt_stack.append(exempt)
        self.generic_visit(node)
        self._sync_exempt_stack.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- RP007 ------------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(
            any(
                hint in _terminal_name(item.context_expr)
                for hint in _LOCK_NAME_HINTS
            )
            for item in node.items
        )
        if holds_lock:
            self._lock_depth += 1
        self.generic_visit(node)
        if holds_lock:
            self._lock_depth -= 1

    @staticmethod
    def _private_self_attr(node: ast.AST) -> str:
        """``_x`` when the expression is rooted at ``self._x``, else ''.

        Subscript chains count (``self._queue[i]`` mutates ``_queue``);
        deeper attribute chains do not (``self._config.flag`` mutates
        the config object, whose ownership the rule cannot see).
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
        ):
            return node.attr
        return ""

    def _sync_exempt_here(self) -> bool:
        return self._lock_depth > 0 or any(self._sync_exempt_stack)

    def _check_sync_mutation(self, node: ast.AST, targets) -> None:
        if not self.check_sync or self._sync_exempt_here():
            return
        for target in targets:
            attr = self._private_self_attr(target)
            if attr:
                self._emit(
                    "RP007",
                    node,
                    f"self.{attr} is mutated without holding a lock; wrap "
                    "the mutation in `with <lock>:`, or move it into "
                    "__init__ or a helper documented as caller-holds-lock",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_sync_mutation(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_sync_mutation(node, (node.target,))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_sync_mutation(node, (node.target,))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_sync_mutation(node, node.targets)
        self.generic_visit(node)

    # -- RP001 / RP002 calls ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.check_hash
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "__hash__" not in self._func_stack
        ):
            self._emit(
                "RP001",
                node,
                "raw hash() is PYTHONHASHSEED-dependent for str; use "
                "repro.engine.hashing (stable FNV-1a) instead",
            )
        if self.check_determinism:
            chain = _attr_chain(node.func)
            self._check_ambient_call(node, chain)
        if (
            self.check_worker_mutation
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RP006_SHARED_MUTATORS
            and any(name in WORKER_FUNCTIONS for name in self._func_stack)
        ):
            self._emit(
                "RP006",
                node,
                f".{node.func.attr}() mutates shared engine/cache state "
                "from scan worker code; batch it at the coordinator's "
                "barrier (parallel workers must not install entries)",
            )
        if (
            self.check_reuse_readonly
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RP009_CACHE_WRITERS
        ):
            self._emit(
                "RP009",
                node,
                f".{node.func.attr}() mutates the cache from reuse "
                "planning code; reuse modules are read-only — serve "
                "through the coordinator install path in engine/scan.py "
                "(covered by the differential oracle)",
            )
        if (
            self.check_sync
            and not self._sync_exempt_here()
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RP007_CONTAINER_MUTATORS
        ):
            attr = self._private_self_attr(node.func.value)
            if attr:
                self._emit(
                    "RP007",
                    node,
                    f"self.{attr}.{node.func.attr}() mutates shared state "
                    "without holding a lock; wrap it in `with <lock>:`, or "
                    "move it into __init__ or a caller-holds-lock helper",
                )
        self.generic_visit(node)

    _BANNED_CALLS = {
        "time.time": "time.time() is ambient wall-clock",
        "time.time_ns": "time.time_ns() is ambient wall-clock",
        "datetime.now": "datetime.now() is ambient wall-clock",
        "datetime.utcnow": "datetime.utcnow() is ambient wall-clock",
        "datetime.today": "datetime.today() is ambient wall-clock",
        "datetime.datetime.now": "datetime.datetime.now() is ambient wall-clock",
        "datetime.datetime.utcnow": "datetime.datetime.utcnow() is ambient "
                                    "wall-clock",
        "date.today": "date.today() is ambient wall-clock",
    }

    def _check_ambient_call(self, node: ast.Call, chain: str) -> None:
        reason = self._BANNED_CALLS.get(chain)
        if reason is None and chain.startswith("random.") and chain != "random.Random":
            reason = (
                f"{chain}() draws from the process-global random stream"
            )
        if reason is not None:
            self._emit(
                "RP002",
                node,
                f"{reason}; thread a seeded stream/clock through instead "
                "(protects the differential and chaos oracles)",
            )

    # -- RP002 imports ----------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.check_determinism and node.level == 0:
            if node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        self._emit(
                            "RP002",
                            node,
                            f"importing {alias.name} from time smuggles in "
                            "ambient wall-clock",
                        )
            elif node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        self._emit(
                            "RP002",
                            node,
                            f"importing {alias.name} from random smuggles in "
                            "the process-global random stream",
                        )
        self.generic_visit(node)

    # -- RP003 -------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.check_excepts:
            if node.type is None:
                self._emit(
                    "RP003",
                    node,
                    "bare except on the read path swallows StorageFault "
                    "(breaks the retry/degradation ladder); name the "
                    "exception types",
                )
            elif self._catches_everything(node.type) and self._swallows(node.body):
                self._emit(
                    "RP003",
                    node,
                    "except Exception: pass on the read path silently "
                    "swallows StorageFault; handle or count the failure",
                )
        if (
            self.check_resilience
            and node.type is not None
            and self._catches_storage_fault(node.type)
            and not self._counts_fault(node.body)
        ):
            self._emit(
                "RP008",
                node,
                "a StorageFault caught on a health/recovery path must be "
                "counted (increment a self.<counter> or call .inc()) or "
                "re-raised; a silent catch hides a failover decision",
            )
        self.generic_visit(node)

    @staticmethod
    def _catches_everything(node: ast.expr) -> bool:
        names: Iterable[ast.expr]
        names = node.elts if isinstance(node, ast.Tuple) else (node,)
        for name in names:
            if isinstance(name, ast.Name) and name.id in (
                "Exception",
                "BaseException",
            ):
                return True
        return False

    @staticmethod
    def _catches_storage_fault(node: ast.expr) -> bool:
        names: Iterable[ast.expr]
        names = node.elts if isinstance(node, ast.Tuple) else (node,)
        for name in names:
            terminal = ""
            if isinstance(name, ast.Attribute):
                terminal = name.attr
            elif isinstance(name, ast.Name):
                terminal = name.id
            if terminal in _STORAGE_FAULT_NAMES:
                return True
        return False

    @staticmethod
    def _counts_fault(body: Sequence[ast.stmt]) -> bool:
        """True when a handler observably accounts for the fault:
        a re-raise, a ``self.<counter> += 1``, or an ``.inc()`` call."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if isinstance(sub, ast.AugAssign):
                    target = sub.target
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    root = target
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(root, ast.Name)
                        and root.id == "self"
                    ):
                        return True
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "inc"
                ):
                    return True
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            ):
                continue
            return False
        return True

    # -- RP005 -------------------------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        fc = self.format_constants
        if (
            fc is not None
            and fc.magic
            and isinstance(node.value, bytes)
            and node.value == fc.magic
        ):
            self._emit(
                "RP005",
                node,
                f"snapshot magic {fc.magic!r} spelled as a literal; import "
                "SNAPSHOT_MAGIC from repro.persist.format",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        fc = self.format_constants
        if fc is not None and fc.ints:
            operands = [node.left, *node.comparators]
            names = [_terminal_name(op) for op in operands]
            hinted = any(
                any(hint in name for hint in _FORMAT_NAME_HINTS)
                for name in names
                if name
            )
            if hinted:
                for operand in operands:
                    if (
                        isinstance(operand, ast.Constant)
                        and isinstance(operand.value, int)
                        and not isinstance(operand.value, bool)
                        and operand.value in fc.ints
                    ):
                        self._emit(
                            "RP005",
                            operand,
                            f"format constant {operand.value} compared as a "
                            "literal; import the named constant from "
                            "repro.persist.format",
                        )
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str,
    format_constants: Optional[FormatConstants] = None,
) -> List[Finding]:
    """String wrapper over :func:`lint_tree` (fixture tests)."""
    return lint_tree(ast.parse(source), path, format_constants)


def lint_tree(
    tree: ast.Module,
    path: str,
    format_constants: Optional[FormatConstants] = None,
) -> List[Finding]:
    """Run every applicable per-file rule on one parsed module.

    ``path`` decides applicability (virtual paths like
    ``"repro/core/x.py"`` work); ``format_constants`` feeds RP005 and
    may be omitted to skip that rule.
    """
    module = _normalize_path(path)
    checker = _FileChecker(path, module, format_constants)
    checker.visit(tree)
    return checker.findings


# -- RP004 (cross-file) ------------------------------------------------------


def _counter_fields(tree: ast.Module) -> List[Tuple[str, int]]:
    """(name, line) of every dataclass field on QueryCounters."""
    fields: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "QueryCounters":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields.append((stmt.target.id, stmt.lineno))
    return fields


def _merge_attr_names(tree: ast.Module) -> Optional[set]:
    """Attribute names referenced inside ``QueryCounters.merge``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "QueryCounters":
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "merge":
                    return {
                        sub.attr
                        for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Attribute)
                    }
    return None


def _string_constants(tree: ast.Module) -> List[str]:
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def check_counters(
    counters_source: str,
    engine_source: str,
    counters_path: str = "repro/engine/counters.py",
    engine_path: str = "repro/engine/engine.py",
) -> List[Finding]:
    """String wrapper over :func:`check_counters_trees` (fixture tests)."""
    return check_counters_trees(
        ast.parse(counters_source),
        ast.parse(engine_source),
        counters_path=counters_path,
        engine_path=engine_path,
    )


def check_counters_trees(
    counters_tree: ast.Module,
    engine_tree: ast.Module,
    counters_path: str = "repro/engine/counters.py",
    engine_path: str = "repro/engine/engine.py",
) -> List[Finding]:
    """RP004: QueryCounters fields vs. merge and metric names.

    A field added to the dataclass but forgotten in ``merge`` silently
    under-counts sub-plans; one without a metric name is invisible to
    dashboards — exactly the drift PRs 2–3 risked when they grew the
    counter set.
    Metric coverage is satisfied when the field name occurs inside any
    string constant of the engine module (the registration name lists).
    """
    findings: List[Finding] = []
    fields = _counter_fields(counters_tree)
    if not fields:
        return findings
    metric_strings = _string_constants(engine_tree)
    referenced = _merge_attr_names(counters_tree)
    if referenced is None:
        findings.append(
            Finding(
                "RP004",
                counters_path,
                1,
                0,
                "QueryCounters has no merge() method to keep its "
                "fields in sync",
            )
        )
    else:
        for name, line in fields:
            if name not in referenced:
                findings.append(
                    Finding(
                        "RP004",
                        counters_path,
                        line,
                        0,
                        f"field {name!r} is not handled by "
                        "QueryCounters.merge()",
                    )
                )
    for name, line in fields:
        if not any(name in text for text in metric_strings):
            findings.append(
                Finding(
                    "RP004",
                    counters_path,
                    line,
                    0,
                    f"field {name!r} has no registered metric in "
                    f"{engine_path} (no metric name mentions it)",
                )
            )
    return findings


# -- driver ------------------------------------------------------------------


def lint_project(project: ProjectFiles) -> List[Finding]:
    """Lint every file of an already-parsed project with all rules.

    Each tree is walked once per file by the combined per-file checker;
    the cross-file rules (RP004, RP005's constant extraction) consume
    the same shared trees instead of re-parsing.  RP005's constant
    values come from ``repro/persist/format.py`` when it is among the
    parsed files; RP004 runs when both ``engine/counters.py`` and
    ``engine/engine.py`` are present.
    """
    format_constants: Optional[FormatConstants] = None
    format_tree = project.tree_for_module(FORMAT_MODULE)
    if format_tree is not None:
        format_constants = extract_format_constants_tree(format_tree)

    findings: List[Finding] = []
    for file_path, tree in project.trees.items():
        findings.extend(lint_tree(tree, file_path, format_constants))

    counters_path = project.by_module.get("repro/engine/counters.py")
    engine_path = project.by_module.get("repro/engine/engine.py")
    if counters_path is not None and engine_path is not None:
        findings.extend(
            check_counters_trees(
                project.trees[counters_path],
                project.trees[engine_path],
                counters_path=counters_path,
                engine_path=engine_path,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_paths(paths: Sequence[Union[str, os.PathLike]]) -> List[Finding]:
    """Read + parse every ``.py`` file under ``paths`` once, lint all."""
    return lint_project(parse_files(paths))
