"""The purely lexical rules: one visitor, one walk per file.

RP001–RP003, RP005 and RP009 need nothing but a file's
own syntax tree and its path relative to the source root
(``repro/engine/scan.py`` etc.), which decides which of them apply —
so fixtures can exercise any rule under a virtual path.  RP005 also
reads the persisted-format constants out of ``repro/persist/format.py``
when that module is among the parsed files.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence, Tuple

from .astutils import ProjectFiles, attr_chain, normalize_path, terminal_name
from .findings import Finding

__all__ = ["CACHE_WRITERS", "lexical_findings"]

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

#: Methods that mutate entries, accounting, layout stamps or store state of a
#: predicate cache; RP009 bans them anywhere under ``repro/reuse/``.
CACHE_WRITERS = frozenset(
    {
        "record_slice_scan",
        "record_reuse_serve",
        "get_or_create",
        "install_restored",
        "invalidate_table",
        "clear",
        "drop_stale",
        "attach_store",
        "detach_store",
        "check_layout",
    }
)

#: Modules RP009 holds to the reuse read-only contract (DESIGN.md §14):
#: conjunct decomposition, composition, and subsumption matching may
#: *read* the cache (``lookup_part``, ``range_candidates``) but
#: never write it — ad-hoc installs from planning code would bypass the
#: coordinator-barrier install path that the differential oracle covers.
REUSE_MODULES = ("repro/reuse/",)


def _format_constants(tree: ast.Module) -> Tuple[bytes, Tuple[int, ...]]:
    """``(magic, ints)`` out of ``repro/persist/format.py``.

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
    return magic, tuple(ints)


class _FileChecker(ast.NodeVisitor):
    """One pass applying every per-file rule that covers this module."""

    def __init__(
        self, path: str, module: str, magic: bytes, format_ints: Tuple[int, ...]
    ) -> None:
        self.path = path
        self.module = module
        self.findings: List[Finding] = []
        self._func_stack: List[str] = []
        self.check_hash = module != HASHING_MODULE
        self.check_determinism = module.startswith(DETERMINISTIC_PACKAGES)
        self.check_excepts = module.startswith(READ_PATH_PACKAGES)
        self.check_reuse_readonly = module.startswith(REUSE_MODULES)
        self.magic = magic
        self.format_ints = format_ints

    def _emit(self, code: str, node: ast.AST, detail: str, message: str) -> None:
        scope = ".".join(self._func_stack) or "<module>"
        self.findings.append(
            Finding(
                code,
                f"{code}:{self.module}:{scope}:{detail}",
                self.path,
                getattr(node, "lineno", 0),
                message,
                col=getattr(node, "col_offset", 0),
            )
        )

    # -- function stack (RP001's __hash__ exemption, finding keys) --------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

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
                "hash",
                "raw hash() is PYTHONHASHSEED-dependent for str; use "
                "repro.engine.hashing (stable FNV-1a) instead",
            )
        if self.check_determinism:
            chain = attr_chain(node.func)
            self._check_ambient_call(node, chain)
        if (
            self.check_reuse_readonly
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in CACHE_WRITERS
        ):
            self._emit(
                "RP009",
                node,
                node.func.attr,
                f".{node.func.attr}() mutates the cache from reuse "
                "planning code; reuse modules are read-only — serve "
                "through the coordinator install path in engine/scan.py "
                "(covered by the differential oracle)",
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
                chain,
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
                            f"time.{alias.name}",
                            f"importing {alias.name} from time smuggles in "
                            "ambient wall-clock",
                        )
            elif node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        self._emit(
                            "RP002",
                            node,
                            f"random.{alias.name}",
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
                    "bare-except",
                    "bare except on the read path swallows StorageFault "
                    "(breaks the retry/degradation ladder); name the "
                    "exception types",
                )
            elif self._catches_everything(node.type) and self._swallows(node.body):
                self._emit(
                    "RP003",
                    node,
                    "swallowed-except",
                    "except Exception: pass on the read path silently "
                    "swallows StorageFault; handle or count the failure",
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
        if self.magic and isinstance(node.value, bytes) and node.value == self.magic:
            self._emit(
                "RP005",
                node,
                "magic",
                f"snapshot magic {self.magic!r} spelled as a literal; import "
                "SNAPSHOT_MAGIC from repro.persist.format",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.format_ints:
            operands = [node.left, *node.comparators]
            names = [terminal_name(op) for op in operands]
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
                        and operand.value in self.format_ints
                    ):
                        self._emit(
                            "RP005",
                            operand,
                            str(operand.value),
                            f"format constant {operand.value} compared as a "
                            "literal; import the named constant from "
                            "repro.persist.format",
                        )
        self.generic_visit(node)


def lexical_findings(files: ProjectFiles) -> List[Finding]:
    """Walk every parsed file once with the rules its path selects."""
    magic: bytes = b""
    format_ints: Tuple[int, ...] = ()
    format_tree = files.tree_for_module(FORMAT_MODULE)
    if format_tree is not None:
        magic, format_ints = _format_constants(format_tree)
    findings: List[Finding] = []
    for path, tree in files.trees.items():
        module = normalize_path(path)
        if module == FORMAT_MODULE:  # the defining module may spell them
            checker = _FileChecker(path, module, b"", ())
        else:
            checker = _FileChecker(path, module, magic, format_ints)
        checker.visit(tree)
        findings.extend(checker.findings)
    return findings
