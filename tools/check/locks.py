"""Lock inventory and per-function effect extraction.

The **inventory** maps every lock the project constructs to a stable
name shared with the runtime witness (``repro/obs/lockwitness.py``):

* ``self._lock = threading.RLock()`` in ``PredicateCache.__init__`` →
  ``PredicateCache._lock`` (kind ``rlock``);
* ``self._cv = threading.Condition()`` → ``QueryServer._cv`` (kind
  ``condition``; conditions default to an RLock, so they are treated
  as re-entrant);
* ``lockwitness.named_rlock("PredicateCache._lock")`` → the string
  literal itself, so static names and witness names agree by
  construction;
* module-level ``_POOLS_LOCK = threading.Lock()`` →
  ``parallel._POOLS_LOCK``.

The **effects pass** then walks every function once, tracking the
lexically held lock set (``with self._lock:`` scopes plus docstring
``Caller holds ...`` contract seeds), and records:

* ``acquires`` — lock acquisitions with the held-set at that point
  (direct lock-order edges);
* ``calls`` — every call site with its held-set (the interprocedural
  fixpoint turns these into transitive edges);
* ``blocking`` — blocking operations (``time.sleep``, file I/O,
  thread joins, ``Future.result``, condition waits) with held-sets;
* ``mutations`` — ``self.<attr>`` writes with their guardedness
  (under a lexical lock, contract-covered, or bare): the one mutation
  pass RP007 (per-module scope) and RP012 (reachability scope) filter.

Nested function and lambda bodies are *excluded* from the enclosing
function's effects: they run at some later time on some other stack
(scrape callbacks, thread targets), so charging their acquisitions to
the definition site would fabricate edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .astutils import attr_chain, normalize_path, terminal_name
from .project import FunctionInfo, Project

__all__ = [
    "LockDef",
    "LockInventory",
    "FunctionEffects",
    "CallSite",
    "Acquire",
    "BlockOp",
    "Mutation",
    "build_inventory",
    "extract_effects",
]

#: Identifier fragments that mark a ``with`` context expression as a
#: lock even when the inventory cannot resolve it (``with self._lock:``
#: in a class whose lock is built elsewhere, ``with guard:``).
LOCK_NAME_HINTS = ("lock", "cv", "cond", "guard", "mutex")

#: Constructor terminals recognized as lock objects, mapped to kinds.
_LOCK_CONSTRUCTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "named_lock": "lock",
    "named_rlock": "rlock",
    "named_condition": "condition",
}

#: Witness factory names whose first argument *is* the lock's name.
_NAMED_FACTORIES = ("named_lock", "named_rlock", "named_condition")

#: Callables treated as blocking file I/O when reached under a lock.
_IO_CALLS = frozenset({"open", "os.replace", "os.fsync", "os.makedirs"})

#: Receiver-name fragments marking ``.join()`` as a thread join.
_JOINABLE_HINTS = ("thread", "worker", "proc")


@dataclass(frozen=True)
class LockDef:
    """One lock in the inventory."""

    name: str       # "PredicateCache._lock" / "parallel._POOLS_LOCK"
    kind: str       # "lock" | "rlock" | "condition"
    module: str
    line: int

    @property
    def reentrant(self) -> bool:
        return self.kind in ("rlock", "condition")


@dataclass
class LockInventory:
    """Every lock the project constructs, with resolution indexes."""

    locks: Dict[str, LockDef] = field(default_factory=dict)
    by_class_attr: Dict[Tuple[str, str], str] = field(default_factory=dict)
    by_module_global: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def add(self, lock: LockDef, cls: Optional[str], attr: str) -> None:
        self.locks.setdefault(lock.name, lock)
        if cls is not None:
            self.by_class_attr[(cls, attr)] = lock.name
        else:
            self.by_module_global[(lock.module, attr)] = lock.name

    def resolve_self_attr(self, cls: Optional[str], attr: str) -> Optional[str]:
        if cls is None:
            return None
        return self.by_class_attr.get((cls, attr))

    def resolve_global(self, module: str, name: str) -> Optional[str]:
        return self.by_module_global.get((module, name))

    def reentrant(self, name: str) -> bool:
        lock = self.locks.get(name)
        return lock is not None and lock.reentrant


def _lock_from_value(value: ast.expr) -> Optional[Tuple[str, Optional[str]]]:
    """``(kind, explicit_name)`` when the value constructs a lock."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name not in _LOCK_CONSTRUCTORS:
        return None
    explicit = None
    if name in _NAMED_FACTORIES and value.args:
        first = value.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            explicit = first.value
    return _LOCK_CONSTRUCTORS[name], explicit


def build_inventory(project: Project) -> LockInventory:
    """Find every lock constructed anywhere in the project."""
    inventory = LockInventory()
    for path, tree in project.files.trees.items():
        module = normalize_path(path)
        stem = module.rsplit("/", 1)[-1].removesuffix(".py")
        # Module-level locks.
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                found = _lock_from_value(node.value)
                if found and isinstance(target, ast.Name):
                    kind, explicit = found
                    name = explicit or f"{stem}.{target.id}"
                    inventory.add(
                        LockDef(name, kind, module, node.lineno), None, target.id
                    )
        # Instance locks: self._x = threading.Lock() in any method.
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                        continue
                    target = stmt.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    found = _lock_from_value(stmt.value)
                    if found:
                        kind, explicit = found
                        name = explicit or f"{node.name}.{target.attr}"
                        inventory.add(
                            LockDef(name, kind, module, stmt.lineno),
                            node.name,
                            target.attr,
                        )
    return inventory


# -- per-function effects -----------------------------------------------------


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (with-enter or explicit ``.acquire()``)."""

    lock: str
    held: FrozenSet[str]
    line: int


@dataclass(frozen=True)
class CallSite:
    """One call expression with the locks lexically held around it."""

    node_func: str        # rendered callee expression ("self.admission.try_start")
    recv_kind: str        # "self" | "self_attr" | "class" | "name" | "other" | ""
    recv_attr: str        # attribute name for self_attr receivers
    recv_class: str       # class name for class receivers
    method: str           # terminal method/function name
    held: FrozenSet[str]
    line: int


@dataclass(frozen=True)
class BlockOp:
    """One potentially blocking operation."""

    kind: str             # "sleep" | "io" | "join" | "future" | "cv_wait" | "pool_wait"
    detail: str
    held: FrozenSet[str]
    cv: str = ""          # for cv_wait: the condition being waited on
    line: int = 0


@dataclass(frozen=True)
class Mutation:
    """One write to ``self.<attr>`` (assignment or container mutator)."""

    attr: str
    guarded: bool         # under a lexical lock or covered by a contract
    held: FrozenSet[str]
    line: int
    kind: str             # "assign" | "augassign" | "del" | "call"


@dataclass
class FunctionEffects:
    """Everything the analyzer needs to know about one function body."""

    info: FunctionInfo
    seed_held: FrozenSet[str]
    acquires: List[Acquire] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockOp] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    #: Property loads on ``self`` — resolved like zero-arg self calls.
    self_property_loads: List[Tuple[str, FrozenSet[str], int]] = field(
        default_factory=list
    )


#: Container methods whose call on ``self._x`` is a shared-state write.
CONTAINER_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "update",
    }
)


class _EffectsVisitor(ast.NodeVisitor):
    """One pass over a function body with lexical held-lock tracking."""

    def __init__(
        self,
        project: Project,
        inventory: LockInventory,
        info: FunctionInfo,
        effects: FunctionEffects,
    ) -> None:
        self.project = project
        self.inventory = inventory
        self.info = info
        self.effects = effects
        self.held: List[str] = list(effects.seed_held)
        self.hint_guard_depth = 0  # unresolvable-but-lock-named withs

    # -- held-set helpers --------------------------------------------------

    def _held(self) -> FrozenSet[str]:
        return frozenset(self.held)

    def _guarded(self) -> bool:
        return bool(self.held) or self.hint_guard_depth > 0

    def _resolve_lock_expr(self, node: ast.expr) -> Optional[str]:
        """Inventory lock name of a context/receiver expression."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self.inventory.resolve_self_attr(self.info.cls, node.attr)
        if isinstance(node, ast.Name):
            return self.inventory.resolve_global(self.info.module, node.id)
        return None

    # -- nested scopes are excluded ---------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.info.node:
            self.generic_visit(node)
        # else: nested def runs later, on another stack — skip.

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- with-blocks -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        hinted = 0
        for item in node.items:
            lock = self._resolve_lock_expr(item.context_expr)
            if lock is not None:
                self.effects.acquires.append(
                    Acquire(lock, self._held(), node.lineno)
                )
                self.held.append(lock)
                acquired.append(lock)
            elif any(
                hint in terminal_name(item.context_expr)
                for hint in LOCK_NAME_HINTS
            ):
                hinted += 1
        self.hint_guard_depth += hinted
        for stmt in node.body:
            self.visit(stmt)
        self.hint_guard_depth -= hinted
        for _ in acquired:
            self.held.pop()

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        chain = attr_chain(func)
        method = ""
        recv_kind, recv_attr, recv_class = "", "", ""
        if isinstance(func, ast.Attribute):
            method = func.attr
            recv = func.value
            if isinstance(recv, ast.Name):
                if recv.id == "self":
                    recv_kind = "self"
                elif recv.id in self.project.classes:
                    recv_kind, recv_class = "class", recv.id
                else:
                    recv_kind = "name"
            elif (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
            ):
                recv_kind, recv_attr = "self_attr", recv.attr
            else:
                recv_kind = "other"
        elif isinstance(func, ast.Name):
            method = func.id
        held = self._held()
        # Lock-method calls: explicit acquire / condition wait.
        recv_lock = (
            self._resolve_lock_expr(func.value)
            if isinstance(func, ast.Attribute)
            else None
        )
        if recv_lock is not None and method in ("acquire", "acquire_read",
                                                "acquire_write"):
            self.effects.acquires.append(Acquire(recv_lock, held, node.lineno))
        elif recv_lock is not None and method == "wait":
            self.effects.blocking.append(
                BlockOp("cv_wait", f"{recv_lock}.wait", held,
                        cv=recv_lock, line=node.lineno)
            )
        elif self._is_blocking(chain, method, func):
            self.effects.blocking.append(
                BlockOp(self._blocking_kind(chain, method, func),
                        chain or method, held, line=node.lineno)
            )
        else:
            self.effects.calls.append(
                CallSite(
                    node_func=chain or method,
                    recv_kind=recv_kind,
                    recv_attr=recv_attr,
                    recv_class=recv_class,
                    method=method,
                    held=held,
                    line=node.lineno,
                )
            )
        # Container-mutator on a self attribute = shared-state write.
        if (
            isinstance(func, ast.Attribute)
            and method in CONTAINER_MUTATORS
        ):
            attr = _private_self_attr(func.value)
            if attr:
                self.effects.mutations.append(
                    Mutation(attr, self._guarded() or self._contract_guarded(),
                             held, node.lineno, "call")
                )
        self.generic_visit(node)

    def _is_blocking(self, chain: str, method: str, func: ast.expr) -> bool:
        if chain in _IO_CALLS or chain == "time.sleep":
            return True
        if method == "sleep" and chain.endswith(".sleep"):
            return True
        if method == "join" and isinstance(func, ast.Attribute):
            recv_text = terminal_name(func.value)
            return any(h in recv_text for h in _JOINABLE_HINTS)
        if method == "result" and isinstance(func, ast.Attribute):
            recv_text = terminal_name(func.value)
            return "future" in recv_text
        if isinstance(func, ast.Name) and func.id == "wait":
            # concurrent.futures.wait(...) imported unqualified.
            return True
        return False

    @staticmethod
    def _blocking_kind(chain: str, method: str, func: ast.expr) -> str:
        if chain == "time.sleep" or method == "sleep":
            return "sleep"
        if chain in _IO_CALLS:
            return "io"
        if method == "join":
            return "join"
        if method == "result":
            return "future"
        return "pool_wait"

    # -- property loads on self -------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.info.cls is not None
            and self.project.is_property_of(self.info.cls, node.attr)
        ):
            self.effects.self_property_loads.append(
                (node.attr, self._held(), node.lineno)
            )
        self.generic_visit(node)

    # -- mutations ---------------------------------------------------------

    def _contract_guarded(self) -> bool:
        return bool(self.info.contracts) or self.info.init_only or self.info.is_init

    def _record_mutation(self, target: ast.expr, line: int, kind: str) -> None:
        attr = _self_attr(target)
        if attr:
            self.effects.mutations.append(
                Mutation(attr, self._guarded() or self._contract_guarded(),
                         self._held(), line, kind)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_mutation(target, node.lineno, "assign")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.target, node.lineno, "augassign")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_mutation(node.target, node.lineno, "assign")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_mutation(target, node.lineno, "del")
        self.generic_visit(node)


def _self_attr(node: ast.AST) -> str:
    """``attr`` when the target is rooted at ``self.attr`` (any name)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _private_self_attr(node: ast.AST) -> str:
    attr = _self_attr(node)
    return attr if attr.startswith("_") else ""


def extract_effects(
    project: Project, inventory: LockInventory
) -> Dict[str, FunctionEffects]:
    """Run the effects pass over every project function."""
    effects: Dict[str, FunctionEffects] = {}
    for qualid, info in project.functions.items():
        seeds: Set[str] = set()
        for attr in info.contracts:
            lock = inventory.resolve_self_attr(info.cls, attr)
            if lock is not None:
                seeds.add(lock)
        fx = FunctionEffects(info=info, seed_held=frozenset(seeds))
        _EffectsVisitor(project, inventory, info, fx).visit(info.node)
        effects[qualid] = fx
    return effects
