"""Whole-program model: functions, classes, and receiver-type inference.

The analyzer's precision comes from three indexes built in one pass
over the parsed project (:class:`~tools.check.astutils.ProjectFiles`):

* :class:`FunctionInfo` per function/method, carrying its docstring
  synchronization contract (``Caller holds \\`\\`_lock\\`\\`.``);
* :class:`ClassInfo` per class, with its methods, properties, bases,
  and the inferred types of its instance attributes;
* name indexes (``methods_by_name``, ``classes``) that back the
  conservative fallback resolution in :mod:`tools.check.callgraph`.

Attribute-type inference is deliberately simple and sound-by-
over-approximation: ``self._x = ClassName(...)`` and annotated
assignments (``self._x: Optional["CacheStore"] = None``) bind the
attribute to a project class; attributes bound to known stdlib
containers are marked *opaque* so calls through them resolve to
nothing (a ``deque.clear()`` must not alias ``PredicateCache.clear``);
everything else stays *unknown* and falls back to by-name resolution.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .astutils import ProjectFiles, normalize_path

__all__ = ["ClassInfo", "FunctionInfo", "Project", "build_project", "OPAQUE"]

#: Docstring contract declaring the function runs with a named lock
#: already held: ``Caller holds ``_lock``.`` — the effects pass seeds
#: the function's held-set with that lock and counts its mutations as
#: guarded (RP007, RP012); RP012 checks the call sites.
CALLER_HOLDS_RE = re.compile(
    r"caller holds\s+`*([A-Za-z_][A-Za-z0-9_]*)`*", re.IGNORECASE
)

#: Docstring contract declaring the helper is only ever called from
#: ``__init__`` (single-threaded construction).
INIT_ONLY_RE = re.compile(r"caller is `*__init__", re.IGNORECASE)

#: Sentinel attribute type: a known non-project container/primitive —
#: method calls through it resolve to *no* project function.
OPAQUE = "<opaque>"

#: Constructor names treated as opaque stdlib state (not project types,
#: not locks — locks are inventoried separately in tools.check.locks).
_OPAQUE_CONSTRUCTORS = frozenset(
    {
        "OrderedDict",
        "Counter",
        "defaultdict",
        "deque",
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "bytearray",
        "Event",
        "local",
        "Future",
        "Thread",
    }
)

#: Annotation terminals treated as opaque (typing containers).
_OPAQUE_ANNOTATIONS = frozenset(
    {
        "Deque",
        "Dict",
        "List",
        "Set",
        "FrozenSet",
        "Tuple",
        "OrderedDict",
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "int",
        "float",
        "str",
        "bytes",
        "bool",
    }
)


@dataclass
class FunctionInfo:
    """One function or method of the analyzed project."""

    qualid: str            # unique: "repro/serve/server.py::QueryServer.submit"
    display: str           # short: "QueryServer.submit" / "scan._run_scan"
    module: str            # normalized module path
    cls: Optional[str]     # enclosing class name, if a method
    name: str
    node: ast.AST = field(repr=False)
    contracts: Tuple[str, ...] = ()    # attr names from "caller holds" docs
    init_only: bool = False            # "caller is __init__" contract
    is_property: bool = False

    @property
    def is_init(self) -> bool:
        return self.name == "__init__"


@dataclass
class ClassInfo:
    """One class: methods, properties, bases, inferred attribute types."""

    name: str
    module: str
    methods: Dict[str, str] = field(default_factory=dict)   # name -> qualid
    properties: Set[str] = field(default_factory=set)
    bases: Tuple[str, ...] = ()
    #: attr -> set of candidate type names (class names or OPAQUE).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class Project:
    """Indexes over one parsed project."""

    files: ProjectFiles
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    module_funcs: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def class_infos(self, name: str) -> List[ClassInfo]:
        return self.classes.get(name, [])

    def resolve_method(self, cls_name: str, method: str) -> List[str]:
        """Method ``cls_name.method``, searching project base classes."""
        seen: Set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for info in self.class_infos(current):
                if method in info.methods:
                    return [info.methods[method]]
                stack.extend(info.bases)
        return []

    def is_property_of(self, cls_name: str, attr: str) -> bool:
        return any(attr in info.properties for info in self.class_infos(cls_name))


def _annotation_terminal(node: Optional[ast.expr]) -> Optional[str]:
    """Terminal class name of an annotation, unwrapping Optional/quotes."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the last identifier ("CacheStore").
        text = node.value.strip().strip('"').strip("'")
        for token in ("[", "]"):
            text = text.replace(token, " ")
        parts = [p for p in text.replace(",", " ").split() if p]
        return parts[-1].split(".")[-1] if parts else None
    if isinstance(node, ast.Subscript):
        # Optional[X] / Dict[...] — Optional unwraps, containers opaque.
        outer = _annotation_terminal(node.value)
        if outer == "Optional":
            return _annotation_terminal(
                node.slice if not isinstance(node.slice, ast.Tuple)
                else node.slice.elts[0]
            )
        return outer
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _value_type_candidates(
    value: ast.expr, param_annotations: Dict[str, Optional[str]]
) -> Set[str]:
    """Candidate type names for an assigned value expression."""
    candidates: Set[str] = set()
    if isinstance(value, ast.IfExp):
        candidates |= _value_type_candidates(value.body, param_annotations)
        candidates |= _value_type_candidates(value.orelse, param_annotations)
        return candidates
    if isinstance(value, ast.BoolOp):
        for operand in value.values:
            candidates |= _value_type_candidates(operand, param_annotations)
        return candidates
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name is None:
            return candidates
        if name in _OPAQUE_CONSTRUCTORS:
            candidates.add(OPAQUE)
        elif name[:1].isupper():
            candidates.add(name)
        return candidates
    if isinstance(value, ast.Name) and value.id in param_annotations:
        annotated = param_annotations[value.id]
        if annotated is not None:
            candidates.add(
                OPAQUE if annotated in _OPAQUE_ANNOTATIONS else annotated
            )
        return candidates
    if isinstance(
        value,
        (
            ast.Constant,
            ast.Dict,
            ast.List,
            ast.Set,
            ast.Tuple,
            ast.ListComp,
            ast.SetComp,
            ast.DictComp,
            ast.GeneratorExp,
            ast.JoinedStr,
        ),
    ):
        candidates.add(OPAQUE)
    return candidates


def _infer_attr_types(cls_node: ast.ClassDef) -> Dict[str, Set[str]]:
    """Infer ``self.<attr>`` types from assignments across all methods."""
    attr_types: Dict[str, Set[str]] = {}
    for method in cls_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: Dict[str, Optional[str]] = {}
        for arg in method.args.args + method.args.kwonlyargs:
            params[arg.arg] = _annotation_terminal(arg.annotation)
        for stmt in ast.walk(method):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value, annotation = [stmt.target], stmt.value, stmt.annotation
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                candidates = attr_types.setdefault(target.attr, set())
                if annotation is not None:
                    terminal = _annotation_terminal(annotation)
                    if terminal is not None:
                        candidates.add(
                            OPAQUE if terminal in _OPAQUE_ANNOTATIONS else terminal
                        )
                if value is not None:
                    candidates |= _value_type_candidates(value, params)
    return attr_types


def _has_decorator(node: ast.AST, name: str) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Name) and decorator.id == name:
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr == name:
            return True
    return False


def _module_stem(module: str) -> str:
    return module.rsplit("/", 1)[-1].removesuffix(".py")


def build_project(files: ProjectFiles) -> Project:
    """Index every function and class of the parsed project."""
    project = Project(files=files)
    for path, tree in files.trees.items():
        module = normalize_path(path)
        stem = _module_stem(module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _add_function(project, module, stem, None, node)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name,
                    module=module,
                    bases=tuple(
                        base.id for base in node.bases if isinstance(base, ast.Name)
                    ),
                    attr_types=_infer_attr_types(node),
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualid = _add_function(
                            project, module, stem, node.name, stmt
                        )
                        info.methods[stmt.name] = qualid
                        if _has_decorator(stmt, "property"):
                            info.properties.add(stmt.name)
                            project.functions[qualid].is_property = True
                project.classes.setdefault(node.name, []).append(info)
    return project


def _add_function(
    project: Project,
    module: str,
    stem: str,
    cls: Optional[str],
    node: ast.AST,
) -> str:
    name = node.name
    display = f"{cls}.{name}" if cls else f"{stem}.{name}"
    qualid = f"{module}::{cls + '.' if cls else ''}{name}"
    doc = ast.get_docstring(node) or ""
    info = FunctionInfo(
        qualid=qualid,
        display=display,
        module=module,
        cls=cls,
        name=name,
        node=node,
        contracts=tuple(CALLER_HOLDS_RE.findall(doc)),
        init_only=bool(INIT_ONLY_RE.search(doc)),
    )
    project.functions[qualid] = info
    if cls is not None:
        project.methods_by_name.setdefault(name, []).append(qualid)
    else:
        project.module_funcs[(module, name)] = qualid
    return qualid
