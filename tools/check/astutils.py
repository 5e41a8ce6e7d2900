"""Parsed sources and the AST name/path helpers every pass shares.

Every source file is read and parsed exactly once into a
:class:`ProjectFiles`; the lexical rules walk those trees directly and
the program model (:mod:`tools.check.model`) is built over them.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "ProjectFiles",
    "attr_chain",
    "iter_py_files",
    "normalize_path",
    "parse_files",
    "parse_sources",
    "terminal_name",
]


def normalize_path(path: str) -> str:
    """Posix-ish path relative to the source root (``repro/...``)."""
    norm = path.replace(os.sep, "/")
    marker = "repro/"
    idx = norm.find("src/" + marker)
    if idx >= 0:
        return norm[idx + 4 :]
    idx = norm.find(marker)
    if idx >= 0:
        return norm[idx:]
    return norm


def attr_chain(node: ast.AST) -> str:
    """Dotted-name text of a Name/Attribute chain (``"time.time"``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def terminal_name(node: ast.AST) -> str:
    """The last identifier of a Name/Attribute chain, lowercased."""
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    if isinstance(node, ast.Name):
        return node.id.lower()
    return ""


def iter_py_files(paths: Sequence[Union[str, os.PathLike]]) -> List[str]:
    """Every ``.py`` file under ``paths``, in deterministic order."""
    files: List[str] = []
    for path in paths:
        path = os.fspath(path)
        if os.path.isfile(path):
            if path.endswith(".py"):
                files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in ("__pycache__", ".git")
                and not d.endswith(".egg-info")
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    return files


@dataclass
class ProjectFiles:
    """Every analyzed file, read and parsed exactly once.

    ``sources``/``trees`` are keyed by the *original* path handed in;
    ``by_module`` maps normalized module paths (``repro/core/cache.py``)
    back to those keys so cross-file rules can find their inputs.
    """

    sources: Dict[str, str] = field(default_factory=dict)
    trees: Dict[str, ast.Module] = field(default_factory=dict)
    by_module: Dict[str, str] = field(default_factory=dict)

    def add(self, path: str, source: str) -> None:
        self.sources[path] = source
        self.trees[path] = ast.parse(source)
        self.by_module[normalize_path(path)] = path

    def tree_for_module(self, module: str) -> Optional[ast.Module]:
        path = self.by_module.get(module)
        return None if path is None else self.trees[path]

    def __len__(self) -> int:
        return len(self.sources)


def parse_files(paths: Sequence[Union[str, os.PathLike]]) -> ProjectFiles:
    """Read and parse every ``.py`` file under ``paths`` exactly once."""
    project = ProjectFiles()
    for file_path in iter_py_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            project.add(file_path, handle.read())
    return project


def parse_sources(sources: Dict[str, str]) -> ProjectFiles:
    """Build a :class:`ProjectFiles` from in-memory sources (tests)."""
    project = ProjectFiles()
    for path in sorted(sources):
        project.add(path, sources[path])
    return project
