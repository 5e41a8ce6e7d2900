"""SQL statement ASTs (parser output, planner input)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..engine.expr import Expr
from ..predicates.ast import Predicate

__all__ = [
    "Statement",
    "SelectItem",
    "JoinCondition",
    "SelectStatement",
    "InsertStatement",
    "DeleteStatement",
    "UpdateStatement",
    "VacuumStatement",
]


class Statement:
    """Base class for parsed statements."""


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry.

    Either an aggregate (``func`` set, ``expr`` its argument — None for
    ``count(*)``) or a plain expression (``func`` None).
    """

    expr: Optional[Expr]
    alias: str
    func: Optional[str] = None
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.func is not None


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join conjunct ``left_column = right_column``."""

    left_column: str
    right_column: str

    def canonical(self) -> str:
        a, b = sorted((self.left_column, self.right_column))
        return f"{a} = {b}"


@dataclass(frozen=True)
class SelectStatement(Statement):
    """A parsed SELECT.  Frozen, with tuple fields: the engine's
    statement cache hands one instance to every execution of its text."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[str, ...]
    filters: Tuple[Predicate, ...] = ()
    group_by: Tuple[str, ...] = ()
    order_by: Tuple[Tuple[str, bool], ...] = ()
    limit: Optional[int] = None

    @property
    def has_aggregates(self) -> bool:
        return any(item.is_aggregate for item in self.items)


@dataclass(frozen=True)
class InsertStatement(Statement):
    """``INSERT INTO table [(columns)] VALUES (...), (...)``."""

    table: str
    columns: Optional[Tuple[str, ...]]
    rows: Tuple[Tuple, ...]


@dataclass(frozen=True)
class DeleteStatement(Statement):
    """``DELETE FROM table [WHERE predicate]``."""

    table: str
    predicate: Optional[Predicate]


@dataclass(frozen=True)
class UpdateStatement(Statement):
    """``UPDATE table SET col = value, ... [WHERE predicate]``."""

    table: str
    assignments: Tuple[Tuple[str, object], ...]
    predicate: Optional[Predicate]


@dataclass(frozen=True)
class VacuumStatement(Statement):
    """``VACUUM [table]``."""

    table: Optional[str]
