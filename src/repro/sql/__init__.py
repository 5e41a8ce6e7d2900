"""A SQL subset front end.

Supports the statement shapes the paper's workloads need:

* ``SELECT`` with aggregates, ``GROUP BY``, ``ORDER BY``, ``LIMIT``,
  multi-table joins expressed in the ``WHERE`` clause or via
  ``JOIN ... ON``,
* ``INSERT INTO ... VALUES``,
* ``DELETE FROM ... WHERE``, ``UPDATE ... SET ... WHERE``,
* ``VACUUM [table]``.

The planner splits the ``WHERE`` clause into per-table filter predicates
(pushed into scans — the unit the predicate cache indexes) and equi-join
conditions (planned as hash joins with semi-join filter pushdown).
"""

from .ast import (
    DeleteStatement,
    InsertStatement,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
    VacuumStatement,
)
from .parser import SQLParseError, parse_statement, statement_key
from .planner import PlannerError, bind_literals, plan_select

__all__ = [
    "DeleteStatement",
    "InsertStatement",
    "PlannerError",
    "SQLParseError",
    "SelectItem",
    "SelectStatement",
    "Statement",
    "UpdateStatement",
    "VacuumStatement",
    "bind_literals",
    "parse_statement",
    "plan_select",
    "statement_key",
]
