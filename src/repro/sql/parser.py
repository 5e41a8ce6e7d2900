"""SQL parser for the supported statement subset.

Built on the shared tokenizer (:mod:`repro.predicates.lexer`) and the
predicate parser, extended with:

* column-to-column equality in WHERE (recognized as join conditions),
* scalar arithmetic expressions in the select list,
* aggregate functions ``count/sum/avg/min/max`` (and ``count(distinct)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.expr import BinOp, Col, Const, Expr, Func
from ..engine.expr import _SCALAR_FUNCS
from ..predicates.ast import Predicate
from ..predicates.lexer import TokenKind, number_value, tokenize
from ..predicates.parser import PredicateParser, Slot
from .ast import (
    DeleteStatement,
    InsertStatement,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
    VacuumStatement,
)

__all__ = ["SQLParseError", "parse_statement", "statement_key"]

_AGG_KEYWORDS = {"count", "sum", "avg", "min", "max"}
_CLAUSE_KEYWORDS = {"group", "order", "limit", "having"}


class SQLParseError(ValueError):
    """Raised on statements outside the supported subset."""


def parse_statement(text: str, slots: Optional[Dict[int, Slot]] = None) -> Statement:
    """Parse one SQL statement (a trailing ``;`` is allowed).

    ``slots`` maps token positions to the literals
    :func:`repro.sql.template.lift_literals` lifted there: the tree holds
    each such slot where it would hold that literal's value, ready for
    :class:`~repro.sql.template.Template` to bind other values in.
    """
    return _StatementParser(tokenize(text), slots=slots).parse()


def statement_key(text: str) -> str:
    """The result-cache key of a statement text: its tokens joined by
    single spaces, keywords lowercased, literals and identifiers verbatim
    (a trailing ``;`` dropped).

    ``SELECT  x FROM t`` and ``select x from t`` share a key; the
    literals ``'ABC'`` and ``'abc'``, or ``'a  b'`` and ``'a b'``, do
    not.  A hit needs the same statement including its parameters, as
    the paper's result cache does.
    """
    words: List[str] = []
    for token in tokenize(text):
        if token.kind == TokenKind.KEYWORD:
            words.append(token.lowered)
        elif token.kind == TokenKind.STRING:
            words.append("'" + token.text.replace("'", "''") + "'")
        elif token.kind != TokenKind.EOF and token.text != ";":
            words.append(token.text)
    return " ".join(words)


class _StatementParser(PredicateParser):
    """Top-level statement dispatch plus clause parsing."""

    def parse(self) -> Statement:
        token = self.peek()
        if token.kind != TokenKind.KEYWORD:
            raise SQLParseError(f"expected a statement keyword, got {token.text!r}")
        word = token.lowered
        if word == "select":
            statement = self._parse_select()
        elif word == "insert":
            statement = self._parse_insert()
        elif word == "delete":
            statement = self._parse_delete()
        elif word == "update":
            statement = self._parse_update()
        elif word == "vacuum":
            statement = self._parse_vacuum()
        else:
            raise SQLParseError(f"unsupported statement {word.upper()!r}")
        self.accept_punct(";")
        if self.peek().kind != TokenKind.EOF:
            raise SQLParseError(
                f"unexpected trailing input {self.peek().text!r} at "
                f"position {self.peek().pos}"
            )
        return statement

    # -- SELECT -----------------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        items = self._parse_select_list()
        self.expect_keyword("from")
        tables, filters = self._parse_from()
        if self.accept_keyword("where"):
            filters.extend(self.parse_or().conjuncts())

        group_by: List[str] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self._parse_column().name)
            while self.accept_punct(","):
                group_by.append(self._parse_column().name)

        order_by: List[Tuple[str, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_key(items))
            while self.accept_punct(","):
                order_by.append(self._parse_order_key(items))

        limit: Optional[int] = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.kind != TokenKind.NUMBER or not token.text.isdecimal():
                raise SQLParseError(f"LIMIT needs an integer, got {token.text!r}")
            limit = int(token.text)

        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            filters=tuple(filters),
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
        )

    def _parse_select_list(self) -> List[SelectItem]:
        if self.accept_punct("*"):
            return []  # empty item list means SELECT *
        items = [self._parse_select_item(0)]
        while self.accept_punct(","):
            items.append(self._parse_select_item(len(items)))
        return items

    def _parse_select_item(self, index: int) -> SelectItem:
        token = self.peek()
        if token.kind == TokenKind.KEYWORD and token.lowered in _AGG_KEYWORDS:
            after = self._tokens[self._pos + 1]
            if after.kind == TokenKind.PUNCT and after.text == "(":
                return self._parse_aggregate_item(index)
        expr = self._parse_scalar_expr()
        alias = self._parse_alias() or _default_alias(expr, index)
        return SelectItem(expr=expr, alias=alias)

    def _parse_aggregate_item(self, index: int) -> SelectItem:
        func = self.advance().lowered
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("distinct"))
        if self.accept_punct("*"):
            if func != "count":
                raise SQLParseError(f"{func}(*) is not valid")
            expr: Optional[Expr] = None
        else:
            expr = self._parse_scalar_expr()
        self.expect_punct(")")
        alias = self._parse_alias() or f"{func}_{index}"
        if func == "count" and distinct:
            func = "count_distinct"
        return SelectItem(expr=expr, alias=alias, func=func, distinct=distinct)

    def _parse_alias(self) -> Optional[str]:
        if self.accept_keyword("as"):
            token = self.advance()
            if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise SQLParseError(f"expected alias after AS, got {token.text!r}")
            return token.text
        token = self.peek()
        if token.kind == TokenKind.IDENT:
            return self.advance().text
        return None

    def _parse_from(self) -> Tuple[List[str], List[Predicate]]:
        """The FROM list's tables, and the conjuncts of its ``JOIN … ON``
        conditions: they plan like WHERE conjuncts."""
        tables = [self._parse_table_name()]
        filters: List[Predicate] = []
        while True:
            if self.accept_punct(","):
                tables.append(self._parse_table_name())
                continue
            joined = self.accept_keyword("join")
            if not joined and self.accept_keyword("inner"):
                self.expect_keyword("join")
                joined = True
            if joined:
                tables.append(self._parse_table_name())
                self.expect_keyword("on")
                filters.extend(self.parse_or().conjuncts())
                continue
            break
        return tables, filters

    def _parse_table_name(self) -> str:
        token = self.advance()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise SQLParseError(f"expected table name, got {token.text!r}")
        # Optional alias (ignored: columns are globally unique here).
        if self.peek().kind == TokenKind.IDENT:
            self.advance()
        return token.text

    def _parse_order_key(self, items: List[SelectItem]) -> Tuple[str, bool]:
        token = self.advance()
        if token.kind == TokenKind.NUMBER:
            if not token.text.isdecimal():
                raise SQLParseError(f"ORDER BY position {token.text!r} is no integer")
            position = int(token.text)
            if not 1 <= position <= len(items):
                raise SQLParseError(f"ORDER BY position {position} out of range")
            name = items[position - 1].alias
        elif token.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            name = token.text
            if self.accept_punct("."):
                name = self.advance().text
        else:
            raise SQLParseError(f"expected ORDER BY key, got {token.text!r}")
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return (name, ascending)

    # -- scalar expressions --------------------------------------------------------

    def _parse_scalar_expr(self) -> Expr:
        left = self._parse_term()
        while True:
            token = self.peek()
            if token.kind == TokenKind.PUNCT and token.text in ("+", "-"):
                self.advance()
                left = BinOp(left, token.text, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while True:
            token = self.peek()
            if token.kind == TokenKind.PUNCT and token.text in ("*", "/"):
                self.advance()
                left = BinOp(left, token.text, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expr:
        token = self.peek()
        if token.kind == TokenKind.PUNCT and token.text == "(":
            self.advance()
            inner = self._parse_scalar_expr()
            self.expect_punct(")")
            return inner
        if token.kind == TokenKind.PUNCT and token.text == "-":
            self.advance()
            return BinOp(Const(0), "-", self._parse_factor())
        if token.kind == TokenKind.NUMBER:
            self.advance()
            return Const(self._literal(token, number_value(token.text)))
        if token.kind == TokenKind.IDENT and token.lowered in _SCALAR_FUNCS:
            after = self._tokens[self._pos + 1]
            if after.kind == TokenKind.PUNCT and after.text == "(":
                self.advance()
                self.expect_punct("(")
                arg = self._parse_scalar_expr()
                self.expect_punct(")")
                return Func(token.lowered, arg)
        if token.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            return Col(self._parse_column().name)
        raise SQLParseError(f"expected expression, got {token.text!r}")

    # -- INSERT / DELETE / UPDATE / VACUUM -------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self._parse_table_name()
        columns: Optional[List[str]] = None
        if self.accept_punct("("):
            columns = [self._parse_column().name]
            while self.accept_punct(","):
                columns.append(self._parse_column().name)
            self.expect_punct(")")
        self.expect_keyword("values")
        rows: List[Tuple] = [self._parse_value_tuple()]
        while self.accept_punct(","):
            rows.append(self._parse_value_tuple())
        return InsertStatement(
            table=table,
            columns=None if columns is None else tuple(columns),
            rows=tuple(rows),
        )

    def _parse_value_tuple(self) -> Tuple:
        self.expect_punct("(")
        values = [self._parse_value()]
        while self.accept_punct(","):
            values.append(self._parse_value())
        self.expect_punct(")")
        return tuple(values)

    def _parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self._parse_table_name()
        predicate: Optional[Predicate] = None
        if self.accept_keyword("where"):
            predicate = self.parse_or()
        return DeleteStatement(table=table, predicate=predicate)

    def _parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        table = self._parse_table_name()
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        predicate: Optional[Predicate] = None
        if self.accept_keyword("where"):
            predicate = self.parse_or()
        return UpdateStatement(
            table=table, assignments=tuple(assignments), predicate=predicate
        )

    def _parse_assignment(self) -> Tuple[str, object]:
        column = self._parse_column().name
        token = self.advance()
        if token.kind != TokenKind.OPERATOR or token.text != "=":
            raise SQLParseError(f"expected '=' in SET, got {token.text!r}")
        return (column, self._parse_value())

    def _parse_vacuum(self) -> VacuumStatement:
        self.expect_keyword("vacuum")
        token = self.peek()
        table: Optional[str] = None
        if token.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            table = self.advance().text
        return VacuumStatement(table=table)


def _default_alias(expr: Expr, index: int) -> str:
    if isinstance(expr, Col):
        return expr.name
    return f"expr_{index}"


