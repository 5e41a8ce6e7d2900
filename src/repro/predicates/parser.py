"""Recursive-descent parser for filter predicates.

Grammar (standard precedence: OR < AND < NOT < comparison)::

    predicate   := or_expr
    or_expr     := and_expr ( OR and_expr )*
    and_expr    := not_expr ( AND not_expr )*
    not_expr    := NOT not_expr | primary
    primary     := '(' or_expr ')'
                 | column ( cmp_op value
                          | BETWEEN value AND value
                          | [NOT] IN '(' value (',' value)* ')'
                          | IS [NOT] NULL )
    value       := NUMBER | STRING | TRUE | FALSE | NULL

The parser is shared by the SQL front end (WHERE clauses) and by tests
and workload generators that build predicates from text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TypeVar, cast

from .ast import (
    And,
    Between,
    ColumnComparison,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    Value,
)
from .lexer import Token, TokenKind, number_value, tokenize

__all__ = ["parse_predicate", "PredicateParseError", "PredicateParser", "Slot"]

_V = TypeVar("_V")


class PredicateParseError(ValueError):
    """Raised when predicate text does not match the grammar."""


def parse_predicate(text: str) -> Predicate:
    """Parse predicate text into a :class:`Predicate` tree.

    Example:
        >>> p = parse_predicate("l_discount = 0.1 and l_quantity >= 40")
        >>> sorted(p.columns())
        ['l_discount', 'l_quantity']
    """
    parser = PredicateParser(tokenize(text))
    predicate = parser.parse_or()
    parser.expect_eof()
    return predicate


class Slot:
    """A literal lifted out of a statement text (:mod:`repro.sql.template`):
    the ``index``-th, a token of ``kind`` that the lexer reads as
    ``text`` (a number's digits, a string's unescaped contents).

    A parser handed slots by token position puts the slot in the tree
    where it would put that token's value, so the tree marks every spot
    a literal of the text lands in.
    """

    __slots__ = ("index", "kind", "text")

    def __init__(self, index: int, kind: str, text: str) -> None:
        self.index = index
        self.kind = kind
        self.text = text


class PredicateParser:
    """Token-stream parser; also reused by the SQL parser for WHERE."""

    def __init__(
        self,
        tokens: List[Token],
        start: int = 0,
        slots: Optional[Dict[int, Slot]] = None,
    ) -> None:
        self._tokens = tokens
        self._pos = start
        self._slots = slots

    # -- token helpers -------------------------------------------------------

    @property
    def pos(self) -> int:
        return self._pos

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != TokenKind.EOF:
            self._pos += 1
        return token

    def accept_keyword(self, *words: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == TokenKind.KEYWORD and token.lowered in words:
            return self.advance()
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.accept_keyword(word)
        if token is None:
            raise PredicateParseError(
                f"expected {word.upper()!r} at position {self.peek().pos}, "
                f"got {self.peek().text!r}"
            )
        return token

    def accept_punct(self, text: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == TokenKind.PUNCT and token.text == text:
            return self.advance()
        return None

    def expect_punct(self, text: str) -> Token:
        token = self.accept_punct(text)
        if token is None:
            raise PredicateParseError(
                f"expected {text!r} at position {self.peek().pos}, "
                f"got {self.peek().text!r}"
            )
        return token

    def expect_eof(self) -> None:
        if self.peek().kind != TokenKind.EOF:
            raise PredicateParseError(
                f"unexpected trailing input {self.peek().text!r} "
                f"at position {self.peek().pos}"
            )

    # -- grammar ---------------------------------------------------------------

    def parse_or(self) -> Predicate:
        left = self.parse_and()
        operands = [left]
        while self.accept_keyword("or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return left
        return Or(tuple(operands))

    def parse_and(self) -> Predicate:
        left = self.parse_not()
        operands = [left]
        while self.accept_keyword("and"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return left
        return And(tuple(operands))

    def parse_not(self) -> Predicate:
        if self.accept_keyword("not"):
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Predicate:
        if self.accept_punct("("):
            inner = self.parse_or()
            self.expect_punct(")")
            return inner
        column = self._parse_column()
        token = self.peek()
        if token.kind == TokenKind.OPERATOR:
            op = self.advance().text
            follow = self.peek()
            if follow.kind == TokenKind.IDENT or (
                follow.kind == TokenKind.KEYWORD
                and follow.lowered not in ("true", "false", "null")
            ):
                return ColumnComparison(column, op, self._parse_column())
            return Comparison(column, op, Literal(self._parse_value()))
        if self.accept_keyword("between"):
            low = self._parse_value()
            self.expect_keyword("and")
            high = self._parse_value()
            return Between(column, Literal(low), Literal(high))
        if self.accept_keyword("like"):
            return Like(column, self._parse_like_pattern())
        negated_in = bool(self.accept_keyword("not"))
        if self.accept_keyword("like"):
            return Like(column, self._parse_like_pattern(), negated=True)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            values = [self._parse_value()]
            while self.accept_punct(","):
                values.append(self._parse_value())
            self.expect_punct(")")
            in_pred: Predicate = InList(column, tuple(values))
            return Not(in_pred) if negated_in else in_pred
        if negated_in:
            raise PredicateParseError(
                f"expected IN or LIKE after NOT at position {token.pos}"
            )
        if self.accept_keyword("is"):
            negated = bool(self.accept_keyword("not"))
            self.expect_keyword("null")
            return IsNull(column, negated=negated)
        raise PredicateParseError(
            f"expected comparison after column {column.name!r} "
            f"at position {token.pos}, got {token.text!r}"
        )

    def _parse_like_pattern(self) -> str:
        token = self.advance()
        if token.kind != TokenKind.STRING:
            raise PredicateParseError(
                f"expected a string pattern after LIKE at position {token.pos}"
            )
        return self._literal(token, token.text)

    def _literal(self, token: Token, value: _V) -> _V:
        """``value``, read off the literal ``token``; or, when a slot was
        lifted from exactly that token, the slot standing in for it (the
        template binds the value in its place)."""
        slot = self._slots.get(token.pos) if self._slots else None
        if slot is None or slot.kind != token.kind or slot.text != token.text:
            return value
        return cast(_V, slot)

    def _parse_column(self) -> ColumnRef:
        token = self.peek()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise PredicateParseError(
                f"expected column name at position {token.pos}, "
                f"got {token.text!r}"
            )
        self.advance()
        name = token.text
        # Qualified reference ``table.column`` — keep the column part; the
        # engine resolves columns per table.
        if self.accept_punct("."):
            part = self.peek()
            if part.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise PredicateParseError(
                    f"expected column after '.' at position {part.pos}"
                )
            self.advance()
            name = part.text
        return ColumnRef(name)

    def _parse_value(self) -> Value:
        token = self.advance()
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            value: Value = (
                number_value(token.text)
                if token.kind == TokenKind.NUMBER
                else token.text
            )
            # An INSERT's rows are read without slots: no call per value.
            return self._literal(token, value) if self._slots else value
        if token.kind == TokenKind.KEYWORD:
            if token.lowered == "true":
                return True
            if token.lowered == "false":
                return False
            if token.lowered == "null":
                return None
        if token.kind == TokenKind.PUNCT and token.text == "-":
            follow = self.advance()
            if follow.kind == TokenKind.NUMBER:
                return -number_value(follow.text)
        raise PredicateParseError(
            f"expected literal value at position {token.pos}, "
            f"got {token.text!r}"
        )
