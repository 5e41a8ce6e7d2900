"""A small SQL-flavoured tokenizer shared by the predicate and SQL parsers."""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

__all__ = ["Token", "TokenKind", "LexError", "number_value", "tokenize"]


class LexError(ValueError):
    """Raised on input that cannot be tokenized."""


class TokenKind:
    """Token categories (plain strings; an Enum adds no value here)."""

    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    KEYWORD = "KEYWORD"
    EOF = "EOF"


_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "having", "limit",
    "and", "or", "not", "between", "in", "is", "null", "as", "asc", "desc",
    "insert", "into", "values", "update", "set", "delete", "copy", "vacuum",
    "create", "table", "join", "on", "inner", "left", "count", "sum", "avg",
    "min", "max", "distinct", "true", "false", "like",
}

_OPERATORS = ("<>", "<=", ">=", "!=", "=", "<", ">")
_PUNCT = "(),.*;+-/%"


class Token(NamedTuple):
    """One lexeme; a ``NamedTuple`` because the lexer builds one per
    word, number and operator of every text it reads."""

    kind: str
    text: str
    pos: int

    @property
    def lowered(self) -> str:
        return self.text.lower()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            yield _string_token(text, i)
            # Skip past the closing quote, accounting for '' escapes.
            j = i + 1
            while j < n:
                if text[j] == "'" and j + 1 < n and text[j + 1] == "'":
                    j += 2
                elif text[j] == "'":
                    break
                else:
                    j += 1
            i = j + 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is punctuation
                    # (e.g. ``t.col``), not a decimal point.
                    if j + 1 >= n or not text[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            # An exponent needs a digit: in ``1e`` or ``1ex`` the ``e``
            # starts an identifier.
            k = j + 1 + (text[j + 1 : j + 2] in ("+", "-"))
            if text[j : j + 1] in ("e", "E") and text[k : k + 1].isdecimal():
                j = k
                while j < n and text[j].isdecimal():
                    j += 1
            yield Token(TokenKind.NUMBER, text[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word.lower() in _KEYWORDS else TokenKind.IDENT
            yield Token(kind, word, i)
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                yield Token(TokenKind.OPERATOR, "<>" if op == "!=" else op, i)
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            yield Token(TokenKind.PUNCT, ch, i)
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at position {i}")
    yield Token(TokenKind.EOF, "", n)


def number_value(text: str) -> float | int:
    """The value of a NUMBER token: a float with a point or an exponent
    (``1.5``, ``1e5``), an int otherwise."""
    return int(text) if text.isdecimal() else float(text)


def _string_token(text: str, start: int) -> Token:
    """Scan a single-quoted string literal with ``''`` escaping."""
    i = start + 1
    n = len(text)
    out: List[str] = []
    while i < n:
        if text[i] == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return Token(TokenKind.STRING, "".join(out), start)
        out.append(text[i])
        i += 1
    raise LexError(f"unterminated string literal starting at {start}")
