"""Statement templates: a SELECT parsed once per shape, not per text.

Warehouse statements repeat far more as shapes than as texts: with its
literals taken out, a drill-down's or a dashboard's SELECT is one of a
handful of templates (ROADMAP item 18).  :func:`lift_literals` makes one
regular-expression pass over a text and lifts its numeric and string
literals into a template key, the text with each literal replaced by a
marker of its kind (an int, a float and a string stay apart, so ``8``,
``8.0`` and ``'8'`` give three keys).  The first text of a key is parsed
with a :class:`~repro.predicates.parser.Slot` at each lifted position,
and the :class:`Template` built from that tree binds any later text's
values in, rebuilding only the nodes on the way to a literal.

What the parser reads as structure stays in the key verbatim, so two
texts that differ there are two templates: everything from an ``ORDER``
or ``LIMIT`` keyword on (ORDER BY positions, the LIMIT count), and a
number after a minus sign (the parser folds it into a negative value).
A slot the parser did not place where the lexer reads the same literal
leaves the template incomplete, and an incomplete template is never
reused.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, cast

from ..predicates.ast import Value
from ..predicates.lexer import TokenKind, number_value
from ..predicates.parser import Slot
from .ast import Statement

__all__ = ["Lifted", "Template", "lift_literals"]

_NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"

#: One pass over a text.  ``string`` and ``number`` are the lexer's
#: literal tokens, ``number`` only where a token can start (not inside an
#: identifier or after a point).  ``kept`` and ``tail`` are read as
#: structure and stay in the key; a NUL is doubled there, so no text can
#: spell a marker.  The leading lookahead names every branch's first
#: character, so most positions fail on one class test.  Python's ``\d``,
#: ``\w`` and ``\s`` are the lexer's ``isdecimal``, ``isalnum`` (plus
#: ``_``) and ``isspace``.
_SCAN = re.compile(
    rf"""
    (?=['\d.\-oOlL\x00]) (?:
      (?P<string> '(?:[^']|'')*+' )
    | (?<![\w.]) (?P<number> {_NUMBER} )
    | (?P<kept> -\s*{_NUMBER} )
    | (?<![^\W\d]) (?P<tail> (?i:order|limit) (?!\w) [\s\S]* )
    | (?P<nul> \x00 )
    )""",
    re.VERBOSE,
)
_SELECT = re.compile(r"\s*select(?!\w)", re.IGNORECASE)


class Lifted(NamedTuple):
    """A text's literals lifted out: its template ``key`` (None for a
    text that is no SELECT: nothing is lifted), the literal ``values`` in
    text order, and each one's ``(position, token kind, token text)``."""

    key: Optional[str]
    values: Tuple[Value, ...]
    sites: Tuple[Tuple[int, str, str], ...]

    def slots(self) -> Dict[int, Slot]:
        """A :class:`Slot` for each lifted literal, by token position:
        what the parser takes to build this key's template."""
        return {
            position: Slot(index, kind, text)
            for index, (position, kind, text) in enumerate(self.sites)
        }


_NOTHING_LIFTED = Lifted(None, (), ())


def lift_literals(text: str) -> Lifted:
    """Lift the literals out of a SELECT text (see the module docstring)."""
    if _SELECT.match(text) is None:
        return _NOTHING_LIFTED
    parts: List[str] = []
    values: List[Value] = []
    sites: List[Tuple[int, str, str]] = []
    last = 0
    for match in _SCAN.finditer(text):
        start = match.start()
        parts.append(text[last:start])
        last = match.end()
        kind = match.lastgroup
        found = match.group()
        if kind == "string":
            value: Value = found[1:-1].replace("''", "'")
            sites.append((start, TokenKind.STRING, value))
            parts.append("\x00s")
        elif kind == "number":
            value = number_value(found)
            sites.append((start, TokenKind.NUMBER, found))
            parts.append("\x00i" if isinstance(value, int) else "\x00f")
        else:
            parts.append(found.replace("\x00", "\x00\x00"))
            continue
        values.append(value)
    parts.append(text[last:])
    return Lifted("".join(parts), tuple(values), tuple(sites))


_Build = Callable[[Sequence[Value]], object]


class Template:
    """The statement one text of a template key parsed to, with a
    :class:`Slot` where each of its lifted literals landed.

    Immutable once built, so server workers share it without a lock.
    ``complete`` says every slot landed exactly once; only then does
    :meth:`bind` serve other texts of the key.
    """

    __slots__ = ("statement", "complete", "_build")

    def __init__(self, statement: Statement, slots: int) -> None:
        placed: List[int] = []
        self._build = _builder(statement, placed) if slots else None
        self.statement = statement
        self.complete = sorted(placed) == list(range(slots))

    def bind(self, values: Sequence[Value]) -> Statement:
        """The statement with ``values`` in its slots, in slot order: new
        nodes along each path to a slot, the rest shared."""
        if self._build is None:
            return self.statement
        return cast(Statement, self._build(values))


def _builder(node: object, placed: List[int]) -> Optional[_Build]:
    """A function of the values that rebuilds ``node`` with each slot
    under it bound, or None when no slot is under it.  Appends the index
    of every slot found to ``placed``."""
    if isinstance(node, Slot):
        placed.append(node.index)
        return itemgetter(node.index)
    if isinstance(node, tuple):
        items: Tuple[object, ...] = node
    elif is_dataclass(node) and not isinstance(node, type):
        items = tuple(getattr(node, field.name) for field in fields(node))
    else:
        return None
    parts = [_builder(item, placed) for item in items]
    if not any(parts):
        return None
    pairs = list(zip(items, parts))
    if isinstance(node, tuple):
        return lambda values: tuple(
            [item if part is None else part(values) for item, part in pairs]
        )
    cls = type(node)
    return lambda values: cls(
        *[item if part is None else part(values) for item, part in pairs]
    )
