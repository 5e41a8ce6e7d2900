"""Single-column intervals: the shape the subsumption matcher works on.

A one-column predicate with value bounds (:meth:`Predicate.bounds`)
describes an interval of that column — *exactly* when it is a
comparison other than ``<>``, a ``BETWEEN``, or an ``AND`` of those, and
otherwise only as a zone-map hull with holes in it (``IN``, ``<>``,
``LIKE``, ``OR``).  The predicate cache indexes its plain entries by
their exact interval (:func:`exact_interval`), read off the predicate
the scan holds when it creates the entry, or parsed back from the key
when a restore brings the entry without one
(:func:`exact_interval_of_key`); the reuse lattice's subsumption matcher
reads the requested side straight off the decomposed conjunct
(:func:`single_column_range`) — DESIGN.md §14.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .ast import And, Between, Bounds, Comparison, Predicate
from .parser import PredicateParseError, parse_predicate

__all__ = [
    "exact_interval", "exact_interval_of_key", "is_exact_interval", "single_column_range",
]


def is_exact_interval(predicate: Predicate) -> bool:
    """True when a one-column predicate holds for *every* value inside
    its ``bounds()`` — a comparison (not ``<>``), ``BETWEEN``, or a
    conjunction of those.  Anything else (``IN``, ``<>``, ``LIKE``,
    ``OR``) only reports a zone-map hull with holes in it.
    """
    if isinstance(predicate, And):
        return all(is_exact_interval(op) for op in predicate.operands)
    if isinstance(predicate, Comparison):
        return predicate.op != "<>"
    return isinstance(predicate, Between)


def single_column_range(predicate: Predicate) -> Optional[Tuple[str, Bounds, bool]]:
    """``(column, bounds, exact)`` if ``predicate`` is a one-column
    predicate with value bounds; ``None`` for anything else, a
    conjunction of incomparable bounds (``k < 18 AND k LIKE '0%'``)
    included.  ``exact`` says whether the bounds are the predicate's
    truth (:func:`is_exact_interval`) or merely a hull around it.
    """
    columns = predicate.columns()
    if len(columns) != 1:
        return None
    (column,) = columns
    try:
        bounds = predicate.bounds(column)
    except TypeError:
        return None
    if bounds is None or bounds.unbounded:
        return None
    return column, bounds, is_exact_interval(predicate)


def exact_interval(predicate: Predicate) -> Optional[Tuple[str, Bounds]]:
    """``(column, bounds)`` of a predicate that is one exact
    single-column interval; ``None`` for any other."""
    parsed = single_column_range(predicate)
    if parsed is None or not parsed[2]:
        return None
    return parsed[0], parsed[1]


def exact_interval_of_key(predicate_key: str) -> Optional[Tuple[str, Bounds]]:
    """:func:`exact_interval` of the predicate a canonical key parses
    to; ``None`` for an unparseable key."""
    try:
        return exact_interval(parse_predicate(predicate_key))
    except PredicateParseError:
        return None
