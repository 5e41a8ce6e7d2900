"""Predicate expression nodes with vectorized evaluation.

Every node implements:

* ``evaluate(batch)`` — numpy-vectorized evaluation over a mapping from
  column name to ``np.ndarray`` (all arrays the same length); returns a
  boolean mask,
* ``cache_key()`` — a canonical string used as the predicate-cache key.
  Following the paper (§4.1) we do not normalize into CNF; we only
  canonicalize trivia (sorted conjunct order, stable literal formatting)
  so that the *same* pushed-down predicate always yields the same key,
* ``columns()`` — the set of referenced column names,
* ``bounds(column)`` — optional (lo, hi) value bounds implied for a
  column, used for zone-map pruning.

Nodes are immutable and hashable so they can be used as dict keys and
deduplicated in workload analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Bounds",
    "FalsePredicate",
    "Predicate",
    "ColumnRef",
    "Literal",
    "Comparison",
    "Between",
    "InList",
    "IsNull",
    "Like",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "col",
    "lit",
    "conjunction_of",
]

Batch = Mapping[str, np.ndarray]
Value = Union[int, float, str, bool, None]

@dataclass(frozen=True, slots=True)
class Bounds:
    """Value bounds a predicate implies for one column: an interval, and
    the one place its algebra is written (DESIGN.md §11, §14).

    ``lo``/``hi`` of None mean unbounded; ``*_strict`` marks an open
    endpoint (``x < 10`` gives ``hi=10, hi_strict=True``), which lets
    zone maps prune blocks whose minimum equals an excluded bound.
    """

    lo: "Value" = None
    hi: "Value" = None
    lo_strict: bool = False
    hi_strict: bool = False

    @property
    def unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    def as_pair(self) -> "Tuple[Value, Value]":
        return (self.lo, self.hi)

    def meet(self, other: "Bounds") -> "Bounds":
        """AND: the tighter end on each side; on a tie the end is strict
        if either side's is.  Incomparable ends raise ``TypeError``."""
        lo, lo_strict = self.lo, self.lo_strict
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_strict = other.lo, other.lo_strict
        elif other.lo is not None and other.lo == lo:
            lo_strict = lo_strict or other.lo_strict
        hi, hi_strict = self.hi, self.hi_strict
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_strict = other.hi, other.hi_strict
        elif other.hi is not None and other.hi == hi:
            hi_strict = hi_strict or other.hi_strict
        return Bounds(lo, hi, lo_strict, hi_strict)

    def hull(self, other: "Bounds") -> "Bounds":
        """OR: the closed interval from the lower to the higher end, a
        side unbounded if either side is.  Strictness is dropped."""
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Bounds(lo, hi)

    def contains(self, other: "Bounds") -> bool:
        """True when every value ``other`` admits is admitted here.

        A strict end only contains an equal end of ``other`` that is
        strict too; incomparable ends never contain each other.
        """
        try:
            if self.lo is not None:
                if other.lo is None or other.lo < self.lo:
                    return False
                if other.lo == self.lo and self.lo_strict and not other.lo_strict:
                    return False
            if self.hi is not None:
                if other.hi is None or other.hi > self.hi:
                    return False
                if other.hi == self.hi and self.hi_strict and not other.hi_strict:
                    return False
        except TypeError:
            return False
        return True

    def width(self) -> float:
        """``hi - lo``; ``inf`` for a half-open or non-numeric interval.
        Never NaN, so widths rank in one order: a point at an infinity
        (``inf - inf``) is 0, and a NaN end ranks as non-numeric."""
        if self.lo is None or self.hi is None:
            return float("inf")
        try:
            width = float(self.hi) - float(self.lo)
        except (TypeError, ValueError):
            return float("inf")
        if width != width:
            return 0.0 if self.lo == self.hi else float("inf")
        return width

    def excludes(self, minimum, maximum):
        """True where a block whose values lie in ``[minimum, maximum]``
        holds no value admitted here: the zone-map test (§4.2.2).

        Takes a scalar pair or arrays of block minima and maxima.  A side
        that cannot compare (an unknown ``None`` bound, incomparable
        types) excludes nothing, and NaN compares false; arrays on which
        the ``hi`` side raises get a plain ``False``.
        """
        out = False
        try:
            if self.hi is not None:
                out = minimum >= self.hi if self.hi_strict else minimum > self.hi
            if self.lo is not None:
                below = maximum <= self.lo if self.lo_strict else maximum < self.lo
                out = out | below
        except TypeError:
            pass
        return out


_COMPARISON_OPS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _format_value(value: Value) -> str:
    """Stable literal rendering for cache keys (8.0 and 8 differ)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


class Predicate:
    """Base class for boolean-valued expressions over a row batch."""

    def evaluate(self, batch: Batch) -> np.ndarray:
        raise NotImplementedError

    def cache_key(self) -> str:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def bounds(self, column: str) -> Optional["Bounds"]:
        """Value bounds implied for ``column``, or None if unbounded.

        Only conjunctive restrictions produce bounds; disjunctions are
        conservatively widened.  Used by zone-map pruning.
        """
        return None

    def conjuncts(self) -> List["Predicate"]:
        """Flatten a conjunction tree into its leaf conjuncts."""
        return [self]

    # -- operator sugar -----------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.cache_key()})"


@dataclass(frozen=True, slots=True)
class TruePredicate(Predicate):
    """The always-true predicate (a scan with no filter)."""

    def evaluate(self, batch: Batch) -> np.ndarray:
        n = len(next(iter(batch.values()))) if batch else 0
        return np.ones(n, dtype=bool)

    def cache_key(self) -> str:
        return "TRUE"

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def conjuncts(self) -> List[Predicate]:
        return []


@dataclass(frozen=True, slots=True)
class FalsePredicate(Predicate):
    """The always-false predicate (a provably empty restriction).

    Produced by the normalizer when conjoined ranges contradict
    (``x < 3 AND x > 9``); a scan with it qualifies nothing.
    """

    def evaluate(self, batch: Batch) -> np.ndarray:
        n = len(next(iter(batch.values()))) if batch else 0
        return np.zeros(n, dtype=bool)

    def cache_key(self) -> str:
        return "FALSE"

    def columns(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A reference to a column by name (optionally ``table.column``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant value."""

    value: Value

    def __str__(self) -> str:
        return _format_value(self.value)


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Value) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def _resolve(batch: Batch, column: ColumnRef) -> np.ndarray:
    try:
        return batch[column.name]
    except KeyError:
        raise KeyError(
            f"column {column.name!r} not present in batch "
            f"(have: {sorted(batch)})"
        ) from None


@dataclass(frozen=True, slots=True)
class Comparison(Predicate):
    """``column <op> literal`` with op in ``= <> < <= > >=``."""

    column: ColumnRef
    op: str
    literal: Literal

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, batch: Batch) -> np.ndarray:
        values = _resolve(batch, self.column)
        return _COMPARISON_OPS[self.op](values, self.literal.value)

    def cache_key(self) -> str:
        return f"{self.column} {self.op} {self.literal}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column.name})

    def bounds(self, column: str) -> Optional[Bounds]:
        if column != self.column.name:
            return None
        v = self.literal.value
        if self.op == "=":
            return Bounds(lo=v, hi=v)
        if self.op in ("<", "<="):
            return Bounds(hi=v, hi_strict=self.op == "<")
        if self.op in (">", ">="):
            return Bounds(lo=v, lo_strict=self.op == ">")
        return None  # <> carries no useful zone-map bound


@dataclass(frozen=True, slots=True)
class ColumnComparison(Predicate):
    """``column <op> column`` (both sides columns of the same batch).

    Used for intra-table conditions like TPC-H Q21's
    ``l_receiptdate > l_commitdate``; cross-table equality is recognized
    by the planner as a join condition instead.
    """

    left: ColumnRef
    op: str
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, batch: Batch) -> np.ndarray:
        return _COMPARISON_OPS[self.op](
            _resolve(batch, self.left), _resolve(batch, self.right)
        )

    def cache_key(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.left.name, self.right.name})


@dataclass(frozen=True, slots=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive both ends, like SQL)."""

    column: ColumnRef
    low: Literal
    high: Literal

    def evaluate(self, batch: Batch) -> np.ndarray:
        values = _resolve(batch, self.column)
        return (values >= self.low.value) & (values <= self.high.value)

    def cache_key(self) -> str:
        return f"{self.column} BETWEEN {self.low} AND {self.high}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column.name})

    def bounds(self, column: str) -> Optional[Bounds]:
        if column != self.column.name:
            return None
        return Bounds(lo=self.low.value, hi=self.high.value)


@dataclass(frozen=True, slots=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: Tuple[Value, ...]

    def evaluate(self, batch: Batch) -> np.ndarray:
        column = _resolve(batch, self.column)
        # "sort": one ``==`` pass per value for a short list, a sort for a
        # long one; never the lookup table numpy otherwise builds for an
        # integer column (DESIGN.md §11, "IN lists").
        return np.isin(column, np.asarray(self.values), kind="sort")

    def cache_key(self) -> str:
        rendered = ", ".join(_format_value(v) for v in self.values)
        return f"{self.column} IN ({rendered})"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column.name})

    def bounds(self, column: str) -> Optional[Bounds]:
        if column != self.column.name or not self.values:
            return None
        try:
            return Bounds(lo=min(self.values), hi=max(self.values))
        except TypeError:  # mixed-type lists carry no bound
            return None


@dataclass(frozen=True, slots=True)
class Like(Predicate):
    """``column [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards.

    Prefix patterns (``'PROMO%'``) expose value bounds so zone maps can
    prune on the string prefix, like real engines do.
    """

    column: ColumnRef
    pattern: str
    negated: bool = False

    def evaluate(self, batch: Batch) -> np.ndarray:
        values = _resolve(batch, self.column)
        regex = _like_regex(self.pattern)
        matches = np.array(
            [bool(regex.match(str(v))) for v in values], dtype=bool
        )
        return ~matches if self.negated else matches

    def cache_key(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.column} {keyword} {_format_value(self.pattern)}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column.name})

    def bounds(self, column: str) -> Optional["Bounds"]:
        if self.negated or column != self.column.name:
            return None
        prefix = _like_literal_prefix(self.pattern)
        if not prefix:
            return None
        # Values matching 'abc%' sort within [ 'abc', 'abd' ): below the
        # prefix's successor, whatever characters follow the prefix.
        successor = _string_successor(prefix)
        if successor is None:
            return Bounds(lo=prefix)
        return Bounds(lo=prefix, hi=successor, hi_strict=True)


def _string_successor(prefix: str) -> Optional[str]:
    """The least string above every string starting with ``prefix``, or
    ``None`` when there is none (``prefix`` is all ``U+10FFFF``)."""
    stripped = prefix.rstrip(chr(0x10FFFF))
    if not stripped:
        return None
    return stripped[:-1] + chr(ord(stripped[-1]) + 1)


def _like_regex(pattern: str):
    import re

    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def _like_literal_prefix(pattern: str) -> str:
    prefix = []
    for ch in pattern:
        if ch in ("%", "_"):
            break
        prefix.append(ch)
    return "".join(prefix)


@dataclass(frozen=True, slots=True)
class IsNull(Predicate):
    """``column IS [NOT] NULL``.

    Every column is NOT NULL (``Table.insert`` and UPDATE refuse a
    None), so ``IS NULL`` holds for no row and ``IS NOT NULL`` for all.
    """

    column: ColumnRef
    negated: bool = False

    def evaluate(self, batch: Batch) -> np.ndarray:
        n = len(_resolve(batch, self.column))
        return np.full(n, self.negated, dtype=bool)

    def cache_key(self) -> str:
        return f"{self.column} IS {'NOT ' if self.negated else ''}NULL"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column.name})


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two or more predicates.

    The cache key sorts the conjuncts' keys so that ``a AND b`` and
    ``b AND a`` (which the optimizer may emit in either order) share a
    cache entry.  This is the one cheap canonicalization the paper's
    string-keyed design admits without an SMT solver.
    """

    operands: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        flattened: List[Predicate] = []
        for op in self.operands:
            if isinstance(op, And):
                flattened.extend(op.operands)
            elif isinstance(op, TruePredicate):
                continue
            else:
                flattened.append(op)
        if len(flattened) < 1:
            flattened = [TruePredicate()]
        object.__setattr__(self, "operands", tuple(flattened))

    def evaluate(self, batch: Batch) -> np.ndarray:
        result = self.operands[0].evaluate(batch)
        for op in self.operands[1:]:
            result = result & op.evaluate(batch)
        return result

    def cache_key(self) -> str:
        keys = sorted(op.cache_key() for op in self.operands)
        return " AND ".join(f"({k})" if " OR " in k else k for k in keys)

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(op.columns() for op in self.operands))

    def bounds(self, column: str) -> Optional[Bounds]:
        result: Optional[Bounds] = None
        for op in self.operands:
            b = op.bounds(column)
            if b is not None:
                result = b if result is None else result.meet(b)
        return result

    def conjuncts(self) -> List[Predicate]:
        out: List[Predicate] = []
        for op in self.operands:
            out.extend(op.conjuncts())
        return out

    def __hash__(self) -> int:
        return hash(("And", self.operands))


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    operands: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        flattened: List[Predicate] = []
        for op in self.operands:
            if isinstance(op, Or):
                flattened.extend(op.operands)
            else:
                flattened.append(op)
        object.__setattr__(self, "operands", tuple(flattened))

    def evaluate(self, batch: Batch) -> np.ndarray:
        result = self.operands[0].evaluate(batch)
        for op in self.operands[1:]:
            result = result | op.evaluate(batch)
        return result

    def cache_key(self) -> str:
        keys = sorted(op.cache_key() for op in self.operands)
        return " OR ".join(keys)

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(op.columns() for op in self.operands))

    def bounds(self, column: str) -> Optional[Bounds]:
        # A disjunction bounds a column only if *every* branch bounds it;
        # the hull of the branch intervals is the implied bound.
        result: Optional[Bounds] = None
        for op in self.operands:
            b = op.bounds(column)
            if b is None:
                return None
            result = (b if result is None else result).hull(b)
        return None if result is None or result.unbounded else result

    def __hash__(self) -> int:
        return hash(("Or", self.operands))


@dataclass(frozen=True, slots=True)
class Not(Predicate):
    """Logical negation."""

    operand: Predicate

    def evaluate(self, batch: Batch) -> np.ndarray:
        return ~self.operand.evaluate(batch)

    def cache_key(self) -> str:
        return f"NOT ({self.operand.cache_key()})"

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()


def conjunction_of(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates into a single conjunction.

    Returns :class:`TruePredicate` for an empty input and the predicate
    itself for a single input — the scan path treats all three shapes
    uniformly.
    """
    items = [p for p in predicates if not isinstance(p, TruePredicate)]
    if not items:
        return TruePredicate()
    if len(items) == 1:
        return items[0]
    return And(tuple(items))
