"""Cache keys: scan expressions, optionally extended with semi-join filters.

The predicate cache is an inverted index from *scan expressions* to row
ranges (§4.1).  A plain key is ``(table, canonical predicate string)``.
The join-index extension (§4.4) widens the key with a description of the
semi-join filter: the join predicate plus the *build side* — its table,
its filter predicate, and (recursively) any semi-join filter that was
applied to the build side itself.  The paper renders this as a nested
key; we reproduce the same structure as a canonical string.

Keys are plain frozen dataclasses so they hash cheaply and can be logged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Tuple

__all__ = ["SemiJoinDescriptor", "ScanKey", "conjunct_key"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def _fnv1a_text(text: str) -> int:
    """FNV-1a over the UTF-8 bytes of one string, as a signed int64.

    The scalar twin of :func:`repro.engine.hashing.fnv1a_hash` on a
    one-element array, bit for bit (a NUL byte terminates the key, the
    64-bit state is reinterpreted as signed) — persisted digests written
    through either must keep verifying.
    """
    state = _FNV_OFFSET
    for byte in text.encode("utf-8").partition(b"\0")[0]:
        state = ((state ^ byte) * _FNV_PRIME) & _U64
    return state - (1 << 64) if state >> 63 else state


@dataclass(frozen=True)
class SemiJoinDescriptor:
    """Describes one semi-join filter applied during a scan.

    Attributes:
        join_predicate: canonical text of the equi-join condition, e.g.
            ``"o_orderkey = l_orderkey"``.
        build_table: name of the build-side relation.
        build_predicate_key: canonical key of the build side's filter
            (``"TRUE"`` for an unfiltered build side).
        build_semijoins: semi-join filters that restricted the build
            side itself (snowflake chains), in canonical order.
    """

    join_predicate: str
    build_table: str
    build_predicate_key: str = "TRUE"
    build_semijoins: Tuple["SemiJoinDescriptor", ...] = ()

    def key(self) -> str:
        """Canonical string, mirroring the paper's nested key layout."""
        inner = f"table={self.build_table}; filter={self.build_predicate_key}"
        if self.build_semijoins:
            nested = ", ".join(s.key() for s in self.build_semijoins)
            inner += f"; semijoins=[{nested}]"
        return f"<semijoin pred={self.join_predicate!r} build=({inner})>"

    def referenced_tables(self) -> FrozenSet[str]:
        """All build-side tables, recursively — the invalidation scope.

        A semi-join cache entry depends on the *content* of every build
        table in the chain: any insert/delete/update there changes which
        probe rows have join partners (§4.4).
        """
        tables = {self.build_table}
        for nested in self.build_semijoins:
            tables |= nested.referenced_tables()
        return frozenset(tables)


@dataclass(frozen=True)
class ScanKey:
    """The full predicate-cache key for one base-table scan."""

    table: str
    predicate_key: str
    semijoins: Tuple[SemiJoinDescriptor, ...] = ()

    def __post_init__(self) -> None:
        # Canonical order so that filter arrival order does not split
        # cache entries.
        ordered = tuple(sorted(self.semijoins, key=lambda s: s.key()))
        object.__setattr__(self, "semijoins", ordered)

    @property
    def is_join_key(self) -> bool:
        return bool(self.semijoins)

    def referenced_tables(self) -> FrozenSet[str]:
        """Tables whose *data* changes invalidate this entry."""
        tables: FrozenSet[str] = frozenset()
        for semijoin in self.semijoins:
            tables |= semijoin.referenced_tables()
        return tables

    def key(self) -> str:
        text = f"scan table={self.table}; filter={self.predicate_key}"
        if self.semijoins:
            nested = ", ".join(s.key() for s in self.semijoins)
            text += f"; semijoins=[{nested}]"
        return text

    @cached_property
    def digest(self) -> int:
        """Stable 64-bit digest of :meth:`key` — process-independent,
        unlike builtin ``hash``.  Computed once per key object (the
        cached value lives in the instance, outside the dataclass
        fields, so equality and hashing are untouched)."""
        return _fnv1a_text(self.key())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key()


def conjunct_key(table: str, predicate_key: str) -> ScanKey:
    """The canonical cache key for one conjunct of a decomposed predicate.

    A conjunct key is a *plain* :class:`ScanKey` — never join-extended —
    over the conjunct's normalized canonical rendering.  Using the plain
    form means a direct scan of the same single-conjunct predicate and
    the reuse lattice's decomposer share one entry: there is no separate
    key namespace for derived entries.
    """
    if not predicate_key:
        raise ValueError("conjunct predicate key must be non-empty")
    return ScanKey(table, predicate_key)
