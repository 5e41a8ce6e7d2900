"""Cache entry payloads: per-slice qualifying-row state.

Both index variants (§4.1.1–4.1.2) share the same lifecycle:

1. On the first scan, the qualifying row ranges of each slice are
   recorded, together with ``last_cached_row`` — the slice size at scan
   time.
2. On a repeat, :meth:`candidates` returns the rows the scan must still
   look at: the cached qualifying rows (a superset of the truth — false
   positives only) plus the *uncached tail* appended since.
3. After the repeat scanned the tail, :meth:`extended` builds the state
   with the tail's qualifying rows folded in, keeping the entry complete
   without rebuilds — the "online under inserts" property of §4.3.1.

The **range variant** stores at most ``max_ranges`` merged row ranges
(bounded by :meth:`RangeList.coalesce`, the gap heap's batch form).
The **bitmap variant** stores one bit per ``block_size`` rows; it grows
with the table but is ~8x smaller at the paper's settings (Table 3).

A state is an immutable value: nothing changes one after its
constructor returns, and folding a tail in yields a *new* state.  The
owning :class:`~repro.core.cache.PredicateCache` publishes it by storing
that one reference into ``CacheEntry.slice_states`` under its lock.  A
reader takes the slot's reference once and works on a state that is
complete and stays so: lock-free scans, journal captures and snapshots
all hold the value itself, and a reader that took the previous state
merely re-scans the tail.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .rowrange import RangeList

__all__ = [
    "SliceState",
    "RangeSliceState",
    "BitmapSliceState",
    "CacheEntry",
    "PROVENANCES",
]

# How an entry came to exist (DESIGN.md §14).  Order matters: the
# persistence layer encodes provenance as the index into this tuple.
PROVENANCES: Tuple[str, ...] = ("scan", "conjunct", "composed", "subsumed")


class SliceState:
    """Per-slice qualifying-row state (abstract, immutable)."""

    __slots__ = ()

    last_cached_row: int

    def candidates(self, num_rows: int) -> RangeList:
        """Rows a repeated scan must evaluate: cached hits + new tail."""
        return self.cached_candidates().union(self._tail_range(num_rows))

    def cached_candidates(self) -> RangeList:
        """Just the cached qualifying rows (rows < last_cached_row)."""
        raise NotImplementedError

    def extended(
        self, tail_qualifying: RangeList, scanned_upto: int
    ) -> "SliceState":
        """The state with the qualifying rows of the previously uncached
        tail folded in — ``self`` when no row was appended since."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    def _tail_range(self, num_rows: int) -> RangeList:
        last = self.last_cached_row
        if num_rows > last:
            return RangeList._wrap(
                np.array([[last, num_rows]], dtype=np.int64), num_rows - last
            )
        return RangeList.empty()

    def _check_grows_to(self, scanned_upto: int) -> None:
        if scanned_upto < self.last_cached_row:
            raise ValueError(
                f"cannot shrink cached region from {self.last_cached_row} "
                f"to {scanned_upto}"
            )


class RangeSliceState(SliceState):
    """Bounded list of merged row ranges (§4.1.1)."""

    __slots__ = ("ranges", "last_cached_row", "max_ranges")

    def __init__(
        self, qualifying: RangeList, scanned_upto: int, max_ranges: int
    ) -> None:
        self.ranges = qualifying.coalesce(max_ranges)
        self.last_cached_row = scanned_upto
        self.max_ranges = max_ranges

    @classmethod
    def _wrap(
        cls, ranges: RangeList, last_cached_row: int, max_ranges: int
    ) -> "RangeSliceState":
        """Trusted constructor: ``ranges`` is the stored list itself."""
        out = cls.__new__(cls)
        out.ranges = ranges
        out.last_cached_row = last_cached_row
        out.max_ranges = max_ranges
        return out

    def cached_candidates(self) -> RangeList:
        return self.ranges

    def extended(
        self, tail_qualifying: RangeList, scanned_upto: int
    ) -> "RangeSliceState":
        self._check_grows_to(scanned_upto)
        if scanned_upto == self.last_cached_row:
            return self
        merged = self.ranges.union(
            tail_qualifying.clip(self.last_cached_row, scanned_upto)
        )
        return self._wrap(
            merged.coalesce(self.max_ranges), scanned_upto, self.max_ranges
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSliceState):
            return NotImplemented
        return (
            self.last_cached_row == other.last_cached_row
            and self.max_ranges == other.max_ranges
            and self.ranges == other.ranges
        )

    @property
    def nbytes(self) -> int:
        # Two 8-byte row ids per range plus the watermark.
        return self.ranges.nbytes + 8


class BitmapSliceState(SliceState):
    """One bit per block of ``block_size`` rows (§4.1.2)."""

    __slots__ = ("bits", "last_cached_row", "block_size")

    def __init__(
        self, qualifying: RangeList, scanned_upto: int, block_size: int
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.bits = _block_bits(qualifying, scanned_upto, block_size)
        self.bits.setflags(write=False)
        self.last_cached_row = scanned_upto
        self.block_size = block_size

    @classmethod
    def _wrap(
        cls, bits: np.ndarray, last_cached_row: int, block_size: int
    ) -> "BitmapSliceState":
        """Trusted constructor: ``bits`` is the stored vector itself."""
        out = cls.__new__(cls)
        bits.setflags(write=False)
        out.bits = bits
        out.last_cached_row = last_cached_row
        out.block_size = block_size
        return out

    def cached_candidates(self) -> RangeList:
        if not self.bits.any():
            return RangeList.empty()
        # Merged runs of set bits scaled to row ranges are normal by
        # construction; the watermark lies inside the last block (which
        # may be partial), so clipping the last end keeps them so.
        bounds = RangeList.from_mask(self.bits).bounds * self.block_size
        if bounds[-1, 1] > self.last_cached_row:
            bounds[-1, 1] = self.last_cached_row
        return RangeList._wrap(bounds)

    def extended(
        self, tail_qualifying: RangeList, scanned_upto: int
    ) -> "BitmapSliceState":
        self._check_grows_to(scanned_upto)
        if scanned_upto == self.last_cached_row:
            return self
        grown = _block_bits(
            tail_qualifying.clip(self.last_cached_row, scanned_upto),
            scanned_upto,
            self.block_size,
        )
        grown[: len(self.bits)] |= self.bits  # a fresh vector, not yet handed out
        return self._wrap(grown, scanned_upto, self.block_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitmapSliceState):
            return NotImplemented
        return (
            self.last_cached_row == other.last_cached_row
            and self.block_size == other.block_size
            and np.array_equal(self.bits, other.bits)
        )

    @property
    def nbytes(self) -> int:
        # One bit per block plus the watermark.
        return (len(self.bits) + 7) // 8 + 8


def _block_bits(
    qualifying: RangeList, num_rows: int, block_size: int
) -> np.ndarray:
    """One bool per ``block_size`` rows of ``[0, num_rows)``: True where
    a qualifying range touches the block."""
    num_blocks = (num_rows + block_size - 1) // block_size
    bounds = qualifying.bounds
    if not len(bounds):
        return np.zeros(num_blocks, dtype=bool)
    # Boundary-delta accumulation over block indices: +1 at each
    # range's first block, -1 one past its last block, prefix sum > 0
    # marks covered blocks — no per-range Python loop.
    delta = np.zeros(num_blocks + 1, dtype=np.int64)
    np.add.at(delta, bounds[:, 0] // block_size, 1)
    np.add.at(delta, (bounds[:, 1] - 1) // block_size + 1, -1)
    return np.cumsum(delta[:-1]) > 0


class CacheEntry:
    """One predicate-cache entry: per-slice states plus bookkeeping."""

    __slots__ = (
        "key",
        "slice_states",
        "build_versions",
        "generation",
        "hits",
        "rows_qualifying",
        "rows_considered",
        "provenance",
        "source_digests",
    )

    def __init__(
        self,
        key,
        num_slices: int,
        build_versions: dict,
        provenance: str = "scan",
        source_digests: Tuple[int, ...] = (),
    ) -> None:
        self.key = key
        self.slice_states: List[Optional[SliceState]] = [None] * num_slices
        # data_version of each build-side table at entry creation; a
        # mismatch at lookup time means the semi-join filter contents
        # may have changed and the entry is stale (§4.4).
        self.build_versions = dict(build_versions)
        # The cache's per-table invalidation generation when this entry
        # was stored (stamped by the owning cache's insert).  A scan
        # that prepared against an older generation (a vacuum fired
        # mid-flight) must not install its row ranges: the numbering
        # they describe no longer exists.
        self.generation = 0
        self.hits = 0
        self.rows_qualifying = 0
        self.rows_considered = 0
        # How this entry came to exist (DESIGN.md §14): "scan" for a
        # direct install, "conjunct" for a decomposed part, "composed" /
        # "subsumed" for full-key entries filled by a reuse-served scan.
        # Derived entries record the key digests they were built from so
        # explain/analyze and the invariant checker can audit the lattice.
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown entry provenance {provenance!r}")
        self.provenance = provenance
        self.source_digests: Tuple[int, ...] = tuple(source_digests)

    @property
    def complete(self) -> bool:
        """True once every slice has recorded state."""
        return all(state is not None for state in self.slice_states)

    @property
    def selectivity(self) -> float:
        """Fraction of considered rows that qualified (1.0 if unknown).

        Drives the "choose the most selective matching entry" rule of
        §4.4 when both a plain and a join-index entry match.
        """
        if self.rows_considered == 0:
            return 1.0
        return self.rows_qualifying / self.rows_considered

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.slice_states if s is not None)

    def record_scan_stats(self, qualifying: int, considered: int) -> None:
        self.rows_qualifying += qualifying
        self.rows_considered += considered
