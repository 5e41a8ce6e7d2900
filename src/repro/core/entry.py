"""Cache entry payloads: per-slice qualifying-row state.

Both index variants (§4.1.1–4.1.2) share the same lifecycle:

1. On the first scan, the qualifying row ranges of each slice are
   recorded, together with ``last_cached_row`` — the slice size at scan
   time.
2. On a repeat, :meth:`candidates` returns the rows the scan must still
   look at: the cached qualifying rows (a superset of the truth — false
   positives only) plus the *uncached tail* appended since.
3. After the repeat scanned the tail, :meth:`extend` folds the tail's
   qualifying rows in, keeping the entry complete without rebuilds —
   the "online under inserts" property of §4.3.1.

The **range variant** stores at most ``max_ranges`` merged row ranges
(bounded by :meth:`RangeList.coalesce`, the gap heap's batch form).
The **bitmap variant** stores one bit per ``block_size`` rows; it grows
with the table but is ~8x smaller at the paper's settings (Table 3).

Publication ordering: installs and extensions are serialized by the
owning :class:`~repro.core.cache.PredicateCache` lock, but *readers*
(the scan path consuming :meth:`SliceState.candidates`) run lock-free.
Both ``extend`` implementations therefore publish the new qualifying
state **before** advancing ``last_cached_row``: a racing reader sees
either the old state (and re-scans the tail) or the new state with the
old watermark (a superset of the truth) — never a new watermark over
old state, which would silently skip tail rows.
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
    """Per-slice qualifying-row state (abstract)."""

    last_cached_row: int

    def candidates(self, num_rows: int) -> RangeList:
        """Rows a repeated scan must evaluate: cached hits + new tail."""
        # Watermark before state — the reverse of extend's publication
        # order, so a racing extend can only widen what is read here.
        tail = self._tail_range(num_rows)
        return self.cached_candidates().union(tail)

    def cached_candidates(self) -> RangeList:
        """Just the cached qualifying rows (rows < last_cached_row)."""
        raise NotImplementedError

    def extend(self, tail_qualifying: RangeList, scanned_upto: int) -> None:
        """Fold in qualifying rows of the previously uncached tail."""
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


class RangeSliceState(SliceState):
    """Bounded list of merged row ranges (§4.1.1)."""

    __slots__ = ("ranges", "last_cached_row", "max_ranges")

    def __init__(
        self, qualifying: RangeList, scanned_upto: int, max_ranges: int
    ) -> None:
        self.max_ranges = max_ranges
        self.ranges = qualifying.coalesce(max_ranges)
        self.last_cached_row = scanned_upto

    def cached_candidates(self) -> RangeList:
        return self.ranges

    def extend(self, tail_qualifying: RangeList, scanned_upto: int) -> None:
        if scanned_upto < self.last_cached_row:
            raise ValueError(
                f"cannot shrink cached region from {self.last_cached_row} "
                f"to {scanned_upto}"
            )
        if scanned_upto == self.last_cached_row:
            return  # a repeat with no rows appended since: nothing to fold in
        merged = self.ranges.union(tail_qualifying.clip(self.last_cached_row, scanned_upto))
        # Publish the merged ranges before advancing the watermark (see
        # module docstring): lock-free readers must never observe a new
        # watermark over the old, tail-less range list.
        self.ranges = merged.coalesce(self.max_ranges)
        self.last_cached_row = scanned_upto

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
        self.block_size = block_size
        self.bits = np.zeros(self._num_blocks(scanned_upto), dtype=bool)
        self.last_cached_row = scanned_upto
        self._set_bits(qualifying)

    def _num_blocks(self, num_rows: int) -> int:
        return (num_rows + self.block_size - 1) // self.block_size

    def _set_bits(self, qualifying: RangeList) -> None:
        bounds = qualifying.bounds
        if not len(bounds):
            return
        # Boundary-delta accumulation over block indices: +1 at each
        # range's first block, -1 one past its last block, prefix sum > 0
        # marks covered blocks — no per-range Python loop.
        delta = np.zeros(len(self.bits) + 1, dtype=np.int64)
        np.add.at(delta, bounds[:, 0] // self.block_size, 1)
        np.add.at(delta, (bounds[:, 1] - 1) // self.block_size + 1, -1)
        self.bits |= np.cumsum(delta[:-1]) > 0

    def cached_candidates(self) -> RangeList:
        # The bits of the watermark's own blocks only: a racing extend
        # grows ``bits`` before it advances ``last_cached_row``.
        last = self.last_cached_row
        bits = self.bits[: self._num_blocks(last)]
        if not bits.any():
            return RangeList.empty()
        # Merged runs of set bits scaled to row ranges are normal by
        # construction; the watermark lies inside the last block (which
        # may be partial), so clipping the last end keeps them so.
        bounds = RangeList.from_mask(bits).bounds * self.block_size
        if bounds[-1, 1] > last:
            bounds[-1, 1] = last
        return RangeList._wrap(bounds)

    def extend(self, tail_qualifying: RangeList, scanned_upto: int) -> None:
        if scanned_upto < self.last_cached_row:
            raise ValueError(
                f"cannot shrink cached region from {self.last_cached_row} "
                f"to {scanned_upto}"
            )
        if scanned_upto == self.last_cached_row:
            return  # a repeat with no rows appended since: nothing to fold in
        needed = self._num_blocks(scanned_upto)
        if needed > len(self.bits):
            grown = np.zeros(needed, dtype=bool)
            grown[: len(self.bits)] = self.bits
            self.bits = grown
        # Set the tail bits before advancing the watermark (see module
        # docstring): a racing lock-free reader then sees at worst extra
        # candidate blocks under the old watermark — superset-safe.
        self._set_bits(tail_qualifying.clip(self.last_cached_row, scanned_upto))
        self.last_cached_row = scanned_upto

    @property
    def nbytes(self) -> int:
        # One bit per block plus the watermark.
        return (len(self.bits) + 7) // 8 + 8


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
        generation: int = 0,
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
        # was created.  A scan that prepared against an older generation
        # (a vacuum fired mid-flight) must not install its row ranges:
        # the numbering they describe no longer exists.
        self.generation = generation
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
    def source_keys(self) -> tuple:
        """Keys of the installed entries whose state this entry serves
        from: itself.  (An ephemeral reuse serving names the entries it
        was assembled from instead — the scan drops *those* when a
        served state turns out stale.)"""
        return (self.key,)

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
