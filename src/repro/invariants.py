"""Debug-mode invariant validator (``REPRO_VALIDATE=1``).

The paper's safety argument rests on representation invariants that the
engine never re-checks at runtime: cached range lists are sorted,
disjoint, and non-empty (§4.1.1); a bitmap covers exactly the rows below
its watermark (§4.1.2); cached states never describe rows beyond their
slice; an install lands only in an entry that is still live (§4.3).  Violating any of these silently turns "approximate
but superset-of-truth" into "wrong answers".

This module makes those invariants machine-checked.  Validation is
**off by default and zero-cost when off**: every hook site guards with

    if invariants.ACTIVE:
        invariants.check_...(...)

i.e. one module-attribute read and a branch.  It is enabled by setting
``REPRO_VALIDATE=1`` in the environment (CI does, on the tier-1 test
job) or programmatically via :func:`enable` in tests.  A failed check
raises :class:`InvariantViolation` (an ``AssertionError`` subclass) with
enough context to reproduce.

Hook points (all behind the ``ACTIVE`` guard):

* ``RangeList._wrap`` — every range payload a state stores or decodes
  (built from row ids or a mask, bounded by ``coalesce``, read back
  from disk) re-verifies the bounds-array invariant.
* ``PredicateCache.record_slice_scan`` / ``install_restored`` — slice
  states and cache accounting.  (The one check that
  runs whether or not validation is armed: ``install_restored`` calls
  :func:`check_slice_state` on every state it is handed, before it
  touches the cache — those come from disk, not from a constructor.)
* ``CacheStore.snapshot_records`` — every snapshot rotation decodes its
  own bytes and compares records (round-trip self-check).
* ``Table`` writes and rewrites — every slice's MVCC summary equals its
  recomputation from the per-row timestamps.
* ``column.read_columns`` and ``LakeScanner._read_columns`` — every
  block a read takes from has its row of the column's decoded array
  written, and a block with a checksum matches it.
* ``RangeSliceState.placed`` — a block placement a state kept equals a
  fresh one of its rows each time a scan takes it, and its arrays are
  still read-only.

The module deliberately imports nothing from the rest of the package
(only numpy and the leaf ``repro.env``), so any module may call into it
without import cycles; checks are duck-typed over the objects they
receive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from . import env

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from numpy.typing import NDArray

__all__ = [
    "ACTIVE",
    "InvariantViolation",
    "enable",
    "disable",
    "enabled",
    "check_bounds",
    "check_slice_state",
    "check_slice_visibility",
    "check_decoded_rows",
    "check_placement",
    "check_cache",
    "check_snapshot_roundtrip",
]


#: Hook sites read this module attribute on every call; keep it a plain
#: bool so the disabled fast path is one attribute load and a branch.
ACTIVE: bool = env.VALIDATE


class InvariantViolation(AssertionError):
    """A machine-checked representation invariant does not hold."""


def enable() -> None:
    """Turn validation on for this process (tests, debugging)."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Turn validation off again."""
    global ACTIVE
    ACTIVE = False


def enabled() -> bool:
    return ACTIVE


def _fail(message: str) -> None:
    raise InvariantViolation(message)


# -- range payloads ---------------------------------------------------------


def check_bounds(bounds: "NDArray[np.int64]") -> None:
    """The range payload's (RangeList's) normalization invariant on a
    raw bounds array.

    Checks (DESIGN.md §6): shape ``(N, 2)``, dtype int64, starts >= 0,
    every range non-empty (``start < end``), and strictly increasing
    with positive gaps (``end[i] < start[i+1]``) — sorted, disjoint,
    non-adjacent.
    """
    arr = np.asarray(bounds)
    if arr.ndim != 2 or arr.shape[1] != 2:
        _fail(f"bounds must have shape (N, 2), got {arr.shape}")
    if arr.dtype != np.int64:
        _fail(f"bounds must be int64, got {arr.dtype}")
    if len(arr) == 0:
        return
    if int(arr[0, 0]) < 0:
        _fail(f"range start must be >= 0, got {int(arr[0, 0])}")
    if not bool((arr[:, 0] < arr[:, 1]).all()):
        bad = arr[arr[:, 0] >= arr[:, 1]][0]
        _fail(f"empty/inverted range [{int(bad[0])},{int(bad[1])}) in bounds")
    if len(arr) > 1 and not bool((arr[:-1, 1] < arr[1:, 0]).all()):
        idx = int(np.flatnonzero(arr[:-1, 1] >= arr[1:, 0])[0])
        _fail(
            "bounds not sorted/disjoint/non-adjacent at index "
            f"{idx}: [{int(arr[idx, 0])},{int(arr[idx, 1])}) then "
            f"[{int(arr[idx + 1, 0])},{int(arr[idx + 1, 1])})"
        )


# -- slice states -----------------------------------------------------------


def check_slice_state(state: Any, slice_rows: Optional[int] = None) -> None:
    """Per-slice cached state invariants (both index variants, §4.1).

    * range variant: bounds invariant holds, at most ``max_ranges``
      ranges, all rows below the ``last_cached_row`` watermark;
    * bitmap variant: the bit vector is bool with exactly
      ``ceil(last_cached_row / block_size)`` bits;
    * both: ``0 <= last_cached_row`` and, when the owning slice's row
      count is known, ``last_cached_row <= slice_rows`` (a state must
      never describe rows its slice does not have).
    """
    watermark = int(state.last_cached_row)
    if watermark < 0:
        _fail(f"last_cached_row must be >= 0, got {watermark}")
    if slice_rows is not None and watermark > int(slice_rows):
        _fail(
            f"last_cached_row {watermark} exceeds slice row count "
            f"{int(slice_rows)}"
        )
    if hasattr(state, "ranges"):  # RangeSliceState
        bounds = state.ranges.bounds
        check_bounds(bounds)
        if len(bounds) > int(state.max_ranges):
            _fail(
                f"range state holds {len(bounds)} ranges, "
                f"max_ranges is {int(state.max_ranges)}"
            )
        if len(bounds) and int(bounds[-1, 1]) > watermark:
            _fail(
                f"cached range ends at {int(bounds[-1, 1])}, beyond the "
                f"watermark {watermark}"
            )
    elif hasattr(state, "bits"):  # BitmapSliceState
        bits = state.bits
        if bits.dtype != np.bool_:
            _fail(f"bitmap bits must be bool, got {bits.dtype}")
        block_size = int(state.block_size)
        if block_size < 1:
            _fail(f"bitmap block_size must be >= 1, got {block_size}")
        expected = (watermark + block_size - 1) // block_size
        if len(bits) != expected:
            _fail(
                f"bitmap has {len(bits)} bits, watermark {watermark} at "
                f"block size {block_size} needs exactly {expected}"
            )
    else:
        _fail(f"unknown slice-state type {type(state).__name__}")


# -- MVCC summary -----------------------------------------------------------


def check_slice_visibility(data_slice: Any) -> None:
    """A data slice's MVCC summary equals its recomputation: ``max_xmin``
    is the newest row creator (0 with no rows) and ``min_xmax`` the
    oldest deleter (the "never" sentinel with no rows).  Scans skip the
    per-row visibility mask on the summary's word alone."""
    max_xmin = int(data_slice._xmin.values.max(initial=0))
    min_xmax = int(data_slice._xmax.values.min(initial=np.iinfo(np.int64).max))
    if (data_slice.max_xmin, data_slice.min_xmax) != (max_xmin, min_xmax):
        _fail(
            f"slice {data_slice.slice_id} of {data_slice.table_name!r} "
            f"summarizes (max_xmin={data_slice.max_xmin}, "
            f"min_xmax={data_slice.min_xmax}), its rows give "
            f"({max_xmin}, {min_xmax})"
        )


# -- decoded rows -------------------------------------------------------------


def check_decoded_rows(
    decoded: Any, encoded: Any, indices: Any, checksum: Any
) -> None:
    """Every sealed block ``indices`` (``int64``) names has its row of
    the column's decoded array (``decoded``, a ``DecodedBlocks``)
    written, and where the encoded block (``encoded[index]``) carries a
    checksum, the row's first ``num_values`` values match it under
    ``checksum`` (``array_checksum``, passed in because this module
    imports nothing from the package): a lake file's short last row
    group fills only its row's prefix.  A read takes its rows from these blocks right
    after the call."""
    for index in np.asarray(indices).tolist():
        if not decoded.written(index):
            _fail(f"block {index} is read but its decoded row was never written")
        block = encoded[index]
        row = decoded.row(index)[: block.num_values]
        if block.checksum is not None and checksum(row) != block.checksum:
            _fail(f"decoded row of block {index} does not match its checksum")


# -- kept placements -----------------------------------------------------------


def check_placement(kept: Any, fresh: Any) -> None:
    """A block coverage a state kept (``RangeSliceState.placed``) equals
    ``fresh``, the same rows placed again, field for field, and its
    arrays are still read-only: every statement and thread that takes
    it shares the one object."""
    arrays = ("row_ids", "blocks", "tail_offsets")
    for name in arrays:
        if getattr(kept, name).flags.writeable:
            _fail(f"a kept placement's {name} is writeable")
    fields = ("sealed_rows", "whole_blocks")
    if any(getattr(kept, name) != getattr(fresh, name) for name in fields) or not all(
        np.array_equal(getattr(kept, name), getattr(fresh, name)) for name in arrays
    ):
        _fail(
            f"a kept placement of {len(kept.row_ids)} rows over "
            f"{kept.sealed_rows} sealed rows differs from a fresh one of "
            f"{len(fresh.row_ids)} rows over {fresh.sealed_rows}"
        )


# -- cache accounting -------------------------------------------------------

def check_cache(cache: Any) -> None:
    """Whole-cache accounting invariants.

    * capacity: the byte budget is respected whenever more than one
      entry is live (a single oversized entry is allowed to stay,
      matching the eviction loop), and the cache's running byte count
      equals the live entries' payload re-summed;
    * every live entry has at least one slice;
    * policy accounting: a bounded admission policy never tracks more
      keys than its configured bound;
    * side index (DESIGN.md §14): it equals what a walk of the live
      entries derives (:func:`_check_cache_index`).
    """
    entries = cache.entries()
    total = sum(entry.nbytes for entry in entries)
    max_bytes = cache.config.max_bytes
    if max_bytes is not None and len(entries) > 1 and total > max_bytes:
        _fail(f"total payload {total} B exceeds max_bytes {max_bytes} B")
    if cache.total_nbytes != total:
        _fail(f"byte count {cache.total_nbytes} B, live entries hold {total} B")
    for entry in entries:
        if len(entry.slice_states) == 0:
            _fail(f"entry {entry.key.key()!r} has zero slices")
    tracked = getattr(cache.policy, "tracked_keys", None)
    max_tracked = getattr(cache.policy, "max_tracked", None)
    if tracked is not None and max_tracked is not None and tracked > max_tracked:
        _fail(
            f"admission policy tracks {tracked} keys, bound is {max_tracked}"
        )
    _check_cache_index(cache, entries)


def _check_cache_index(cache: Any, entries: Any) -> None:
    """The cache's side index equals what a walk of its live entries
    (in LRU order) derives: every plain key whose predicate parses to
    one exact single-column interval — with reuse on — in its (table,
    column) bucket, with its live entry and that interval, each bucket
    ordered by its distinct stamps as the LRU orders it.  A slot's arrays
    hold its interval's ends and folded ends (the slot marked inexact
    where a float cannot hold them) and its width.  No bucket is empty."""
    from .core.intervals import end_keys
    from .predicates.interval import exact_interval_of_key

    ranges: dict = {}
    for entry in entries:
        key = entry.key
        if cache.config.enable_reuse and not key.is_join_key:
            interval = exact_interval_of_key(key.predicate_key)
            if interval is not None:
                ranges.setdefault((key.table, interval[0]), []).append(
                    (key, entry, interval[1])
                )
    indexed = {}
    for slot_key, bucket in cache._ranges.items():
        order = bucket.in_lru_order()
        stamps = [int(bucket.stamps[slot]) for slot in order]
        if len(set(stamps)) != len(stamps):
            _fail(f"interval index bucket {slot_key} repeats an LRU stamp")
        if bucket.slot_of != {key: slot for slot, key in enumerate(bucket.keys)}:
            _fail(f"interval index bucket {slot_key} misplaces its keys")
        for slot, bounds in enumerate(bucket.bounds[: len(bucket)]):
            keys = end_keys(bounds)
            held = tuple(
                float(getattr(bucket, name)[slot])
                for name in ("lo", "hi", "lo_key", "hi_key")
            )
            if (
                bool(bucket.inexact[slot]) != (keys is None)
                or (keys is not None and held != keys)
                or float(bucket.widths[slot]) != bounds.width()
            ):
                _fail(f"interval index bucket {slot_key} misstates slot {slot}")
        indexed[slot_key] = [
            (bucket.keys[slot], bucket.entries[slot], bucket.bounds[slot])
            for slot in order
        ]
    if indexed != ranges:
        wrong = sorted(
            slot
            for slot in set(indexed) | set(ranges)
            if indexed.get(slot) != ranges.get(slot)
        )
        _fail(
            f"interval index disagrees with the live entries (or their LRU "
            f"order) on bucket(s) {wrong}"
        )
    columns = {
        key: column for (_, column), bucket in ranges.items() for key, _, _ in bucket
    }
    if cache._range_columns != columns:
        _fail("interval index's key -> column map disagrees with its buckets")


# -- snapshot round trip ----------------------------------------------------


def check_snapshot_roundtrip(records: Any, data: bytes) -> None:
    """A freshly encoded snapshot must decode back to its own records.

    Called on store rotation *before* any fault injection touches the
    bytes: decode must report no damage and yield a record set equal,
    field for field and state for state, to what was encoded.
    """
    from .persist.format import decode_snapshot

    decoded, _meta, issues = decode_snapshot(data)
    if not issues.clean:
        _fail(
            "snapshot round-trip decode reported damage on fresh bytes: "
            f"corrupt_sections={issues.corrupt_sections} "
            f"truncated={issues.truncated} "
            f"unsupported_version={issues.unsupported_version}"
        )
    if set(decoded) != set(records):
        _fail(
            "snapshot round-trip lost/invented entries: encoded "
            f"{len(records)}, decoded {len(decoded)}"
        )
    for digest, record in records.items():
        if decoded[digest] != record:
            _fail(
                f"snapshot round-trip altered entry {record.key.key()!r} "
                f"(digest {digest})"
            )
