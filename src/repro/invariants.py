"""Debug-mode invariant validator (``REPRO_VALIDATE=1``).

The paper's safety argument rests on representation invariants that the
engine never re-checks at runtime: cached range lists are sorted,
disjoint, and non-empty (§4.1.1); a bitmap covers exactly the rows below
its watermark (§4.1.2); cached states never describe rows beyond their
slice; entries never outlive the invalidation generation they were
stamped with (§4.3).  Violating any of these silently turns "approximate
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

* ``RangeList._wrap`` — every trusted (already-normalized) construction
  re-verifies the bounds-array invariant.
* ``PredicateCache.record_slice_scan`` / ``install_restored`` — slice
  states, generation stamps, and cache accounting.  (The one check that
  runs whether or not validation is armed: ``install_restored`` calls
  :func:`check_slice_state` on every state it is handed, before it
  touches the cache — those come from disk, not from a constructor.)
* ``CacheStore._write_snapshot`` — every snapshot rotation decodes its
  own bytes and compares records (round-trip self-check).

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


# -- range lists ------------------------------------------------------------


def check_bounds(bounds: "NDArray[np.int64]") -> None:
    """The RangeList normalization invariant on a raw bounds array.

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


# -- cache accounting -------------------------------------------------------

#: Mirrors :data:`repro.core.entry.PROVENANCES` — duplicated because
#: this module deliberately imports nothing from the package (see
#: module docstring); ``test_reuse`` asserts the two stay equal.
_PROVENANCES = ("scan", "conjunct", "composed", "subsumed")


def check_cache(cache: Any) -> None:
    """Whole-cache accounting invariants.

    * capacity: live entries respect ``max_entries``; the byte budget is
      respected whenever more than one entry is live (a single oversized
      entry is allowed to stay, matching the eviction loop);
    * generations: every live entry's stamp equals the cache's current
      generation for its table (stale entries are dropped on
      invalidation and stale installs refused — a mismatch means one
      slipped through), and generations never go negative;
    * policy accounting: a bounded admission policy never tracks more
      keys than its configured bound;
    * reuse provenance (DESIGN.md §14): every entry's provenance tag is
      known, and derived provenances (``composed``/``subsumed``) carry
      source digests while primary ones (``scan``/``conjunct``) carry
      none.
    """
    entries = cache.entries()
    limit = cache.config.max_entries
    if limit is not None and len(entries) > limit:
        _fail(f"{len(entries)} live entries exceed max_entries {limit}")
    max_bytes = cache.config.max_bytes
    if max_bytes is not None and len(entries) > 1:
        total = cache.total_nbytes
        if total > max_bytes:
            _fail(f"total payload {total} B exceeds max_bytes {max_bytes} B")
    for table_name, generation in cache._generations.items():
        if generation < 0:
            _fail(f"negative generation {generation} for table {table_name!r}")
    for entry in entries:
        current = cache.generation_of(entry.key.table)
        if entry.generation != current:
            _fail(
                f"entry {entry.key.key()!r} stamped generation "
                f"{entry.generation}, table is at {current}"
            )
        if len(entry.slice_states) == 0:
            _fail(f"entry {entry.key.key()!r} has zero slices")
        provenance = getattr(entry, "provenance", "scan")
        if provenance not in _PROVENANCES:
            _fail(
                f"entry {entry.key.key()!r} has unknown provenance "
                f"{provenance!r}"
            )
        sources = tuple(getattr(entry, "source_digests", ()))
        if provenance in ("composed", "subsumed") and not sources:
            _fail(
                f"derived entry {entry.key.key()!r} ({provenance}) has "
                "no source digests"
            )
        if provenance in ("scan", "conjunct") and sources:
            _fail(
                f"primary entry {entry.key.key()!r} ({provenance}) "
                f"carries source digests {sources}"
            )
    tracked = getattr(cache.policy, "tracked_keys", None)
    max_tracked = getattr(cache.policy, "max_tracked", None)
    if tracked is not None and max_tracked is not None and tracked > max_tracked:
        _fail(
            f"admission policy tracks {tracked} keys, bound is {max_tracked}"
        )


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
