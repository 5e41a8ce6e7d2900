"""One bucket of the predicate cache's interval index (DESIGN.md §14).

A bucket holds the live plain entries on one (table, column) whose
predicate is one exact interval of that column, the subsumption
matcher's candidates.  It keeps them by slot in arrays — the entry, the
interval, its width, its ends as floats and the LRU stamp of its key —
so that :meth:`containing` tests every slot in one vectorized comparison
and gathers the containing ones by index.

Each end is held twice.  ``lo`` and ``hi`` are its value.  ``lo_key``
and ``hi_key`` fold its strictness in: an open end moves one float
inward (:func:`math.nextafter`), so against a closed requested end one
comparison says what :meth:`Bounds.contains` does — an open end at ``v``
contains a closed end at ``w`` exactly when ``v < w``, and no float lies
between ``v`` and the next one.  An unbounded end is ``-inf`` / ``inf``.
An end a float cannot hold exactly (a string, an int past 2**53, a
non-finite float) marks its slot ``inexact``: :meth:`containing` keeps
such a slot and asks :meth:`Bounds.contains` to decide it.

The stamps come from one clock the cache advances on every install and
touch of an indexed key, so ordered by stamp a bucket's keys come in the
order a walk of the whole cache meets them.  A removed slot's place is
taken by the last one.

Read and mutated only by its owning
:class:`~repro.core.cache.PredicateCache`, under that cache's ``_lock``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..predicates.ast import Bounds

if TYPE_CHECKING:
    from .entry import CacheEntry
    from .keys import ScanKey

__all__ = ["Candidates", "IntervalBucket", "end_keys"]

_FLOAT_EXACT = 2**53
_ARRAYS = (
    "entries", "bounds", "lo", "hi", "lo_key", "hi_key", "widths", "inexact", "stamps",
)


def _float_end(value: object) -> Optional[float]:
    """``value`` as a float when a float holds it exactly and it is
    finite, so that float comparisons order it as Python does; else
    None."""
    if isinstance(value, (int, np.integer)):
        number = int(value)
        return float(number) if -_FLOAT_EXACT <= number <= _FLOAT_EXACT else None
    if isinstance(value, (float, np.floating)):
        number = float(value)
        return number if math.isfinite(number) else None
    return None


def end_keys(bounds: Bounds) -> Optional[Tuple[float, float, float, float]]:
    """``(lo, hi, lo_key, hi_key)`` of an interval (see the module
    docstring), or None when an end is not exact as a float."""
    lo = -math.inf if bounds.lo is None else _float_end(bounds.lo)
    hi = math.inf if bounds.hi is None else _float_end(bounds.hi)
    if lo is None or hi is None:
        return None
    open_lo = bounds.lo_strict and bounds.lo is not None
    open_hi = bounds.hi_strict and bounds.hi is not None
    lo_key = math.nextafter(lo, math.inf) if open_lo else lo
    hi_key = math.nextafter(hi, -math.inf) if open_hi else hi
    return lo, hi, lo_key, hi_key


class Candidates(NamedTuple):
    """The slots of a bucket that may contain a requested interval: per
    slot its entry and interval (object arrays), width and LRU stamp, and
    whether :meth:`Bounds.contains` must still decide it."""

    entries: np.ndarray
    bounds: np.ndarray
    widths: np.ndarray
    stamps: np.ndarray
    recheck: np.ndarray


class IntervalBucket:
    """The slots of one (table, column) bucket (see the module docstring).
    Every method runs with the owning cache's ``_lock`` held."""

    __slots__ = ("keys", "slot_of") + _ARRAYS

    def __init__(self) -> None:
        self.keys: List["ScanKey"] = []
        self.slot_of: Dict["ScanKey", int] = {}
        self.entries = np.empty(8, dtype=object)
        self.bounds = np.empty(8, dtype=object)
        self.lo = np.empty(8, dtype=np.float64)
        self.hi = np.empty(8, dtype=np.float64)
        self.lo_key = np.empty(8, dtype=np.float64)
        self.hi_key = np.empty(8, dtype=np.float64)
        self.widths = np.empty(8, dtype=np.float64)
        self.inexact = np.empty(8, dtype=bool)
        self.stamps = np.empty(8, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)

    def put(
        self, key: "ScanKey", entry: "CacheEntry", bounds: Bounds, stamp: int
    ) -> None:
        """Index ``key``'s live ``entry`` with its interval; a key already
        here keeps its slot and its stamp (a restore over a live key keeps
        its LRU place)."""
        slot = self.slot_of.get(key)
        if slot is not None:
            self.entries[slot] = entry
            return
        slot = len(self.keys)
        if slot == len(self.stamps):
            for name in _ARRAYS:
                array = getattr(self, name)
                grown = np.empty(2 * len(array), dtype=array.dtype)
                grown[:slot] = array
                setattr(self, name, grown)
        self.keys.append(key)
        self.slot_of[key] = slot
        self.entries[slot] = entry
        self.bounds[slot] = bounds
        keys = end_keys(bounds)
        self.inexact[slot] = keys is None
        self.lo[slot], self.hi[slot], self.lo_key[slot], self.hi_key[slot] = (
            keys or (math.nan,) * 4
        )
        self.widths[slot] = bounds.width()
        self.stamps[slot] = stamp

    def touch(self, key: "ScanKey", stamp: int) -> None:
        """Mark ``key`` used at ``stamp``, the cache's newest."""
        self.stamps[self.slot_of[key]] = stamp

    def remove(self, key: "ScanKey") -> None:
        """Take ``key`` out; the last slot moves into its place."""
        slot = self.slot_of.pop(key)
        last = len(self.keys) - 1
        if slot != last:
            self.keys[slot] = self.keys[last]
            self.slot_of[self.keys[slot]] = slot
            for name in _ARRAYS:
                array = getattr(self, name)
                array[slot] = array[last]
        self.keys.pop()
        self.entries[last] = self.bounds[last] = None

    def containing(self, wanted: Bounds) -> Candidates:
        """The slots whose interval may contain ``wanted``.

        Where ``wanted``'s ends are exact as floats this is
        :meth:`Bounds.contains` itself, one comparison per side: an open
        requested end is contained by an end at or below (above) its
        value, a closed one by a folded end at or below (above) it.
        Inexact slots are kept and re-checked, and so is every slot when
        ``wanted`` has an inexact end.
        """
        n = len(self.keys)
        keys = end_keys(wanted)
        if keys is None:
            slots = np.arange(n)
            recheck = np.ones(n, dtype=bool)
        else:
            lo, hi = keys[0], keys[1]
            lo_ok = (self.lo if wanted.lo_strict else self.lo_key)[:n] <= lo
            hi_ok = (self.hi if wanted.hi_strict else self.hi_key)[:n] >= hi
            slots = np.flatnonzero((lo_ok & hi_ok) | self.inexact[:n])
            recheck = self.inexact[slots]
        return Candidates(
            self.entries[slots],
            self.bounds[slots],
            self.widths[slots],
            self.stamps[slots],
            recheck,
        )

    def in_lru_order(self) -> List[int]:
        """The slots, least recently used first."""
        return np.argsort(self.stamps[: len(self.keys)], kind="stable").tolist()
