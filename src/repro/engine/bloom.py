"""Bloom filters for semi-join pushdown.

Redshift builds a Bloom filter on the build side of a hash join and
passes it to the probe-side scan (§4.4) so rows without a join partner
are dropped during the vectorized scan.  The implementation is fully
vectorized: ``k`` multiply-shift hash functions over int64 keys, one
bool per bit in a ``num_bits``-slot table (a set is one scatter, a test
one gather — no byte / shift arithmetic).  Most probed keys are
absent, so a probe rejects them hash by hash: the first two hashes run
one at a time over the keys still alive, and only the survivors (at
most about a quarter of absent keys at the design load) pay the
remaining ``k - 2`` as one gather.  Which keys pass is exactly "all k bits set" either way.
A table scan probes all of its slices' keys in one call, most of them
repeats of a few join-key values: when the keys span a range at most
half as long as they are many, each value of that range is probed once
and the keys look their verdict up.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BloomFilter"]

# Odd 64-bit multipliers for the multiply-shift hash family.
_MULTIPLIERS = np.array(
    [
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
        0x85EBCA77C2B2AE63,
        0xFF51AFD7ED558CCD,
        0xC4CEB9FE1A85EC53,
        0x2545F4914F6CDD1D,
    ],
    dtype=np.uint64,
)

# Hashes a probe applies one at a time, compacting the live keys after
# each; the rest are one gather over the survivors.
_STAGED_HASHES = 2

# Keys that make a range-table probe worth its min and max passes.
_TABLE_MIN_KEYS = 64


class BloomFilter:
    """A fixed-size Bloom filter over int64 keys.

    Args:
        expected_items: sizing hint.
        fpr: target false-positive rate (default 1 %).
    """

    def __init__(self, expected_items: int, fpr: float = 0.01) -> None:
        expected_items = max(1, int(expected_items))
        if not (0.0 < fpr < 1.0):
            raise ValueError("fpr must be in (0, 1)")
        num_bits = max(64, int(-expected_items * math.log(fpr) / (math.log(2) ** 2)))
        self.num_bits = 1 << max(6, (num_bits - 1).bit_length())
        self.num_hashes = min(
            len(_MULTIPLIERS), max(1, round(self.num_bits / expected_items * math.log(2)))
        )
        self._bits = np.zeros(self.num_bits, dtype=bool)
        self._shift = np.uint64(64 - int(math.log2(self.num_bits)))
        self.items_added = 0

    def _positions(self, keys: np.ndarray, first: int) -> np.ndarray:
        """Bit positions of uint64 ``keys`` under hashes ``first`` to
        ``num_hashes - 1``, shape (num_hashes - first, len(keys)).

        Array products wrap modulo 2**64 without a warning, which is
        the multiply-shift hash itself.
        """
        mults = _MULTIPLIERS[first : self.num_hashes, None]
        return (keys[None, :] * mults) >> self._shift

    def add_many(self, keys: np.ndarray) -> None:
        """Insert all keys (vectorized)."""
        if len(keys) == 0:
            return
        self._bits[self._positions(_as_uint64(keys), 0)] = True
        self.items_added += len(keys)

    def may_contain(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask (false positives possible)."""
        keys = np.asarray(keys).astype(np.int64, copy=False)
        if len(keys) >= _TABLE_MIN_KEYS:
            low, high = int(keys.min()), int(keys.max())
            if 2 * (high - low + 1) <= len(keys):
                span = np.arange(low, high + 1, dtype=np.int64)
                return self._probe(span.view(np.uint64))[keys - low]
        return self._probe(keys.view(np.uint64))

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`may_contain` of uint64 ``keys``."""
        found = np.zeros(len(keys), dtype=bool)
        # Indices into the caller's keys of those no hash has ruled out
        # yet; ``keys`` is compacted alongside after every staged hash.
        alive = np.flatnonzero(self._bits[(keys * _MULTIPLIERS[0]) >> self._shift])
        keys = keys[alive]
        staged = min(_STAGED_HASHES, self.num_hashes)
        for mult in _MULTIPLIERS[1:staged]:
            keep = np.flatnonzero(self._bits[(keys * mult) >> self._shift])
            alive, keys = alive[keep], keys[keep]
        if self.num_hashes > staged and len(keys):
            alive = alive[self._bits[self._positions(keys, staged)].all(axis=0)]
        found[alive] = True
        return found

    @property
    def nbytes(self) -> int:
        return int(self._bits.nbytes)

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostics / fpr estimation)."""
        return float(self._bits.mean())


def _as_uint64(keys: np.ndarray) -> np.ndarray:
    return np.asarray(keys).astype(np.int64, copy=False).view(np.uint64)
