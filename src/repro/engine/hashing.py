"""Stable vectorized key hashing for joins and Bloom filters.

Join keys are reduced to int64 before hash-join bucketing and Bloom
probing.  Integer keys pass through unchanged; string keys are hashed
with FNV-1a over their UTF-8 bytes; a float key that holds a whole
number in the int64 range becomes that integer (so ``2.0`` meets ``2``,
and ``-0.0`` is 0), any other float its float64 bit pattern.  Equal
values always get equal keys, but unequal ones may share a key (an
FNV-1a collision, a bit pattern that is also some integer) and NaN
meets NaN: a join over keys that are not integers re-checks the values
of each matched pair.

Python's builtin ``hash`` must NOT be used here: for ``str`` it is salted
per process (``PYTHONHASHSEED``), so Bloom-filter false-positive behavior
— and with it every counter derived from semi-join pushdown — would not
reproduce across runs.  FNV-1a is process-independent, endian-independent
(we feed bytes, not words), and cheap to vectorize: strings are encoded
into a zero-padded byte matrix and the hash state advances one byte
*column* at a time, so the Python-level loop is bounded by the longest
key, not the number of keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_int_keys", "fnv1a_hash"]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a_hash(strings: np.ndarray) -> np.ndarray:
    """FNV-1a over the UTF-8 bytes of each string, as int64.

    NUL bytes terminate a key early (they cannot occur in valid column
    data and double as the padding sentinel of the byte matrix).
    """
    strings = np.asarray(strings)
    if strings.size == 0:
        return np.empty(0, dtype=np.int64)
    encoded = np.char.encode(strings.astype("U"), "utf-8")
    width = encoded.dtype.itemsize
    matrix = np.frombuffer(
        encoded.tobytes(), dtype=np.uint8
    ).reshape(len(encoded), width)
    state = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in range(width):
            byte = matrix[:, column]
            live = byte != 0
            if not live.any():
                break
            state[live] = (state[live] ^ byte[live]) * _FNV_PRIME
    return state.view(np.int64)


def stable_int_keys(values: np.ndarray) -> np.ndarray:
    """Join keys as int64 (strings via stable FNV-1a, not ``hash()``;
    floats by value where whole, else by bit pattern)."""
    values = np.asarray(values)
    if values.dtype == object or values.dtype.kind == "U":
        return fnv1a_hash(values)
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        whole = (np.floor(values) == values) & (values >= -(2.0**63))
        whole &= values < 2.0**63
        keys = values.view(np.int64).copy()
        keys[whole] = values[whole].astype(np.int64)
        return keys
    return values.astype(np.int64, copy=False)
