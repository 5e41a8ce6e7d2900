"""Stable join-key hashing: cross-process determinism (the old
``hash()``-based keys changed with PYTHONHASHSEED, making Bloom-filter
false positives — and every counter downstream of semi-join pushdown —
unreproducible across runs)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Database, PredicateCache, QueryEngine
from repro.engine.bloom import BloomFilter
from repro.engine.hashing import fnv1a_hash, stable_int_keys
from repro.storage import ColumnSpec, DataType, TableSchema

# Reference FNV-1a 64-bit digests (computed independently, byte by byte).
_KNOWN = {
    "": 0xCBF29CE484222325,
    "a": 0xAF63DC4C8601EC8C,
    "foobar": 0x85944171F73967E8,
}


def _fnv1a_reference(s: str) -> int:
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


class TestFnv1a:
    def test_known_vectors(self):
        for text, expected in _KNOWN.items():
            got = int(fnv1a_hash(np.array([text], dtype=object))[0])
            assert got % (1 << 64) == expected

    def test_matches_scalar_reference(self):
        values = np.array(
            ["", "a", "ab", "BRASS", "promo burnished", "x" * 40, "éclair"],
            dtype=object,
        )
        hashed = fnv1a_hash(values)
        for text, got in zip(values, hashed):
            assert int(got) % (1 << 64) == _fnv1a_reference(text)

    def test_distinct_keys_distinct_hashes(self):
        values = np.array([f"key-{i}" for i in range(10_000)], dtype=object)
        assert len(np.unique(fnv1a_hash(values))) == len(values)

    def test_int_keys_pass_through(self):
        keys = np.array([5, -3, 7], dtype=np.int64)
        assert stable_int_keys(keys) is keys or np.array_equal(
            stable_int_keys(keys), keys
        )

    def test_unicode_dtype_accepted(self):
        as_object = np.array(["alpha", "beta"], dtype=object)
        as_unicode = np.array(["alpha", "beta"])
        assert np.array_equal(
            stable_int_keys(as_object), stable_int_keys(as_unicode)
        )


class TestCrossProcessDeterminism:
    def _hashes_under_seed(self, seed: str) -> list:
        """Hash a fixed key set in a fresh interpreter with a given
        PYTHONHASHSEED (the knob that broke the old implementation)."""
        program = (
            "import numpy as np\n"
            "from repro.engine.hashing import stable_int_keys\n"
            "keys = np.array(['EUROPE', 'ASIA', 'promo#12', 'a b c', ''],"
            " dtype=object)\n"
            "print(','.join(str(int(v)) for v in stable_int_keys(keys)))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout.strip().split(",")

    def test_same_hashes_across_hash_seeds(self):
        assert self._hashes_under_seed("0") == self._hashes_under_seed("12345")

    def test_bloom_fp_behavior_reproducible(self):
        """The full chain: same keys -> same bloom bits -> same membership
        answers, regardless of interpreter hash randomization."""
        build = np.array([f"part-{i}" for i in range(500)], dtype=object)
        probe = np.array([f"probe-{i}" for i in range(2000)], dtype=object)
        masks = []
        for _ in range(2):
            bloom = BloomFilter(expected_items=500)
            bloom.add_many(stable_int_keys(build))
            masks.append(bloom.may_contain(stable_int_keys(probe)))
        assert np.array_equal(masks[0], masks[1])


class TestFloatJoinKeys:
    """A FLOAT64 join key meets an equal value, never a truncated one."""

    def test_whole_floats_key_as_integers_others_by_bits(self):
        values = np.array([1.0, 2.5, -0.0, -(2.0**63), 2.0**63, np.nan, np.inf])
        keys = stable_int_keys(values)
        assert keys[:4].tolist() == [1, values[1:2].view(np.int64)[0], 0, -(2**63)]
        assert keys[4:].tolist() == values[4:].view(np.int64).tolist()

    @pytest.fixture()
    def engine(self):
        db = Database(num_slices=2, rows_per_block=2)
        columns = {"t": ("x", DataType.INT64), "u": ("g", DataType.FLOAT64),
                   "v": ("h", DataType.FLOAT64)}
        for table, (column, dtype) in columns.items():
            db.create_table(TableSchema(table, (ColumnSpec(column, dtype),)))
        engine = QueryEngine(db, predicate_cache=PredicateCache())
        engine.insert("t", {"x": np.array([1, 2, 3])})
        engine.insert("u", {"g": np.array([1.0, 2.5, 3.0, 4.0])})
        engine.insert("v", {"h": np.array([2.7, 2.5])})
        return engine

    @pytest.mark.parametrize(
        "condition, truth", [("x = g", 2), ("g = x", 2), ("g = h", 1)]
    )
    def test_int_and_float_keys_join_by_value(self, engine, condition, truth):
        tables = "t, u" if "x" in condition else "u, v"
        sql = f"select count(*) from {tables} where {condition}"
        assert engine.execute(sql).scalar() == truth

    def test_nan_joins_nothing(self, engine):
        engine.insert("u", {"g": np.array([np.nan])})
        engine.insert("v", {"h": np.array([np.nan])})
        assert engine.execute("select count(*) from u, v where g = h").scalar() == 1

    def test_negative_zero_joins_zero_and_nothing_else(self, engine):
        engine.insert("t", {"x": np.array([0])})
        engine.insert("u", {"g": np.array([-0.0, 0.5])})
        engine.insert("v", {"h": np.array([0.0])})
        assert engine.execute("select count(*) from t, u where x = g").scalar() == 3
        assert engine.execute("select count(*) from u, v where g = h").scalar() == 2
