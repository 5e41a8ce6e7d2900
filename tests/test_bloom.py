"""Bloom filters for semi-join pushdown."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import bloom as bloom_module
from repro.engine.bloom import BloomFilter


class TestBloomBasics:
    def test_no_false_negatives(self):
        keys = np.arange(1000, dtype=np.int64)
        bloom = BloomFilter(expected_items=1000)
        bloom.add_many(keys)
        assert bloom.may_contain(keys).all()

    def test_rejects_most_absent_keys(self):
        rng = np.random.default_rng(0)
        present = rng.integers(0, 10**9, 5000)
        bloom = BloomFilter(expected_items=5000, fpr=0.01)
        bloom.add_many(present)
        absent = rng.integers(10**10, 10**11, 10_000)
        fpr = bloom.may_contain(absent).mean()
        assert fpr < 0.05

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=100)
        assert not bloom.may_contain(np.array([1, 2, 3])).any()

    def test_empty_probe(self):
        bloom = BloomFilter(expected_items=10)
        assert bloom.may_contain(np.array([], dtype=np.int64)).shape == (0,)

    def test_add_empty_is_noop(self):
        bloom = BloomFilter(expected_items=10)
        bloom.add_many(np.array([], dtype=np.int64))
        assert bloom.items_added == 0

    def test_negative_keys(self):
        keys = np.array([-5, -1, 0, 3], dtype=np.int64)
        bloom = BloomFilter(expected_items=4)
        bloom.add_many(keys)
        assert bloom.may_contain(keys).all()

    def test_rejects_bad_fpr(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fpr=1.5)

    def test_size_grows_with_items(self):
        small = BloomFilter(expected_items=100)
        large = BloomFilter(expected_items=100_000)
        assert large.nbytes > small.nbytes

    def test_fill_ratio_increases(self):
        bloom = BloomFilter(expected_items=1000)
        empty_fill = bloom.fill_ratio
        bloom.add_many(np.arange(1000))
        assert bloom.fill_ratio > empty_fill


@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_membership_property(keys):
    array = np.array(keys, dtype=np.int64)
    bloom = BloomFilter(expected_items=len(keys))
    bloom.add_many(array)
    assert bloom.may_contain(array).all()


# -- the packed-byte filter the bool table replaced ------------------------

_INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
_int64 = st.integers(-(2**63), 2**63 - 1)


def _reference_positions(bloom, keys):
    """The multiply-shift positions, (num_hashes, len(keys)), derived
    from the filter's size alone."""
    multipliers = bloom_module._MULTIPLIERS[: bloom.num_hashes, None]
    shift = np.uint64(64 - (bloom.num_bits.bit_length() - 1))
    hashed = np.asarray(keys, dtype=np.int64).view(np.uint64)[None, :] * multipliers
    return (hashed >> shift).astype(np.int64)


def _reference_packed(bloom, build):
    """One bit per position in a packed uint8 array, set with
    ``np.bitwise_or.at`` — the filter's bits before the bool table."""
    packed = np.zeros(bloom.num_bits // 8, dtype=np.uint8)
    if len(build):
        positions = _reference_positions(bloom, build).ravel()
        np.bitwise_or.at(packed, positions // 8, (1 << (positions % 8)).astype(np.uint8))
    return packed


def _reference_may_contain(bloom, packed, probe):
    """All k of ``(byte >> pos % 8) & 1`` — the verdict before the
    staged probe."""
    if not len(probe):
        return np.zeros(0, dtype=bool)
    positions = _reference_positions(bloom, probe)
    bits = (packed[positions // 8] >> (positions % 8).astype(np.uint8)) & 1
    return bits.all(axis=0)


_FPRS = [0.001, 0.01, 0.1, 0.5, 0.9]


_MAX_BULK = 1500


def test_reference_inputs_span_every_hash_count():
    """The property below draws from a space where the sizing rule
    yields every k: 1 and 2 take the short staged path, 3 … 8 the
    survivor gather."""
    counts = {
        BloomFilter(expected_items=n, fpr=fpr).num_hashes
        for n in range(1, 2 * _MAX_BULK, 7)
        for fpr in _FPRS
    }
    assert counts == set(range(1, 9))


def _int64_array(values):
    return np.array(values, dtype=np.int64).reshape(-1)


@given(
    fpr=st.sampled_from(_FPRS),
    build_bulk=st.integers(0, _MAX_BULK),
    build_extra=st.lists(_int64 | st.sampled_from(_INT64_EXTREMES), max_size=20),
    probe_bulk=st.integers(0, 2000),
    probe_extra=st.lists(_int64 | st.sampled_from(_INT64_EXTREMES), max_size=20),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_filter_is_bit_identical_to_the_packed_reference(
    fpr, build_bulk, build_extra, probe_bulk, probe_extra, seed, data
):
    """The bool table holds exactly the packed filter's bits, and the
    staged probe (hashes 1 and 2 one at a time, the rest as one gather
    over the survivors) passes exactly the keys whose k bits are all
    set — for every k the sizing rule yields (1 … 8), on filters from
    nearly empty to saturated."""
    rng = np.random.default_rng(seed)
    build_keys = np.concatenate(
        [
            rng.integers(-(2**63), 2**63 - 1, build_bulk, endpoint=True),
            _int64_array(build_extra),
        ]
    )
    expected_items = data.draw(st.integers(1, max(1, 2 * len(build_keys))))
    bloom = BloomFilter(expected_items=expected_items, fpr=fpr)
    bloom.add_many(build_keys)
    # Members, non-members, negatives and extremes, then a third of
    # them again as duplicates; probe_bulk = 0 and no extras is empty.
    members = rng.choice(build_keys, probe_bulk // 4) if len(build_keys) else []
    probe_keys = np.concatenate(
        [
            _int64_array(members),
            rng.integers(-(2**63), 2**63 - 1, probe_bulk // 2, endpoint=True),
            rng.integers(-(2**63), 0, probe_bulk // 4),
            _int64_array(probe_extra),
        ]
    )
    probe_keys = np.concatenate([probe_keys, probe_keys[: len(probe_keys) // 3]])
    packed = _reference_packed(bloom, build_keys)

    assert np.array_equal(np.packbits(bloom._bits, bitorder="little"), packed)
    verdict = bloom.may_contain(probe_keys)
    assert verdict.dtype == bool
    assert np.array_equal(verdict, _reference_may_contain(bloom, packed, probe_keys))
    assert verdict[np.isin(probe_keys, build_keys)].all()


@given(
    fpr=st.sampled_from(_FPRS),
    build_bulk=st.integers(1, 400),
    low=st.sampled_from([-(2**63), -5_000, 0, 7, 2**62]) | _int64,
    span=st.integers(1, 3_000),
    repeats=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_a_dense_probe_takes_each_value_s_verdict_from_the_packed_reference(
    fpr, build_bulk, low, span, repeats, seed
):
    """Keys that repeat a narrow range of join-key values — a table
    scan probing all of its slices at once — are answered by probing
    each value of the range once: every verdict still equals the packed
    filter's, on every k and at the ends of the int64 range."""
    low = min(low, 2**63 - span)
    rng = np.random.default_rng(seed)
    build_keys = rng.integers(low, low + span, build_bulk, endpoint=False)
    bloom = BloomFilter(expected_items=build_bulk, fpr=fpr)
    bloom.add_many(build_keys)
    probe_keys = rng.integers(low, low + span, max(64, repeats * span), endpoint=False)
    verdict = bloom.may_contain(probe_keys)
    packed = _reference_packed(bloom, build_keys)
    assert verdict.dtype == bool and len(verdict) == len(probe_keys)
    assert np.array_equal(verdict, _reference_may_contain(bloom, packed, probe_keys))
    assert verdict[np.isin(probe_keys, build_keys)].all()
