"""Block compression codecs: roundtrips, size accounting, the
closed-form codec choice against encode-all-and-compare, and the batch
decode against decoding block by block."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import compression
from repro.storage.column import ColumnStore
from repro.storage.compression import (
    CODECS,
    DictionaryCodec,
    EncodedBlock,
    FrameOfReferenceCodec,
    PlainCodec,
    RunLengthCodec,
    array_checksum,
    choose_codec,
    decode_block,
    decode_blocks,
    seal_blocks,
)
from repro.storage.dtypes import DataType


class TestPlain:
    def test_roundtrip(self):
        values = np.array([3.5, 2.25, -1.0])
        block = PlainCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()
        assert block.nbytes == values.nbytes

    def test_copy_isolation(self):
        values = np.array([1, 2, 3])
        block = PlainCodec().encode(values)
        values[0] = 99
        assert decode_block(block)[0] == 1


class TestRunLength:
    def test_roundtrip(self):
        values = np.array([5, 5, 5, 2, 2, 9])
        block = RunLengthCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()

    def test_compresses_runs(self):
        values = np.repeat(np.arange(5), 200)
        block = RunLengthCodec().encode(values)
        assert block.nbytes < values.nbytes / 10

    def test_worst_case_bigger_than_plain(self):
        values = np.arange(100)
        rle = RunLengthCodec().encode(values)
        assert rle.nbytes > PlainCodec().encode(values).nbytes

    def test_empty(self):
        block = RunLengthCodec().encode(np.array([], dtype=np.int64))
        assert decode_block(block).tolist() == []

    def test_strings(self):
        values = np.array(["a", "a", "b"], dtype=object)
        block = RunLengthCodec().encode(values)
        assert decode_block(block).tolist() == ["a", "a", "b"]


class TestFrameOfReference:
    def test_roundtrip(self):
        values = np.array([1000, 1001, 1005, 1003], dtype=np.int64)
        block = FrameOfReferenceCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()

    def test_small_range_compresses_well(self):
        values = 1_000_000 + np.random.default_rng(0).integers(0, 4, 1000)
        block = FrameOfReferenceCodec().encode(values)
        # 2 bits per value plus the reference.
        assert block.nbytes <= 8 + 1000 * 2 // 8 + 1

    def test_declines_floats(self):
        assert FrameOfReferenceCodec().encode(np.array([1.5, 2.5])) is None

    def test_declines_huge_spans(self):
        values = np.array([0, 2**40], dtype=np.int64)
        assert FrameOfReferenceCodec().encode(values) is None

    def test_negative_values(self):
        values = np.array([-100, -50, -75], dtype=np.int64)
        block = FrameOfReferenceCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()


class TestDictionary:
    def test_roundtrip_strings(self):
        values = np.array(["x", "y", "x", "z"], dtype=object)
        block = DictionaryCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()

    def test_roundtrip_ints(self):
        values = np.array([7, 7, 9, 7], dtype=np.int64)
        block = DictionaryCodec().encode(values)
        assert decode_block(block).tolist() == values.tolist()

    def test_declines_high_cardinality(self):
        values = np.arange(10_000)
        assert DictionaryCodec(max_card=100).encode(values) is None

    def test_small_domain_compresses(self):
        values = np.array(["MAIL", "SHIP"] * 500, dtype=object)
        block = DictionaryCodec().encode(values)
        assert block.nbytes < 200


class TestChooseCodec:
    def test_prefers_rle_for_runs(self):
        values = np.repeat(np.array([1, 2, 3], dtype=np.int64), 300)
        assert choose_codec(values).codec_name == "rle"

    def test_prefers_for_for_dense_ranges(self):
        values = np.random.default_rng(0).permutation(np.arange(1000)) + 10**6
        assert choose_codec(values).codec_name == "for"

    def test_strings_use_dictionary(self):
        values = np.array(["a", "b"] * 10, dtype=object)
        assert choose_codec(values).codec_name == "dict"

    def test_high_cardinality_strings_fall_back_to_plain(self):
        values = np.array([f"unique-{i}" for i in range(5000)], dtype=object)
        block = choose_codec(values)
        assert block.codec_name == "plain"
        assert block.nbytes == sum(len(s) for s in values)

    def test_floats_stay_plain(self):
        values = np.random.default_rng(0).random(100)
        assert choose_codec(values).codec_name == "plain"

    def test_roundtrip_always(self):
        for values in (
            np.arange(100),
            np.repeat([5], 100),
            np.array(["x"] * 50 + ["y"] * 50, dtype=object),
            np.random.default_rng(1).random(64),
        ):
            assert decode_block(choose_codec(values)).tolist() == values.tolist()


# -- property-based roundtrips -------------------------------------------------------


@given(st.lists(st.integers(-(2**31), 2**31), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_integer_roundtrip_through_best_codec(values):
    array = np.array(values, dtype=np.int64)
    block = choose_codec(array)
    assert decode_block(block).tolist() == values


@given(
    st.lists(
        st.sampled_from(["AIR", "SHIP", "RAIL", "MAIL", "TRUCK"]),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_string_roundtrip_through_best_codec(values):
    array = np.array(values, dtype=object)
    block = choose_codec(array)
    assert decode_block(block).tolist() == values


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_float_roundtrip(values):
    array = np.array(values, dtype=np.float64)
    block = choose_codec(array)
    assert decode_block(block).tolist() == array.tolist()


@given(st.lists(st.integers(0, 10), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_chosen_codec_is_never_larger_than_plain(values):
    array = np.array(values, dtype=np.int64)
    best = choose_codec(array)
    plain = CODECS["plain"].encode(array)
    assert best.nbytes <= plain.nbytes


# -- bugfixes: every block decodes to the bytes it was sealed from --------------


def assert_round_trips(block, values):
    """``block`` decodes to ``values`` byte for byte (value for value and
    type for type on object blocks) and to its own checksum."""
    decoded = decode_block(block)
    assert array_checksum(decoded) == block.checksum
    if values.dtype == object:
        assert [(type(v), v) for v in decoded] == [(type(v), v) for v in values]
    else:
        widened = values.astype(np.int64) if block.codec_name == "for" else values
        assert decoded.dtype == widened.dtype
        assert decoded.tobytes() == widened.tobytes()


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


class TestByteExactFloats:
    def test_dictionary_keeps_the_sign_of_zero(self):
        values = np.array([0.0] * 14 + [-0.0])
        block = choose_codec(values)
        assert block.codec_name == "dict"
        assert np.signbit(decode_block(block)).tolist() == [False] * 14 + [True]
        assert_round_trips(block, values)

    def test_dictionary_keeps_nan_payloads(self):
        values = np.array([np.nan, NAN_PAYLOAD, -np.nan, 1.5] * 8)
        block = DictionaryCodec().encode(values)
        assert len(block.payload[0]) == 4
        assert decode_block(block).tobytes() == values.tobytes()

    def test_runs_break_at_the_sign_of_zero(self):
        values = np.array([0.0, -0.0, -0.0, 0.0])
        block = RunLengthCodec().encode(values)
        assert block.payload[1].tolist() == [1, 2, 1]
        assert decode_block(block).tobytes() == values.tobytes()

    def test_dictionary_orders_as_np_unique_when_nothing_merges(self):
        values = np.array([2.5, -np.inf, np.nan, -0.0, 7.0, np.inf, 2.5])
        block = DictionaryCodec().encode(values)
        dictionary, codes = np.unique(values, return_inverse=True)
        assert block.payload[0].tobytes() == dictionary.tobytes()
        assert block.payload[1].tolist() == codes.tolist()


class TestMixedTypeObjects:
    def test_zero_and_false_store_plain(self):
        values = np.array([0, False] * 4, dtype=object)
        block = choose_codec(values)
        assert block.codec_name == "plain"
        assert_round_trips(block, values)

    def test_one_type_still_uses_the_dictionary(self):
        values = np.array([3, 1, 3, 3], dtype=object)
        assert choose_codec(values).codec_name == "dict"

    def test_python_floats_store_plain(self):
        values = np.array([0.0, -0.0, 0.0], dtype=object)
        block = choose_codec(values)
        assert block.codec_name == "plain"
        assert_round_trips(block, values)

    def test_mixed_string_insert_seals(self):
        """An INSERT refuses a number for a STRING column; below that
        check, a mixed batch a column is handed still seals as plain and
        its zone map never prunes."""
        from repro import QueryEngine
        from repro.storage import ColumnSpec, Database, DataType, TableSchema
        from repro.predicates.ast import Bounds

        db = Database(num_slices=1, rows_per_block=5)
        db.create_table(TableSchema("t", (ColumnSpec("s", DataType.STRING),)))
        with pytest.raises(ValueError, match="STRING column 's'"):
            QueryEngine(db).insert("t", {"s": ["a", 1, "b", 2, "c"]})
        column = db.table("t").slices[0].columns["s"]
        assert column.num_rows == 0
        column.append(["a", 1, "b", 2, "c"])
        assert [block.codec_name for block in column.blocks] == ["plain"]
        assert column.read_all(db.rms).tolist() == ["a", 1, "b", 2, "c"]
        assert column.zonemap.pruned_blocks(Bounds("d", "e")).tolist() == [False]
        assert column.zonemap.pruned_blocks(Bounds(5, 6)).tolist() == [False]


def test_for_declines_values_int64_cannot_hold():
    values = np.array([2**63 - 1, 2**63], dtype=np.uint64)
    assert FrameOfReferenceCodec().encode(values) is None
    assert_round_trips(choose_codec(values), values)


# -- the closed-form choice against encode-all-and-compare ----------------------


def encode_all_and_compare(values):
    """The reference: every codec encodes, a codec wins only by being
    strictly smaller than all before it (plain, RLE, FOR, dict), and the
    winner's decode is checksummed.  It runs the same codecs, so the
    byte-exact float and mixed-type fixes above hold on both sides."""
    if values.dtype == object:
        encoded = CODECS["dict"].encode(values)
        if encoded is None:
            nbytes = sum(len(str(v)) for v in values)
            encoded = EncodedBlock("plain", len(values), (values.copy(),), nbytes)
        return replace(encoded, checksum=array_checksum(values))
    best = CODECS["plain"].encode(values)
    for name in ("rle", "for", "dict"):
        candidate = CODECS[name].encode(values)
        if candidate is not None and candidate.nbytes < best.nbytes:
            best = candidate
    return replace(best, checksum=array_checksum(decode_block(best)))


def assert_same_block(got, want):
    assert (got.codec_name, got.num_values, got.nbytes, got.checksum) == (
        want.codec_name, want.num_values, want.nbytes, want.checksum,
    )
    assert len(got.payload) == len(want.payload)
    for mine, theirs in zip(got.payload, want.payload):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        if mine.dtype == object:
            assert [(type(v), v) for v in mine] == [(type(v), v) for v in theirs]
        else:
            assert mine.tobytes() == theirs.tobytes()


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, NAN_PAYLOAD, np.inf, -np.inf]


def integer_pools(dtype):
    info = np.iinfo(dtype)
    anywhere = st.integers(int(info.min), int(info.max))
    # Spans around 2**32, FOR's limit, wherever the dtype reaches them.
    near_limit = st.builds(
        lambda base, span: min(base + span, int(info.max)),
        anywhere,
        st.sampled_from([2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1]),
    )
    small = st.integers(0, min(60, int(info.max)))
    return st.lists(st.one_of(anywhere, near_limit, small), min_size=1, max_size=40)


def float_pools(dtype):
    width = 32 if dtype == np.float32 else 64
    return st.lists(
        st.floats(width=width) | st.sampled_from(SPECIAL_FLOATS),
        min_size=1, max_size=40,
    ).map(lambda pool: np.array(pool, dtype=dtype))


@st.composite
def blocks(draw):
    """``(k, n)`` values: k blocks of n rows each laid out from one pool
    of values — in runs, in random order or sorted."""
    kind = draw(st.sampled_from(["integer", "float", "string", "mixed"]))
    if kind == "integer":
        dtype = draw(st.sampled_from(INTEGER_DTYPES))
        pool = np.array(draw(integer_pools(dtype)), dtype=dtype)
    elif kind == "float":
        pool = draw(float_pools(draw(st.sampled_from([np.float32, np.float64]))))
    else:
        values = st.text("abcxyz", max_size=4)
        if kind == "mixed":
            values = values | st.integers(-3, 3) | st.booleans()
        drawn = draw(st.lists(values, min_size=1, max_size=40))
        pool = np.empty(len(drawn), dtype=object)
        pool[:] = drawn
    count = draw(st.integers(1, 3))
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["runs", "random", "sorted"]))
    picks = rng.integers(0, len(pool), count * n)
    if layout == "runs":
        picks = np.repeat(picks, rng.integers(1, 60, len(picks)))[: count * n]
    elif layout == "sorted" and pool.dtype != object:
        picks = picks[np.argsort(pool[picks], kind="stable")]
    return pool[picks].reshape(count, n)


def assert_seals_as_reference(rows):
    sealed, minima, maxima = seal_blocks(rows)
    assert len(sealed) == len(rows)
    for block, values, lo, hi in zip(sealed, rows, minima, maxima):
        assert_same_block(block, encode_all_and_compare(values))
        assert_same_block(choose_codec(values), block)
        assert_round_trips(block, values)
        # The zone-map bounds the old per-block pass took.
        if values.dtype == object:
            try:
                bounds = (min(values), max(values))
            except TypeError:
                bounds = (None, None)
            assert (lo, hi) == bounds
        else:
            assert np.array([lo, hi]).tobytes() == np.array(
                [values.min(), values.max()]
            ).tobytes()


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_closed_form_choice_equals_encode_all_and_compare(rows):
    assert_seals_as_reference(rows)


@pytest.mark.parametrize("card", [4094, 4095, 4096, 4097, 4098])
@pytest.mark.parametrize("n", [4097, 16_384])
@pytest.mark.parametrize(
    "dtype, step", [(np.int64, 2**33 + 1), (np.int32, 3), (np.float64, 0.5)]
)
def test_closed_form_choice_at_the_dictionary_limit(card, n, dtype, step):
    """Distinct counts around ``max_card`` (4096): with rows to spare
    and spans past FOR's, the dictionary wins up to the limit exactly."""
    rng = np.random.default_rng(card + n)
    values = rng.permutation(np.resize(np.arange(min(card, n)), n)) * step
    assert_seals_as_reference(values.astype(dtype).reshape(1, -1))


def test_sealing_encodes_each_block_once_and_never_decodes(monkeypatch):
    """k full blocks appended: the winning codec's ``encode`` runs once
    per block, no other codec encodes, and nothing is decoded."""
    size = 100
    rng = np.random.default_rng(5)
    wide = rng.integers(0, 2**40, 30) * 1000
    rows = [
        np.full(size, 7),                                 # rle
        np.arange(size) * 1000,                           # for
        wide[rng.integers(0, 30, size)],                  # dict
        rng.integers(0, 2**60, size),                     # plain
        np.repeat(rng.integers(0, 2**40, 4), size // 4),  # rle
    ]
    expected = Counter(encode_all_and_compare(row).codec_name for row in rows)
    assert set(expected) == {"plain", "rle", "for", "dict"}
    calls = Counter()

    def forbidden(*args):
        raise AssertionError("sealing decoded a block")

    for name, codec in CODECS.items():
        def counting(values, name=name, encode=codec.encode):
            calls[name] += 1
            return encode(values)

        monkeypatch.setattr(codec, "encode", counting)
        monkeypatch.setattr(codec, "decode", forbidden)
    monkeypatch.setattr(compression, "decode_block", forbidden)
    column = ColumnStore("t", 0, "c", DataType.INT64, size)
    column.append(np.concatenate(rows + [np.arange(30)]))  # and a tail
    assert calls == expected
    assert sum(calls.values()) == len(column.blocks) == len(rows)


# -- the batch decode against decoding block by block ---------------------------


def decode_one_by_one(block):
    """The reference: one block decoded on its own, by its codec's
    per-block formula."""
    payload = block.payload
    if block.codec_name == "plain":
        return payload[0]
    if block.codec_name == "rle":
        return np.repeat(payload[0], payload[1])
    if block.codec_name == "for":
        return np.add(payload[1], payload[0][0], dtype=np.int64)
    return payload[0][payload[1]]


def assert_same_values(got, want):
    """Byte for byte: dtype, shape and bytes, and on an object block the
    very objects."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == object:
        assert all(mine is theirs for mine, theirs in zip(got, want))
    else:
        assert got.tobytes() == want.tobytes()


def assert_batch_equals_one_by_one(encoded):
    """``decode_blocks`` decodes every block once, in one group per
    codec, length and decoded dtype, each row the bytes of decoding its
    block alone; ``decode_block`` (the batch of one) agrees."""
    groups = decode_blocks(encoded)
    assert sorted(p for positions, _ in groups for p in positions) == list(
        range(len(encoded))
    )
    kinds = set()
    for positions, values in groups:
        assert positions == sorted(positions) and len(values) == len(positions)
        for position, row in zip(positions, values):
            want = decode_one_by_one(encoded[position])
            assert_same_values(row, want)
            kinds.add((encoded[position].codec_name, len(want), want.dtype))
    assert len(kinds) == len(groups)  # no group mixes dtypes or lengths
    for block in encoded:
        assert_same_values(decode_block(block), decode_one_by_one(block))


def encode_as(name, values):
    """``values`` encoded by codec ``name``, or plain where it declines."""
    return CODECS[name].encode(values) or CODECS["plain"].encode(values)


def object_array(values):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def miss_sets(draw):
    """A read round's miss set: 1-12 blocks of int64, float64 or string
    values, each encoded by a drawn codec (plain where it declines), of
    lengths from a short list so that groups form."""
    lengths = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3))
    pools = {
        # Offsets from a base: spans FOR takes, and wider ones it declines.
        "int64": st.integers(0, 3) | st.integers(0, 2**32 - 1) | st.integers(0, 2**34),
        "float64": st.floats() | st.sampled_from(SPECIAL_FLOATS),
        "object": st.text("abc", max_size=3),
    }
    encoded = []
    for _ in range(draw(st.integers(1, 12))):
        dtype = draw(st.sampled_from(sorted(pools)))
        n = draw(st.sampled_from(lengths))
        drawn = draw(st.lists(pools[dtype], min_size=n, max_size=n))
        if dtype == "object":
            values = object_array(drawn)
        elif dtype == "int64":
            base = draw(st.integers(-(2**63), 2**63 - 1 - 2**34))
            values = np.array(drawn, dtype=np.int64) + base
        else:
            values = np.array(drawn, dtype=dtype)
        if draw(st.booleans()):  # runs, for RLE and the dictionary
            values = np.sort(values)
        codec = draw(st.sampled_from(["plain", "rle", "for", "dict"]))
        encoded.append(encode_as(codec, values))
    return encoded


@given(miss_sets())
@settings(max_examples=300, deadline=None)
def test_batch_decode_equals_decoding_block_by_block(encoded):
    assert_batch_equals_one_by_one(encoded)


def test_a_mixed_row_group_decodes_without_upcasting():
    """A lake row group's chunks: int and float blocks of one length,
    under every codec, with -0.0 and NaN payloads, and strings.  Each
    comes back in its own dtype; a batch of one each too."""
    n = 8
    ints = np.array([5, 5, 5, 7, 7, 9, 2**31, 2**31], dtype=np.int64)
    floats = np.array([0.0, -0.0, -0.0, NAN_PAYLOAD, -np.nan, 1.5, 1.5, np.inf])
    strings = object_array(["a", "a", "b", "a", "c", "c", "c", "a"])
    encoded = [
        encode_as("for", ints), encode_as("rle", floats), encode_as("dict", strings),
        encode_as("rle", ints), encode_as("dict", floats), encode_as("plain", ints),
        encode_as("plain", floats), encode_as("dict", ints), encode_as("for", ints + 1),
        encode_as("rle", strings), encode_as("plain", strings),
    ]
    assert {block.codec_name for block in encoded} == {"plain", "rle", "for", "dict"}
    assert all(block.num_values == n for block in encoded)
    assert_batch_equals_one_by_one(encoded)
    for block in encoded:
        assert_batch_equals_one_by_one([block])
