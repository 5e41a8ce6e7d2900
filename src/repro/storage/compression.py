"""Block compression codecs.

Redshift compresses column blocks with codecs like frame-of-reference,
run-length, and dictionary encoding (§4.2.2).  We implement the same
family over numpy arrays:

* :class:`PlainCodec`            — no compression (floats, fallback),
* :class:`RunLengthCodec`        — (value, run length) pairs,
* :class:`FrameOfReferenceCodec` — subtract min, bit-pack the deltas,
* :class:`DictionaryCodec`       — small distinct domains to packed codes.

:func:`seal_blocks` picks the smallest encoding for each of k blocks,
mirroring Redshift's per-column ``ANALYZE COMPRESSION``, without trying
any codec: every codec's size is closed-form in a few statistics of the
block — its run count, its min / max, its distinct count — and one
numpy call per statistic takes them for all k blocks at once.  Only the
winner encodes.  The same min / max are the blocks' zone-map bounds.
:func:`choose_codec` is the one-block case.  Encoded blocks know their
compressed byte size, which drives the storage cost model: a *worse*
compression ratio means *more blocks* for the same rows — the effect the
paper observes for predicate sorting (§5.6).

Every codec is byte-exact: decoding a block gives back the bytes that
went in, cast the way the codec's decode widens (FOR decodes to int64
whatever width came in).  So a block's checksum is taken over its
*input*, cast that way, and verifies the decoded values of a fetch.

Decoding works by the batch.  Each codec's one ``decode`` turns k
blocks of one length and one decoded dtype into a ``(k, n)`` array with
a fixed few numpy calls, none per block: FOR widens the concatenated
deltas to int64 and adds the references down the rows, RLE repeats the
concatenated runs once, the dictionary takes the concatenated codes,
offset per block, from the concatenated dictionaries, and plain
concatenates (a plain batch of one is its payload, uncopied).
:func:`decode_blocks` groups a batch by codec, length and decoded dtype
(so an int block never upcasts beside a float one) and decodes each
group in one codec call.  Its callers own the values they decode: a
:class:`~repro.storage.column.DecodedBlocks` filling the rows a reader
is about to take — a column's sealed blocks, or a lake file's row
groups — and managed storage, only to verify fetches under fault
injection, keeping nothing.  :func:`decode_block` is the batch of one.
Both give the bytes a block-at-a-time decode would, ``-0.0``, NaN
payloads and object values included.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EncodedBlock",
    "Codec",
    "PlainCodec",
    "RunLengthCodec",
    "FrameOfReferenceCodec",
    "DictionaryCodec",
    "choose_codec",
    "seal_blocks",
    "CODECS",
    "DecodedGroup",
    "array_checksum",
    "decode_block",
    "decode_blocks",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, slots=True)
class EncodedBlock:
    """An immutable compressed block of one column.

    ``payload`` holds codec-specific arrays; ``nbytes`` is the simulated
    compressed size (what the block occupies on managed storage).
    ``checksum`` covers the values the block was sealed from, cast the
    way its codec's decode widens, length included (so a truncated read
    is caught).  Codecs are byte-exact, so it equals the checksum of the
    decoded values; blocks built outside :func:`seal_blocks` carry None
    and skip verification.
    """

    codec_name: str
    num_values: int
    payload: Tuple[np.ndarray, ...]
    nbytes: int
    checksum: Optional[int] = None


def array_checksum(values: np.ndarray) -> int:
    """CRC32 over a value array, prefixed with its length.

    The length prefix makes truncation detectable even when the kept
    prefix's bytes are unchanged.
    """
    state = zlib.crc32(len(values).to_bytes(8, "little"))
    if values.dtype == object:
        for value in values:
            state = zlib.crc32(str(value).encode("utf-8", "surrogatepass"), state)
        return state
    return zlib.crc32(np.ascontiguousarray(values), state)


def _packed_bytes(max_code: int, count: int) -> int:
    """Bytes of ``count`` codes in ``[0, max_code]``, bit-packed at the
    width that needs (at least one bit)."""
    return (max(int(max_code).bit_length(), 1) * count + 7) // 8


def _float_keys(values: np.ndarray) -> np.ndarray:
    """One unsigned key per float, equal exactly when the bit patterns
    are, ordered the way numpy sorts floats: ascending, ``-0.0`` just
    below ``0.0``, NaNs of either sign and any payload last.

    Counting and encoding distinct values over these keys keeps
    ``-0.0`` and every NaN payload, which ``np.unique`` on the floats
    merges.
    """
    unsigned = np.dtype(f"u{values.dtype.itemsize}")
    bits = values.view(unsigned)
    sign = unsigned.type(1 << (8 * unsigned.itemsize - 1))
    # The total order of bit patterns: flip every bit of a negative
    # float, only the sign bit of a positive one (-NaN < -inf < … < -0.0
    # < 0.0 < … < +inf < +NaN) ...
    keys = np.where(bits >= sign, ~bits, bits | sign)
    # ... rotated so -inf keys zero and the negative NaNs wrap past +NaN.
    return keys - ~np.array(-np.inf, dtype=values.dtype).view(unsigned)


def _run_breaks(values: np.ndarray) -> np.ndarray:
    """Along the last axis, True where a value starts a new run.

    A float run also breaks between ``0.0`` and ``-0.0``: equal, but not
    the same bytes.  (A NaN equals nothing, so each one is its own run.)
    """
    breaks = values[..., 1:] != values[..., :-1]
    if values.dtype.kind == "f":
        bits = values.view(f"u{values.dtype.itemsize}")
        breaks |= bits[..., 1:] != bits[..., :-1]
    return breaks


def _dictionary_safe(values: np.ndarray) -> bool:
    """True when an object block may be dictionary-encoded: its values
    share one type, and not a float one.  Only then do values that
    compare equal — which the dictionary merges — also print, and so
    checksum, the same: ``0 == False`` and ``0.0 == -0.0`` do not."""
    kinds = {type(value) for value in values}
    return len(kinds) <= 1 and not any(issubclass(kind, float) for kind in kinds)


class Codec:
    """Interface for block codecs."""

    name: str = "abstract"

    def encode(self, values: np.ndarray) -> Optional[EncodedBlock]:
        """Encode, or return None if this codec cannot encode the input."""
        raise NotImplementedError

    def decode(self, blocks: Sequence[EncodedBlock]) -> np.ndarray:
        """Decode k >= 1 blocks of this codec, one length and one decoded
        dtype: a ``(k, n)`` array whose row i is block i's values.  Plain's
        batch of one is a view of its payload, so no caller may write into a
        decoded array."""
        raise NotImplementedError


class PlainCodec(Codec):
    """Uncompressed storage; encodes anything."""

    name = "plain"

    def encode(self, values: np.ndarray) -> EncodedBlock:
        values = np.ascontiguousarray(values)
        return EncodedBlock(
            codec_name=self.name,
            num_values=len(values),
            payload=(values.copy(),),
            nbytes=int(values.nbytes),
        )

    def decode(self, blocks: Sequence[EncodedBlock]) -> np.ndarray:
        if len(blocks) == 1:
            return blocks[0].payload[0][None]  # the payload, uncopied
        values = np.concatenate([block.payload[0] for block in blocks])
        return values.reshape(len(blocks), blocks[0].num_values)


class RunLengthCodec(Codec):
    """Run-length encoding: arrays of run values and run lengths."""

    name = "rle"

    def encode(self, values: np.ndarray) -> Optional[EncodedBlock]:
        if len(values) == 0:
            return EncodedBlock(self.name, 0, (values.copy(), np.zeros(0, np.int64)), 0)
        change = np.flatnonzero(_run_breaks(values)) + 1
        starts = np.concatenate(([0], change))
        run_values = values[starts]
        lengths = np.diff(np.concatenate((starts, [len(values)])))
        nbytes = int(run_values.nbytes + 4 * len(lengths))
        return EncodedBlock(
            codec_name=self.name,
            num_values=len(values),
            payload=(run_values, lengths.astype(np.int64)),
            nbytes=nbytes,
        )

    def decode(self, blocks: Sequence[EncodedBlock]) -> np.ndarray:
        run_values, lengths = zip(*[block.payload for block in blocks])
        values = np.repeat(np.concatenate(run_values), np.concatenate(lengths))
        return values.reshape(len(blocks), blocks[0].num_values)


class FrameOfReferenceCodec(Codec):
    """Frame of reference: store min and bit-packed deltas.

    We keep the deltas in the narrowest numpy integer width that fits
    and account ``nbytes`` at exact bit granularity, approximating real
    bit-packing without per-value Python loops.  Decodes to int64, so
    it declines values int64 cannot hold.
    """

    name = "for"

    def encode(self, values: np.ndarray) -> Optional[EncodedBlock]:
        if values.dtype.kind not in "iu" or len(values) == 0:
            return None
        lo = int(values.min())
        hi = int(values.max())
        span = hi - lo
        if span >= 2**32 or hi > _INT64_MAX:
            return None  # no gain over plain, or no int64 decode
        deltas = np.subtract(values, lo, dtype=np.int64).astype(np.uint32)
        reference = np.array([lo], dtype=np.int64)
        return EncodedBlock(
            codec_name=self.name,
            num_values=len(values),
            payload=(reference, deltas),
            nbytes=int(8 + _packed_bytes(span, len(values))),
        )

    def decode(self, blocks: Sequence[EncodedBlock]) -> np.ndarray:
        references, deltas = zip(*[block.payload for block in blocks])
        # Widened as they are copied, then one same-dtype add in place.
        rows = np.concatenate(deltas, dtype=np.int64)
        rows = rows.reshape(len(blocks), blocks[0].num_values)
        rows += np.concatenate(references)[:, None]
        return rows


class DictionaryCodec(Codec):
    """Dictionary encoding for blocks with few distinct values.

    Works for any dtype (it is the only codec for string blocks).  Gives
    up when the dictionary would exceed ``max_card`` entries, and on an
    object block that :func:`_dictionary_safe` refuses.  Float values
    are distinct by bit pattern, so ``-0.0`` and NaN payloads survive.
    """

    name = "dict"

    def __init__(self, max_card: int = 4096) -> None:
        self.max_card = max_card

    def encode(self, values: np.ndarray) -> Optional[EncodedBlock]:
        if len(values) == 0:
            return EncodedBlock(self.name, 0, (values.copy(), np.zeros(0, np.int32)), 0)
        if values.dtype.kind == "f":
            _, first, codes = np.unique(
                _float_keys(values), return_index=True, return_inverse=True
            )
            dictionary = values[first]
        elif values.dtype == object and not _dictionary_safe(values):
            return None
        else:
            dictionary, codes = np.unique(values, return_inverse=True)
        if len(dictionary) > self.max_card:
            return None
        if dictionary.dtype == object:
            dict_bytes = sum(len(str(v)) for v in dictionary)
        else:
            dict_bytes = int(dictionary.nbytes)
        return EncodedBlock(
            codec_name=self.name,
            num_values=len(values),
            payload=(dictionary, codes.astype(np.int32)),
            nbytes=int(dict_bytes + _packed_bytes(len(dictionary) - 1, len(values))),
        )

    def decode(self, blocks: Sequence[EncodedBlock]) -> np.ndarray:
        dictionaries, codes = zip(*[block.payload for block in blocks])
        sizes = np.array([len(dictionary) for dictionary in dictionaries])
        rows = np.concatenate(codes).reshape(len(blocks), blocks[0].num_values)
        # Block i's codes index the concatenation past the dictionaries before it.
        rows = rows + (np.cumsum(sizes) - sizes)[:, None]
        return np.concatenate(dictionaries)[rows]


CODECS = {
    "plain": PlainCodec(),
    "rle": RunLengthCodec(),
    "for": FrameOfReferenceCodec(),
    "dict": DictionaryCodec(),
}


def seal_blocks(
    blocks: np.ndarray,
) -> Tuple[List[EncodedBlock], np.ndarray, np.ndarray]:
    """Encode each row of a ``(k, n)`` array as one block, ``n >= 1``.

    Returns the k blocks and each block's minimum and maximum — its
    zone-map bounds, taken by the statistics pass that sized the codecs.
    Numeric blocks are sized under every codec from that pass and
    encoded once, by the smallest.  Object blocks take the dictionary or
    plain, and their bounds one Python ``min`` / ``max`` each (None when
    the values do not compare).
    """
    if blocks.dtype == object:
        minima = np.empty(len(blocks), dtype=object)
        maxima = np.empty(len(blocks), dtype=object)
        for i, values in enumerate(blocks):
            try:
                minima[i], maxima[i] = min(values), max(values)
            except TypeError:
                pass  # mixed types: bounds unknown
        return [_encode_object(values) for values in blocks], minima, maxima
    # The statistics pass: one numpy call per statistic for all k blocks.
    if blocks.dtype.kind == "f":
        # NaN-propagating bounds, as zone maps take them; distinct values
        # by bit pattern.
        minima, maxima = blocks.min(axis=1), blocks.max(axis=1)
        ordered = np.sort(_float_keys(blocks), axis=1)
    else:
        ordered = np.sort(blocks, axis=1)
        minima, maxima = ordered[:, 0], ordered[:, -1]
    runs = _run_breaks(blocks).sum(axis=1) + 1
    cards = (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1) + 1
    integer = blocks.dtype.kind in "iu"
    encoded = []
    for values, lo, hi, run_count, card in zip(
        blocks, minima.tolist(), maxima.tolist(), runs.tolist(), cards.tolist()
    ):
        name = _smallest_codec(values, run_count, (lo, hi) if integer else None, card)
        block = CODECS[name].encode(values)
        widened = values.astype(np.int64, copy=False) if name == "for" else values
        encoded.append(_with_checksum(block, widened))
    return encoded, minima, maxima


def _smallest_codec(
    values: np.ndarray, runs: int, bounds: Optional[Tuple[int, int]], card: int
) -> str:
    """The smallest codec for one numeric block, from each codec's
    closed-form size (``bounds`` is an integer block's min and max):

    * plain: ``n · itemsize``;
    * RLE:   ``runs · (itemsize + 4)``;
    * FOR:   ``8 + ⌈bits(max − min) · n / 8⌉`` — integers whose span is
      below 2**32 and whose max fits int64;
    * dict:  ``card · itemsize + ⌈bits(card − 1) · n / 8⌉`` — up to
      ``max_card`` distinct values.

    Ties go to the earlier codec of that list (plain first, for cheap
    decode): each must be strictly smaller than all before it.
    """
    n, itemsize = len(values), values.dtype.itemsize
    sizes = {"plain": n * itemsize, "rle": runs * (itemsize + 4)}
    if bounds is not None:
        lo, hi = bounds
        if hi - lo < 2**32 and hi <= _INT64_MAX:
            sizes["for"] = 8 + _packed_bytes(hi - lo, n)
    if card <= CODECS["dict"].max_card:
        sizes["dict"] = card * itemsize + _packed_bytes(card - 1, n)
    return min(sizes, key=sizes.__getitem__)  # the first of equal sizes


def _encode_object(values: np.ndarray) -> EncodedBlock:
    """A string block: the dictionary, or plain at its strings' bytes
    when the dictionary declines."""
    encoded = CODECS["dict"].encode(values)
    if encoded is None:
        nbytes = sum(len(str(v)) for v in values)
        encoded = EncodedBlock("plain", len(values), (values.copy(),), int(nbytes))
    return _with_checksum(encoded, values)


def _with_checksum(block: EncodedBlock, values: np.ndarray) -> EncodedBlock:
    """``block`` stamped with the checksum of ``values``: what it was
    encoded from, cast the way its codec's decode widens."""
    return EncodedBlock(
        block.codec_name, block.num_values, block.payload, block.nbytes,
        array_checksum(values),
    )


def choose_codec(values: np.ndarray) -> EncodedBlock:
    """Encode one block with the smallest applicable codec: the
    one-block case of :func:`seal_blocks`."""
    if values.dtype == object:
        return _encode_object(values)
    return seal_blocks(values.reshape(1, -1))[0][0]


#: One decoded group: the positions of its blocks in the decoded
#: sequence, ascending, and a ``(len(positions), n)`` array whose row j
#: holds the values of block ``positions[j]``.
DecodedGroup = Tuple[List[int], np.ndarray]


def decode_blocks(blocks: Sequence[EncodedBlock]) -> List[DecodedGroup]:
    """Decode ``blocks`` by the group: blocks of one codec, one length
    and one decoded dtype decode together, in one call of their codec.
    Groups come in the order of their first block."""
    groups: Dict[Tuple[str, int, np.dtype], List[int]] = {}
    for position, block in enumerate(blocks):
        # A block's first payload array has its decoded dtype (FOR's
        # int64 reference; the values, runs or dictionary otherwise).
        kind = (block.codec_name, block.num_values, block.payload[0].dtype)
        groups.setdefault(kind, []).append(position)
    return [
        (positions, CODECS[kind[0]].decode([blocks[p] for p in positions]))
        for kind, positions in groups.items()
    ]


def decode_block(block: EncodedBlock) -> np.ndarray:
    """Decode any encoded block back to its value array: the batch of one."""
    return CODECS[block.codec_name].decode((block,))[0]
