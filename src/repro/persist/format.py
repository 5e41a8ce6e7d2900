"""On-disk byte formats: versioned snapshot + framed journal records.

Snapshot layout::

    header   : magic "RPPCSNAP" | format version u16 | flags u16 | reserved u32
    section* : kind u8 | pad[3] | payload_len u64 | crc32 u32 | payload
    end      : a zero-length END section closes a complete file

Section kinds are META (JSON: catalog versions at snapshot time, entry
count), ENTRY (one cache entry, binary), and END.  Each section's CRC32
covers its payload with a length prefix (reusing
:func:`repro.storage.compression.array_checksum`), so both bit flips and
truncation inside a section are caught.  The decoder is *total*: any
corruption drops the affected section (or the unreadable tail) and the
remainder still loads — recovery degrades toward a cold cache, it never
raises and never installs a section that failed its checksum.

Journal layout: a sequence of ``payload_len u32 | crc32 u32 | payload``
records appended over time.  Replay stops at the first record whose
header is short, whose length overruns the file, or whose CRC fails —
exactly the torn-tail semantics of a crash during append.  Journal
payloads carry either a STATE event (entry metadata + one slice state,
idempotent: replaying twice is a no-op) or a DROP event (entry digest +
the slice ids whose states were dropped).

Forward compatibility: the header version is checked on read; files
written by a *newer* format are refused wholesale (cold start) instead
of being half-parsed.  Version 2 appended a provenance code (an index
into :data:`_PROVENANCES`) and a list of source-entry digests to the
entry metadata.  They are reserved: a live cache writes ``"scan"`` and
no digests, and a decode reads and range-checks them but nothing uses
them.  The entry's ``generation`` carries the writing process's
incarnation (0 before incarnations; DESIGN.md §9).  Version-1 snapshots
still decode, with every entry defaulting to ``"scan"``.
Journal records carry no version of their own — they are paired with a
snapshot from the same writer — so a journal from an older writer reads
as a torn tail (replay stops, recovery degrades toward cold, exactly
like any other unreadable journal).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..core.entry import BitmapSliceState, RangeSliceState, SliceState
from ..core.rowrange import RangeList
from ..storage.compression import array_checksum
from .records import (
    EntryRecord,
    key_digest,
    key_from_obj,
    key_to_obj,
)

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "DecodeIssues",
    "encode_snapshot",
    "decode_snapshot",
    "frame_record",
    "iter_journal",
    "encode_state_event",
    "encode_drop_event",
    "decode_journal_payload",
    "replay_journal",
]

SNAPSHOT_MAGIC = b"RPPCSNAP"
FORMAT_VERSION = 2

# The reserved provenance field on the wire: an index into this tuple
# (order is part of the format — append-only).
_PROVENANCES: Tuple[str, ...] = ("scan", "conjunct", "composed", "subsumed")
_PROVENANCE_CODES = {name: code for code, name in enumerate(_PROVENANCES)}

_HEADER = struct.Struct("<8sHHI")          # magic, version, flags, reserved
_SECTION = struct.Struct("<B3xQI")         # kind, payload_len, crc32
_JOURNAL_HDR = struct.Struct("<II")        # payload_len, crc32

SECTION_META = 1
SECTION_ENTRY = 2
SECTION_END = 255

OP_STATE = 1
OP_DROP = 2

# A journal record longer than this is treated as a corrupt length
# field, not a real record (the largest legitimate state is a few MB).
_MAX_RECORD_BYTES = 1 << 30


def _crc(payload: bytes) -> int:
    """CRC32 over a byte payload via the storage layer's checksum helper
    (length-prefixed, so truncation is always detectable)."""
    return array_checksum(np.frombuffer(payload, dtype=np.uint8))


@dataclass
class DecodeIssues:
    """What a (possibly damaged) snapshot/journal read ran into."""

    corrupt_sections: int = 0
    truncated: bool = False
    unsupported_version: bool = False

    @property
    def clean(self) -> bool:
        return (
            self.corrupt_sections == 0
            and not self.truncated
            and not self.unsupported_version
        )


# -- primitive encoders ------------------------------------------------------


def _put_bytes(buf: bytearray, data: bytes) -> None:
    buf += struct.pack("<I", len(data))
    buf += data


def _get_bytes(data: bytes, off: int) -> Tuple[bytes, int]:
    (length,) = struct.unpack_from("<I", data, off)
    off += 4
    if off + length > len(data):
        raise ValueError("byte field overruns payload")
    return data[off : off + length], off + length


def _encode_meta(buf: bytearray, record: EntryRecord) -> None:
    _put_bytes(buf, json.dumps(key_to_obj(record.key), sort_keys=True).encode("utf-8"))
    buf += struct.pack(
        "<qQIQQQQ",
        record.digest,
        record.table_layout,
        record.num_slices,
        record.generation,
        record.hits,
        record.rows_qualifying,
        record.rows_considered,
    )
    buf += struct.pack("<I", len(record.build_versions))
    for name in sorted(record.build_versions):
        _put_bytes(buf, name.encode("utf-8"))
        buf += struct.pack("<Q", record.build_versions[name])
    # Version 2: the reserved provenance code and source digests.
    buf += struct.pack("<B", _PROVENANCE_CODES[record.provenance])
    buf += struct.pack("<I", len(record.source_digests))
    for source_digest in record.source_digests:
        buf += struct.pack("<q", source_digest)


def _decode_meta(
    data: bytes, off: int, version: int = FORMAT_VERSION
) -> Tuple[EntryRecord, int]:
    key_json, off = _get_bytes(data, off)
    key = key_from_obj(json.loads(key_json.decode("utf-8")))
    (
        digest,
        table_layout,
        num_slices,
        generation,
        hits,
        qualifying,
        considered,
    ) = struct.unpack_from("<qQIQQQQ", data, off)
    off += struct.calcsize("<qQIQQQQ")
    if digest != key_digest(key):
        raise ValueError("key digest mismatch (stored key drifted)")
    (n_build,) = struct.unpack_from("<I", data, off)
    off += 4
    build_versions: Dict[str, int] = {}
    for _ in range(n_build):
        name, off = _get_bytes(data, off)
        (build_version,) = struct.unpack_from("<Q", data, off)
        off += 8
        build_versions[name.decode("utf-8")] = int(build_version)
    provenance = "scan"
    source_digests: Tuple[int, ...] = ()
    if version >= 2:
        (provenance_code,) = struct.unpack_from("<B", data, off)
        off += 1
        if provenance_code >= len(_PROVENANCES):
            raise ValueError(f"unknown provenance code {provenance_code}")
        provenance = _PROVENANCES[provenance_code]
        (n_sources,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + 8 * n_sources > len(data):
            raise ValueError("source digests overrun payload")
        source_digests = tuple(
            int(d) for d in struct.unpack_from(f"<{n_sources}q", data, off)
        )
        off += 8 * n_sources
    record = EntryRecord(
        key=key,
        digest=int(digest),
        table_layout=int(table_layout),
        num_slices=int(num_slices),
        generation=int(generation),
        build_versions=build_versions,
        hits=int(hits),
        rows_qualifying=int(qualifying),
        rows_considered=int(considered),
        provenance=provenance,
        source_digests=source_digests,
    )
    return record, off


# Slice-state variants on the wire.
_STATE_RANGE = 0
_STATE_BITMAP = 1


def _encode_state(buf: bytearray, slice_id: int, state: SliceState) -> None:
    if isinstance(state, RangeSliceState):  # raw (N, 2) int64 bounds
        kind, param = _STATE_RANGE, state.max_ranges
        bounds = state.ranges.bounds
        payload = np.ascontiguousarray(bounds, dtype="<i8").tobytes()
        count = len(bounds)
    elif isinstance(state, BitmapSliceState):  # packed bits
        kind, param = _STATE_BITMAP, state.block_size
        payload = np.packbits(state.bits).tobytes()
        count = len(state.bits)
    else:
        raise TypeError(f"unknown slice-state type {type(state).__name__}")
    buf += struct.pack(
        "<IB3xQQQ", slice_id, kind, state.last_cached_row, param, count
    )
    buf += payload


def _decode_state(data: bytes, off: int) -> Tuple[int, SliceState, int]:
    """The state exactly as stored: nothing is re-coalesced, re-derived
    or judged here — ``install_restored`` checks a state before it
    serves, compaction re-encodes what it read."""
    slice_id, kind, last_cached_row, param, count = struct.unpack_from(
        "<IB3xQQQ", data, off
    )
    off += struct.calcsize("<IB3xQQQ")
    state: SliceState
    if kind == _STATE_RANGE:
        nbytes = count * 16
        if off + nbytes > len(data):
            raise ValueError("range payload overruns section")
        bounds = (
            np.frombuffer(data, dtype="<i8", count=count * 2, offset=off)
            .astype(np.int64)
            .reshape(-1, 2)
        )
        state = RangeSliceState._wrap(
            RangeList._wrap(bounds), int(last_cached_row), int(param)
        )
    elif kind == _STATE_BITMAP:
        nbytes = (count + 7) // 8
        if off + nbytes > len(data):
            raise ValueError("bitmap payload overruns section")
        packed = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=off)
        bits = np.unpackbits(packed, count=int(count)).astype(bool)
        state = BitmapSliceState._wrap(bits, int(last_cached_row), int(param))
    else:
        raise ValueError(f"unknown state kind {kind}")
    return int(slice_id), state, off + nbytes


def encode_entry(record: EntryRecord) -> bytes:
    buf = bytearray()
    _encode_meta(buf, record)
    buf += struct.pack("<I", len(record.states))
    for slice_id in sorted(record.states):
        _encode_state(buf, slice_id, record.states[slice_id])
    return bytes(buf)


def decode_entry(payload: bytes, version: int = FORMAT_VERSION) -> EntryRecord:
    record, off = _decode_meta(payload, 0, version)
    (n_states,) = struct.unpack_from("<I", payload, off)
    off += 4
    for _ in range(n_states):
        slice_id, state, off = _decode_state(payload, off)
        record.states[slice_id] = state
    # The header's version is outside every CRC: a flip that turns 2
    # into 0 reads a version-2 entry without its provenance fields and
    # takes their bytes for the state count.  An entry whose fields do
    # not end exactly at its payload's end is damage.
    if off != len(payload):
        raise ValueError("entry payload not consumed exactly")
    return record


# -- snapshot ----------------------------------------------------------------


def _section(kind: int, payload: bytes) -> bytes:
    return _SECTION.pack(kind, len(payload), _crc(payload)) + payload


def encode_snapshot(
    records: Dict[int, EntryRecord], meta: Optional[dict] = None
) -> bytes:
    buf = bytearray(_HEADER.pack(SNAPSHOT_MAGIC, FORMAT_VERSION, 0, 0))
    meta_obj = dict(meta or {})
    meta_obj["entries"] = len(records)
    buf += _section(SECTION_META, json.dumps(meta_obj, sort_keys=True).encode("utf-8"))
    for digest in sorted(records):
        buf += _section(SECTION_ENTRY, encode_entry(records[digest]))
    buf += _section(SECTION_END, b"")
    return bytes(buf)


def decode_snapshot(
    data: bytes,
) -> Tuple[Dict[int, EntryRecord], dict, DecodeIssues]:
    """Decode a snapshot, tolerating truncation and bit flips.

    Returns every entry whose section passed its checksum and decoded
    cleanly; damage is reported through :class:`DecodeIssues`, never as
    an exception.
    """
    records: Dict[int, EntryRecord] = {}
    meta: dict = {}
    issues = DecodeIssues()
    if len(data) < _HEADER.size:
        if data:
            issues.truncated = True
        return records, meta, issues
    magic, version, _flags, _reserved = _HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        issues.corrupt_sections += 1
        return records, meta, issues
    if version > FORMAT_VERSION:
        issues.unsupported_version = True
        return records, meta, issues
    off = _HEADER.size
    saw_end = False
    while off < len(data):
        if off + _SECTION.size > len(data):
            issues.truncated = True
            break
        kind, length, crc = _SECTION.unpack_from(data, off)
        off += _SECTION.size
        if length > len(data) - off:
            issues.truncated = True
            break
        payload = data[off : off + length]
        off += length
        if _crc(payload) != crc:
            issues.corrupt_sections += 1
            continue
        try:
            if kind == SECTION_META:
                meta = json.loads(payload.decode("utf-8"))
            elif kind == SECTION_ENTRY:
                record = decode_entry(payload, version)
                records[record.digest] = record
            elif kind == SECTION_END:
                saw_end = True
                break
            else:
                # The section header is outside its payload's CRC, so a
                # bit flip in the kind byte lands here.  Writers that
                # add section kinds bump the format version (refused
                # above), so within a supported version an unknown kind
                # can only be damage — count it, keep decoding.
                issues.corrupt_sections += 1
        except Exception:
            issues.corrupt_sections += 1
    if not saw_end and not issues.truncated and off >= len(data):
        # The file ended cleanly on a section boundary but without the
        # END marker — a snapshot cut exactly between sections.
        issues.truncated = True
    return records, meta, issues


# -- journal -----------------------------------------------------------------


def frame_record(payload: bytes) -> bytes:
    return _JOURNAL_HDR.pack(len(payload), _crc(payload)) + payload


def iter_journal(data: bytes, issues: DecodeIssues) -> Iterator[bytes]:
    """Yield record payloads until the end or the first damaged record.

    A short header, an overrunning length, or a CRC failure marks the
    torn tail: everything after it is unreadable (framing is lost) and
    is abandoned — the crash-recovery semantics of an append-only log.
    """
    off = 0
    while off < len(data):
        if off + _JOURNAL_HDR.size > len(data):
            issues.truncated = True
            return
        length, crc = _JOURNAL_HDR.unpack_from(data, off)
        off += _JOURNAL_HDR.size
        if length > _MAX_RECORD_BYTES or length > len(data) - off:
            issues.truncated = True
            return
        payload = data[off : off + length]
        off += length
        if _crc(payload) != crc:
            issues.corrupt_sections += 1
            return
        yield payload


def encode_state_event(
    meta: EntryRecord, slice_id: int, state: SliceState
) -> bytes:
    buf = bytearray(struct.pack("<B", OP_STATE))
    _encode_meta(buf, meta)
    _encode_state(buf, slice_id, state)
    return bytes(buf)


def encode_drop_event(digest: int, slice_ids) -> bytes:
    buf = bytearray(struct.pack("<Bq", OP_DROP, digest))
    buf += struct.pack("<I", len(slice_ids))
    for slice_id in slice_ids:
        buf += struct.pack("<I", slice_id)
    return bytes(buf)


def decode_journal_payload(payload: bytes):
    """Decode one journal record: ``("state", meta, slice_id, state)``
    or ``("drop", digest, slice_ids)``."""
    (op,) = struct.unpack_from("<B", payload, 0)
    if op == OP_STATE:
        meta, off = _decode_meta(payload, 1)
        slice_id, state, off = _decode_state(payload, off)
        return ("state", meta, slice_id, state)
    if op == OP_DROP:
        (digest,) = struct.unpack_from("<q", payload, 1)
        (n,) = struct.unpack_from("<I", payload, 9)
        slice_ids = list(struct.unpack_from(f"<{n}I", payload, 13)) if n else []
        return ("drop", int(digest), slice_ids)
    raise ValueError(f"unknown journal op {op}")


def replay_journal(
    records: Dict[int, EntryRecord], data: bytes, issues: DecodeIssues
) -> int:
    """Apply journal events on top of the snapshot's records in place.

    Returns the number of records replayed.  Undecodable payloads that
    passed their CRC (format drift) count as corrupt and stop the
    replay, like a torn tail.
    """
    replayed = 0
    for payload in iter_journal(data, issues):
        try:
            event = decode_journal_payload(payload)
        except Exception:
            issues.corrupt_sections += 1
            return replayed
        replayed += 1
        if event[0] == "state":
            _, meta, slice_id, state = event
            record = records.get(meta.digest)
            # A record of another incarnation shares no stamps with
            # this event: its states are replaced, not merged.
            if record is None or record.generation != meta.generation:
                meta.states = {slice_id: state}
                records[meta.digest] = meta
            else:
                record.merge_meta(meta)
                record.states[slice_id] = state
        else:
            _, digest, slice_ids = event
            record = records.get(digest)
            if record is None:
                continue
            for slice_id in slice_ids:
                record.states.pop(slice_id, None)
            if not record.states:
                del records[digest]
    return replayed
