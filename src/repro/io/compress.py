"""Run compression: container-split codecs for sorted runs (ISSUE 10).

Every intermediate byte the sorters move is a framed token record, and
*Optimizing XML Compression* (Leighton & Barbosa) shows XML compresses
far better when its structure, text, and annotations are split into
separate containers, each with a codec suited to its statistics, than
when one byte-level codec sees the interleaved stream.  This module
implements that split at *run granularity*:

* **layout container** - one varint per record: payload length and a
  structure/text discriminator bit.  This is the glue that reassembles
  records in order.
* **structure container** - records whose payload is a start/end/pointer
  token (name-dictionary ids and varint framing from
  :mod:`repro.xml.codec`).  The ``container`` codec front-codes them
  (key-frame + shared prefix/suffix delta against the previous record)
  and then entropy-packs the delta stream.
* **text container** - text-token payloads, coded with a per-segment
  dictionary of unique blobs plus per-record indices (text in XML repeats
  heavily: whitespace runs, enumerated values).

``zlib`` is the reference backend: the whole container is handed to
:func:`zlib.compress` with no modeling cleverness.  Every container
independently falls back to raw storage when coding would grow it, so a
compressed segment is never larger than necessary plus framing.

Segments are *self-contained*: a group of whole records is encoded into
one blob (checksummed, typed, counted) and stored in
``ceil(len(blob)/block_size)`` device blocks.  Records never span
segments, which keeps mid-run resume cheap (binary-search the segment
table, decode one segment) and bounds the decode working set.

The same record packing doubles as the service wire format
(:func:`encode_document_wire` / :func:`decode_document_wire`): a job's
token stream is dictionary-coded, container-split, and checksummed into
one compact submission blob that decodes to the *exact* original tokens.

Simulated-cost accounting lives with the callers: writers charge
:meth:`~repro.io.stats.IOStats.record_compression` per raw byte in,
readers charge :meth:`~repro.io.stats.IOStats.record_decompression` per
raw byte out, and the :class:`~repro.io.stats.CostModel` converts both
to CPU seconds.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

from ..errors import RunCodecError
from ..xml.codec import (
    TYPE_TEXT,
    TokenCodec,
    encode_varint,
    read_varint,
    write_varint,
)

_LEN = struct.Struct("<I")

#: Codec names accepted by :class:`CompressionConfig` and the CLI.
CODEC_NAMES = ("container", "zlib")

_CODEC_IDS = {"container": 1, "zlib": 2}
_CODEC_BY_ID = {v: k for k, v in _CODEC_IDS.items()}

_SEGMENT_MAGIC = 0xC5
_WIRE_MAGIC = b"RXW1"

# Per-container storage modes (the fallback machinery): every container
# records how it was coded so decode never guesses.
_MODE_RAW = 0
_MODE_DELTA = 1        # structure: front-coded (prefix/suffix delta)
_MODE_DELTA_ZLIB = 2   # structure: front-coded, then zlib
_MODE_ZLIB = 3         # raw concatenation through zlib
_MODE_DICT = 4         # text: unique-blob dictionary + indices
_MODE_DICT_ZLIB = 5    # text: dictionary blob through zlib


@dataclass(frozen=True)
class CompressionConfig:
    """How a :class:`~repro.io.runs.RunStore` compresses new runs.

    Attributes:
        codec: "container" (split + front-coding/dictionary) or "zlib"
            (reference backend: one zlib stream per container).
        segment_blocks: raw blocks gathered per compressed segment.  The
            writer buffers this much framed data before coding, so it is
            also the codec's working-set knob.

    Only writers of a category in
    :data:`~repro.io.runs.DEFAULT_COMPRESS_CATEGORIES` produce compressed
    runs.
    """

    codec: str = "container"
    segment_blocks: int = 4

    def __post_init__(self):
        if self.codec not in _CODEC_IDS:
            raise RunCodecError(
                f"unknown run codec {self.codec!r}; pick one of "
                f"{', '.join(CODEC_NAMES)}"
            )
        if self.segment_blocks < 1:
            raise RunCodecError(
                f"segment_blocks must be positive: {self.segment_blocks}"
            )


@dataclass(frozen=True)
class RunSegment:
    """One compressed segment of a run: whole records, self-contained.

    Attributes:
        logical_start: framed-stream offset of the segment's first record.
        logical_bytes: framed bytes the segment covers.
        block_start: index of its first block in the handle's block list.
        block_count: physical blocks storing the compressed blob.
        stored_bytes: exact compressed blob length (the final block is
            zero-padded up to the block size).
        record_count: records in the segment.
    """

    logical_start: int
    logical_bytes: int
    block_start: int
    block_count: int
    stored_bytes: int
    record_count: int

    @property
    def logical_end(self) -> int:
        return self.logical_start + self.logical_bytes


def framed_bytes(records: Iterable[bytes]) -> int:
    """Bytes the records would occupy as an uncompressed framed stream."""
    return sum(_LEN.size + len(record) for record in records)


# -- container coding ---------------------------------------------------------


def _front_code(entries: list[bytes]) -> bytes:
    """Prefix/suffix delta against the previous entry, key-framed.

    Each entry stores ``varint(shared_prefix) varint(shared_suffix)``
    plus the differing middle; entry lengths come from the layout
    container, so no length is repeated here.
    """
    out = bytearray()
    prev = b""
    for entry in entries:
        limit = min(len(entry), len(prev))
        prefix = 0
        while prefix < limit and entry[prefix] == prev[prefix]:
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and entry[len(entry) - 1 - suffix] == prev[len(prev) - 1 - suffix]
        ):
            suffix += 1
        write_varint(out, prefix)
        write_varint(out, suffix)
        out += entry[prefix : len(entry) - suffix]
        prev = entry
    return bytes(out)


def _front_decode(data: bytes, lengths: list[int]) -> list[bytes]:
    entries: list[bytes] = []
    prev = b""
    pos = 0
    for length in lengths:
        prefix, pos = read_varint(data, pos)
        suffix, pos = read_varint(data, pos)
        middle = length - prefix - suffix
        if middle < 0 or prefix > len(prev) or suffix > len(prev):
            raise RunCodecError("front-coded entry overruns its frame")
        end = pos + middle
        if end > len(data):
            raise RunCodecError("truncated front-coded container")
        entry = (
            prev[:prefix]
            + data[pos:end]
            + (prev[len(prev) - suffix :] if suffix else b"")
        )
        pos = end
        entries.append(entry)
        prev = entry
    if pos != len(data):
        raise RunCodecError("trailing bytes after front-coded container")
    return entries


def _dict_code(entries: list[bytes]) -> bytes | None:
    """Unique-blob dictionary + per-entry indices; None when pointless."""
    index_of: dict[bytes, int] = {}
    order: list[bytes] = []
    for entry in entries:
        if entry not in index_of:
            index_of[entry] = len(order)
            order.append(entry)
    if len(order) >= len(entries):
        return None
    out = bytearray()
    write_varint(out, len(order))
    for blob in order:
        write_varint(out, len(blob))
        out += blob
    for entry in entries:
        write_varint(out, index_of[entry])
    return bytes(out)


def _dict_decode(data: bytes, count: int) -> list[bytes]:
    nuniq, pos = read_varint(data, 0)
    order: list[bytes] = []
    for _ in range(nuniq):
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise RunCodecError("truncated dictionary blob")
        order.append(data[pos:end])
        pos = end
    entries: list[bytes] = []
    for _ in range(count):
        index, pos = read_varint(data, pos)
        if index >= nuniq:
            raise RunCodecError(f"dictionary index {index} out of range")
        entries.append(order[index])
    if pos != len(data):
        raise RunCodecError("trailing bytes after dictionary container")
    return entries


def _split_concat(data: bytes, lengths: list[int]) -> list[bytes]:
    entries: list[bytes] = []
    pos = 0
    for length in lengths:
        end = pos + length
        if end > len(data):
            raise RunCodecError("truncated raw container")
        entries.append(data[pos:end])
        pos = end
    if pos != len(data):
        raise RunCodecError("trailing bytes after raw container")
    return entries


def _pack_structure(entries: list[bytes], codec: str) -> bytes:
    raw = b"".join(entries)
    candidates = [(_MODE_RAW, raw)]
    if codec == "container":
        delta = _front_code(entries)
        candidates.append((_MODE_DELTA, delta))
        candidates.append((_MODE_DELTA_ZLIB, zlib.compress(delta, 6)))
    else:
        candidates.append((_MODE_ZLIB, zlib.compress(raw, 6)))
    mode, data = min(candidates, key=lambda pair: len(pair[1]))
    return bytes([mode]) + data


def _pack_text(entries: list[bytes], codec: str) -> bytes:
    raw = b"".join(entries)
    candidates = [(_MODE_RAW, raw)]
    if codec == "container":
        coded = _dict_code(entries)
        if coded is not None:
            candidates.append((_MODE_DICT, coded))
            candidates.append((_MODE_DICT_ZLIB, zlib.compress(coded, 6)))
    else:
        candidates.append((_MODE_ZLIB, zlib.compress(raw, 6)))
    mode, data = min(candidates, key=lambda pair: len(pair[1]))
    return bytes([mode]) + data


def _unpack_container(
    blob: bytes, lengths: list[int], kind: str
) -> list[bytes]:
    if not blob:
        if lengths:
            raise RunCodecError(f"empty {kind} container for {len(lengths)} records")
        return []
    mode, data = blob[0], blob[1:]
    try:
        if mode == _MODE_RAW:
            return _split_concat(data, lengths)
        if mode == _MODE_ZLIB:
            return _split_concat(zlib.decompress(data), lengths)
        if mode == _MODE_DELTA:
            return _front_decode(data, lengths)
        if mode == _MODE_DELTA_ZLIB:
            return _front_decode(zlib.decompress(data), lengths)
        if mode == _MODE_DICT:
            return _dict_decode(data, len(lengths))
        if mode == _MODE_DICT_ZLIB:
            return _dict_decode(zlib.decompress(data), len(lengths))
    except zlib.error as exc:
        raise RunCodecError(f"corrupt {kind} container: {exc}") from exc
    raise RunCodecError(f"unknown {kind} container mode {mode}")


# -- segment blobs ------------------------------------------------------------


def encode_records(records: list[bytes], codec: str) -> bytes:
    """Container-split a group of whole records into one segment blob.

    The header's flags byte is always 0 and the first of the four
    length-prefixed containers is always empty: the layout a reader
    checks, kept so existing segments and wire blobs stay decodable.
    """
    codec_id = _CODEC_IDS.get(codec)
    if codec_id is None:
        raise RunCodecError(f"unknown run codec {codec!r}")
    layout = bytearray()
    structure: list[bytes] = []
    text: list[bytes] = []
    crc = 0
    for payload in records:
        crc = zlib.crc32(_LEN.pack(len(payload)), crc)
        crc = zlib.crc32(payload, crc)
        is_text = bool(payload) and payload[0] == TYPE_TEXT
        write_varint(layout, (len(payload) << 1) | int(is_text))
        (text if is_text else structure).append(payload)

    out = bytearray()
    out.append(_SEGMENT_MAGIC)
    out.append(codec_id)
    out.append(0)  # flags
    write_varint(out, len(records))
    write_varint(out, framed_bytes(records))
    write_varint(out, crc)
    for container in (
        b"",
        bytes(layout),
        _pack_structure(structure, codec),
        _pack_text(text, codec),
    ):
        write_varint(out, len(container))
        out += container
    return bytes(out)


def decode_records(blob: bytes) -> list[bytes]:
    """Inverse of :func:`encode_records`; raises :class:`RunCodecError`.

    Corruption anywhere - magic, codec id, container framing, checksum -
    surfaces as a typed error rather than silently wrong records.
    """
    try:
        return _decode_records(blob)
    except RunCodecError:
        raise
    except Exception as exc:  # truncated varints, slicing overruns...
        raise RunCodecError(f"corrupt compressed segment: {exc}") from exc


def _decode_records(blob: bytes) -> list[bytes]:
    if not blob or blob[0] != _SEGMENT_MAGIC:
        raise RunCodecError("bad segment magic")
    if len(blob) < 3:
        raise RunCodecError("truncated segment header")
    codec = _CODEC_BY_ID.get(blob[1])
    if codec is None:
        raise RunCodecError(f"unknown codec id {blob[1]}")
    if blob[2]:
        raise RunCodecError(f"unknown segment flags {blob[2]:#04x}")
    pos = 3
    record_count, pos = read_varint(blob, pos)
    raw_bytes, pos = read_varint(blob, pos)
    crc_expected, pos = read_varint(blob, pos)

    containers: list[bytes] = []
    for _ in range(4):
        length, pos = read_varint(blob, pos)
        end = pos + length
        if end > len(blob):
            raise RunCodecError("truncated segment container")
        containers.append(blob[pos:end])
        pos = end
    if pos != len(blob):
        raise RunCodecError("trailing bytes after segment")
    reserved, layout, structure_blob, text_blob = containers
    if reserved:
        raise RunCodecError("non-empty reserved segment container")

    kinds: list[int] = []
    struct_lengths: list[int] = []
    text_lengths: list[int] = []
    lpos = 0
    for _ in range(record_count):
        packed, lpos = read_varint(layout, lpos)
        is_text = packed & 1
        length = packed >> 1
        kinds.append(is_text)
        (text_lengths if is_text else struct_lengths).append(length)
    if lpos != len(layout):
        raise RunCodecError("trailing bytes after layout container")

    structure = _unpack_container(structure_blob, struct_lengths, "structure")
    text = _unpack_container(text_blob, text_lengths, "text")

    siter = iter(structure)
    titer = iter(text)
    records = [next(titer) if is_text else next(siter) for is_text in kinds]

    crc = 0
    total = 0
    for payload in records:
        crc = zlib.crc32(_LEN.pack(len(payload)), crc)
        crc = zlib.crc32(payload, crc)
        total += _LEN.size + len(payload)
    if total != raw_bytes:
        raise RunCodecError(
            f"segment length mismatch: framed {total}, header {raw_bytes}"
        )
    if crc != crc_expected:
        raise RunCodecError("segment checksum mismatch")
    return records


# -- the service wire format --------------------------------------------------


def encode_document_wire(events, codec: str = "container") -> bytes:
    """Encode a token stream into one compact submission blob.

    Tokens are dictionary-coded (the name table ships in the blob) and
    container-split with the run codec; :func:`decode_document_wire`
    returns tokens *equal* to the originals - the wire format is exact,
    not merely digest-identical.
    """
    from ..xml.compact import NameDictionary

    names = NameDictionary()
    token_codec = TokenCodec(names)
    records = [token_codec.encode(token) for token in events]
    body = encode_records(records, codec)

    out = bytearray()
    out += _WIRE_MAGIC
    table = bytearray()
    write_varint(table, len(names))
    for name_id in range(len(names)):
        encoded = names.lookup(name_id).encode("utf-8")
        write_varint(table, len(encoded))
        table += encoded
    write_varint(out, len(table))
    out += table
    write_varint(out, len(body))
    out += body
    return bytes(out)


def decode_document_wire(blob: bytes):
    """Decode a wire blob back to the exact submitted token list.

    Any corruption raises :class:`RunCodecError`.  The record body is
    checksummed; the name table is not, so a name byte replaced by
    another valid one decodes to tokens carrying the altered name.
    """
    from ..xml.compact import NameDictionary

    if blob[: len(_WIRE_MAGIC)] != _WIRE_MAGIC:
        raise RunCodecError("bad wire magic")
    try:
        pos = len(_WIRE_MAGIC)
        table_len, pos = read_varint(blob, pos)
        table_end = pos + table_len
        if table_end > len(blob):
            raise RunCodecError("truncated wire name table")
        table = blob[pos:table_end]
        pos = table_end
        count, tpos = read_varint(table, 0)
        names = []
        for _ in range(count):
            length, tpos = read_varint(table, tpos)
            end = tpos + length
            if end > len(table):
                raise RunCodecError("wire name overruns its table")
            names.append(table[tpos:end].decode("utf-8"))
            tpos = end
        if tpos != len(table):
            raise RunCodecError("trailing bytes after wire name table")
        if len(set(names)) != len(names):
            raise RunCodecError("duplicate name in wire name table")
        body_len, pos = read_varint(blob, pos)
        if pos + body_len != len(blob):
            raise RunCodecError("wire body length mismatch")
        records = decode_records(blob[pos:])
        token_codec = TokenCodec(NameDictionary(names))
        return [token_codec.decode(record) for record in records]
    except RunCodecError:
        raise
    except Exception as exc:
        raise RunCodecError(f"corrupt wire blob: {exc}") from exc


__all__ = [
    "CODEC_NAMES",
    "CompressionConfig",
    "RunSegment",
    "decode_document_wire",
    "decode_records",
    "encode_document_wire",
    "encode_records",
    "framed_bytes",
]
