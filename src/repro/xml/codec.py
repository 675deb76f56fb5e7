"""Binary encoding of tokens and key atoms.

Everything that crosses the simulated-device boundary (data-stack spill
blocks, sorted runs, stored documents) is encoded with this codec, so that
byte counts - and therefore block counts, the paper's primary metric - are
honest.

Two dialects exist:

* **plain** - tag and attribute names stored as UTF-8 strings.
* **dictionary-coded** - names replaced by varint ids into a shared
  :class:`~repro.xml.compact.NameDictionary` (paper Section 3.2: "each
  unique string can be converted to an integer before sorting and back
  during output").

End-tag elimination (the other compaction of Section 3.2) happens at the
stream level, not here: a compacted stream simply contains no
:class:`~repro.xml.tokens.EndTag` records and start tags carry levels.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable

from ..errors import CodecError
from .tokens import (
    EndTag,
    KEY_MISSING,
    KEY_NUMBER,
    KEY_STRING,
    RunPointer,
    StartTag,
    Text,
    Token,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compact import NameDictionary

_DOUBLE = struct.Struct("<d")

_TYPE_START = 1
_TYPE_TEXT = 2
_TYPE_END = 3
_TYPE_POINTER = 4

#: Public aliases of the record type bytes, for the byte-record kernels
#: (:mod:`repro.core.columnar`) that dispatch on the raw leading byte
#: without materializing token objects.
TYPE_START = _TYPE_START
TYPE_TEXT = _TYPE_TEXT
TYPE_END = _TYPE_END
TYPE_POINTER = _TYPE_POINTER

# Flag bits shared by start/end/pointer encodings.
_FLAG_KEY = 1
_FLAG_POS = 2
_FLAG_LEVEL = 4


def is_pointer_record(data: bytes) -> bool:
    """True if an encoded token record is a RunPointer (cheap peek)."""
    return bool(data) and data[0] == _TYPE_POINTER


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def read_varint_fast(data: bytes, pos: int) -> tuple[int, int]:
    """Unchecked LEB128 read for hot loops (single-byte fast path).

    Same result as :func:`read_varint` on well-formed input.  Truncated
    input raises ``IndexError``; the byte-record kernels convert that to
    :class:`~repro.errors.CodecError` once, at their own boundary, so the
    loops pay no per-byte bounds check.
    """
    value = data[pos]
    pos += 1
    if value < 0x80:
        return value, pos
    value &= 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def encode_varint(value: int) -> bytes:
    """The LEB128 frame of ``value`` as standalone bytes.

    The one varint implementation in the package: callers that used to
    carry private copies (:mod:`repro.xml.compact`'s frame cache, the
    run-compression layer) all frame through here.
    """
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    # Two- and three-byte fast paths: positions and stack locations.
    if 0 <= value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    if 0 <= value < 0x200000:
        return bytes(
            (value & 0x7F | 0x80, (value >> 7) & 0x7F | 0x80, value >> 14)
        )
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


_ONE_BYTE = [bytes([value]) for value in range(0x80)]


def _write_string(out: bytearray, value: str) -> None:
    encoded = value.encode("utf-8")
    write_varint(out, len(encoded))
    out += encoded


def _read_string(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc}") from None


def _write_name(out: bytearray, name: str, names) -> None:
    if names is None:
        _write_string(out, name)
    else:
        # One dict probe + cached varint frame: the dictionary keeps the
        # encoded form of every id, so dictionary-coded encoding never
        # re-serializes an integer (hot in compacted scans).
        out += names.intern_frame(name)


def encode_name(name: str, names=None) -> bytes:
    """One name field (string frame, or dictionary id) as bytes."""
    out = bytearray()
    _write_name(out, name, names)
    return bytes(out)


def _read_name(data: bytes, pos: int, names) -> tuple[str, int]:
    if names is None:
        return _read_string(data, pos)
    name_id, pos = read_varint(data, pos)
    return names.lookup(name_id), pos


def write_tag_attrs(out: bytearray, tag: str, attrs, names=None) -> None:
    """Append the tag+attributes fields of a start record.

    This slice, in either name dialect, follows the type and flag bytes
    of every encoded start tag and sits inside every key-path element
    record, so the byte-record kernels splice it verbatim and memoize
    keys per distinct slice.
    """
    _write_name(out, tag, names)
    write_varint(out, len(attrs))
    for name, value in attrs:
        _write_name(out, name, names)
        _write_string(out, value)


def read_tag_attrs(
    data: bytes, pos: int, names=None
) -> tuple[str, tuple[tuple[str, str], ...], int]:
    """Read tag+attributes fields; returns (tag, attrs, new_pos)."""
    tag, pos = _read_name(data, pos, names)
    count, pos = read_varint(data, pos)
    attrs = []
    for _ in range(count):
        name, pos = _read_name(data, pos, names)
        value, pos = _read_string(data, pos)
        attrs.append((name, value))
    return tag, tuple(attrs), pos


def encode_tag_attrs(tag: str, attrs, names=None) -> bytes:
    """:func:`write_tag_attrs` as standalone bytes."""
    out = bytearray()
    write_tag_attrs(out, tag, attrs, names)
    return bytes(out)


# -- offset skippers: walk the record grammar without decoding it. --------
#
# Unchecked like read_varint_fast: truncated input raises IndexError, which
# callers turn into CodecError at their own boundary.


def _skip_frame(data: bytes, pos: int) -> int:
    """End offset of a length-framed field starting at ``pos``."""
    length = data[pos]
    pos += 1
    if length >= 0x80:
        length, pos = read_varint_fast(data, pos - 1)
    return pos + length


def _skip_varint(data: bytes, pos: int) -> int:
    """End offset of a varint starting at ``pos``."""
    while data[pos] >= 0x80:
        pos += 1
    return pos + 1


def _name_field_end(data: bytes, pos: int, names_coded: bool) -> int:
    """End offset of one encoded name (id varint or string frame)."""
    if names_coded:
        return _skip_varint(data, pos)
    return _skip_frame(data, pos)


def _skip_tag_attrs(data: bytes, pos: int, names_coded: bool) -> int:
    """End offset of a record's tag+attributes fields starting at ``pos``."""
    if names_coded:
        pos = _skip_varint(data, pos)  # tag id
        count, pos = read_varint_fast(data, pos)
        for _ in range(count):
            pos = _skip_varint(data, pos)  # attr name id
            pos = _skip_frame(data, pos)  # attr value
        return pos
    pos = _skip_frame(data, pos)  # tag
    count, pos = read_varint_fast(data, pos)
    for _ in range(count):
        pos = _skip_frame(data, pos)  # attr name
        pos = _skip_frame(data, pos)  # attr value
    return pos


def _skip_atom(data: bytes, pos: int) -> int:
    """End offset of one codec-encoded key atom starting at ``pos``."""
    kind = data[pos]
    pos += 1
    if kind == 0:
        return pos
    if kind == 1:
        return pos + 8
    if kind == 2:
        return _skip_frame(data, pos)
    raise CodecError(f"unknown key atom kind {kind}")


def record_level(record: bytes, names_coded: bool) -> int | None:
    """The level annotation of an encoded start, text or pointer record
    (None when it carries none)."""
    flags = record[1]
    if not flags & 4:
        return None
    token_type = record[0]
    if token_type == TYPE_TEXT:
        return read_varint_fast(record, _skip_frame(record, 2))[0]
    if token_type == TYPE_START:
        pos = _skip_tag_attrs(record, 2, names_coded)
    elif token_type == TYPE_POINTER:
        pos = _skip_varint(record, 2)  # run_id
        pos = _skip_varint(record, pos)  # element_count
        pos = _skip_varint(record, pos)  # payload_bytes
    else:
        raise CodecError(f"record type {token_type} carries no level")
    if flags & 1:
        pos = _skip_atom(record, pos)
    if flags & 2:
        pos = _skip_varint(record, pos)
    return read_varint_fast(record, pos)[0]


def encode_key_atom(out: bytearray, atom: tuple) -> None:
    """Append one key atom (kind byte + payload)."""
    kind, value = atom
    out.append(kind)
    if kind == KEY_MISSING:
        return
    if kind == KEY_NUMBER:
        out += _DOUBLE.pack(value)
        return
    if kind == KEY_STRING:
        _write_string(out, value)
        return
    raise CodecError(f"unknown key atom kind {kind}")


def decode_key_atom(data: bytes, pos: int) -> tuple[tuple, int]:
    """Read one key atom; returns (atom, new_pos)."""
    if pos >= len(data):
        raise CodecError("truncated key atom")
    kind = data[pos]
    pos += 1
    if kind == KEY_MISSING:
        return (KEY_MISSING, 0.0), pos
    if kind == KEY_NUMBER:
        end = pos + _DOUBLE.size
        if end > len(data):
            raise CodecError("truncated number atom")
        return (KEY_NUMBER, _DOUBLE.unpack(data[pos:end])[0]), end
    if kind == KEY_STRING:
        value, pos = _read_string(data, pos)
        return (KEY_STRING, value), pos
    raise CodecError(f"unknown key atom kind {kind}")


class TokenCodec:
    """Encodes and decodes tokens, optionally via a name dictionary."""

    def __init__(self, names: "NameDictionary | None" = None):
        self.names = names

    # -- encoding ----------------------------------------------------------

    def encode(self, token: Token) -> bytes:
        out = bytearray()
        if isinstance(token, StartTag):
            self._encode_start(out, token)
        elif isinstance(token, Text):
            out.append(_TYPE_TEXT)
            out.append(_FLAG_LEVEL if token.level is not None else 0)
            _write_string(out, token.text)
            if token.level is not None:
                write_varint(out, token.level)
        elif isinstance(token, EndTag):
            self._encode_end(out, token)
        elif isinstance(token, RunPointer):
            self._encode_pointer(out, token)
        else:
            raise CodecError(f"cannot encode {token!r}")
        return bytes(out)

    def encoded_size(self, token: Token) -> int:
        """Size of ``encode(token)`` (used for threshold arithmetic)."""
        return len(self.encode(token))

    def encode_batch(self, tokens: Iterable[Token]) -> list[bytes]:
        """Encode many tokens; one bound-method lookup for the batch."""
        encode = self.encode
        return [encode(token) for token in tokens]

    def decode_batch(self, records: Iterable[bytes]) -> list[Token]:
        """Decode many records; one bound-method lookup for the batch."""
        decode = self.decode
        return [decode(record) for record in records]

    def _flags(self, token) -> int:
        flags = 0
        if token.key is not None:
            flags |= _FLAG_KEY
        if token.pos is not None:
            flags |= _FLAG_POS
        if getattr(token, "level", None) is not None:
            flags |= _FLAG_LEVEL
        return flags

    def _encode_annotations(self, out: bytearray, token, flags: int) -> None:
        if flags & _FLAG_KEY:
            encode_key_atom(out, token.key)
        if flags & _FLAG_POS:
            write_varint(out, token.pos)
        if flags & _FLAG_LEVEL:
            write_varint(out, token.level)

    def _encode_start(self, out: bytearray, token: StartTag) -> None:
        out.append(_TYPE_START)
        flags = self._flags(token)
        out.append(flags)
        write_tag_attrs(out, token.tag, token.attrs, self.names)
        self._encode_annotations(out, token, flags)

    def _encode_end(self, out: bytearray, token: EndTag) -> None:
        out.append(_TYPE_END)
        flags = self._flags(token)
        out.append(flags)
        _write_name(out, token.tag, self.names)
        self._encode_annotations(out, token, flags)

    def _encode_pointer(self, out: bytearray, token: RunPointer) -> None:
        out.append(_TYPE_POINTER)
        flags = self._flags(token)
        out.append(flags)
        write_varint(out, token.run_id)
        write_varint(out, token.element_count)
        write_varint(out, token.payload_bytes)
        self._encode_annotations(out, token, flags)

    # -- decoding ----------------------------------------------------------

    def decode(self, data: bytes) -> Token:
        if not data:
            raise CodecError("empty token record")
        token_type = data[0]
        if token_type in (
            _TYPE_START,
            _TYPE_TEXT,
            _TYPE_END,
            _TYPE_POINTER,
        ) and len(data) < 2:
            raise CodecError("truncated token record")
        if token_type == _TYPE_TEXT:
            flags = data[1]
            text, pos = _read_string(data, 2)
            level = None
            if flags & _FLAG_LEVEL:
                level, pos = read_varint(data, pos)
            return Text(text, level=level)
        if token_type == _TYPE_START:
            return self._decode_start(data)
        if token_type == _TYPE_END:
            return self._decode_end(data)
        if token_type == _TYPE_POINTER:
            return self._decode_pointer(data)
        raise CodecError(f"unknown token type byte {token_type}")

    def _decode_annotations(
        self, data: bytes, pos: int, flags: int
    ) -> tuple[tuple | None, int | None, int | None, int]:
        key = position = level = None
        if flags & _FLAG_KEY:
            key, pos = decode_key_atom(data, pos)
        if flags & _FLAG_POS:
            position, pos = read_varint(data, pos)
        if flags & _FLAG_LEVEL:
            level, pos = read_varint(data, pos)
        return key, position, level, pos

    def _decode_start(self, data: bytes) -> StartTag:
        flags = data[1]
        tag, attrs, pos = read_tag_attrs(data, 2, self.names)
        key, position, level, pos = self._decode_annotations(data, pos, flags)
        return StartTag(
            tag=tag, attrs=attrs, key=key, pos=position, level=level
        )

    def _decode_end(self, data: bytes) -> EndTag:
        flags = data[1]
        tag, pos = _read_name(data, 2, self.names)
        key, position, _, pos = self._decode_annotations(data, pos, flags)
        return EndTag(tag=tag, key=key, pos=position)

    def _decode_pointer(self, data: bytes) -> RunPointer:
        flags = data[1]
        run_id, pos = read_varint(data, 2)
        element_count, pos = read_varint(data, pos)
        payload_bytes, pos = read_varint(data, pos)
        key, position, level, pos = self._decode_annotations(data, pos, flags)
        return RunPointer(
            run_id=run_id,
            key=key,
            pos=position,
            level=level,
            element_count=element_count,
            payload_bytes=payload_bytes,
        )
