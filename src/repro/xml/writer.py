"""Serializing to XML text: the token layout and the record writer.

:func:`serialize` lays out ``(kind, piece)`` pairs - ``(START, '<tag
a="v"')`` with attributes escaped, ``(TEXT, text)`` unescaped, ``(END,
'</tag>')`` - with the indentation and self-closing rules.  Tokens feed
it: :func:`events_to_string` (the DOM oracle's text and the generators').

:func:`record_chunks` writes a stored document's records
(:meth:`Document.to_string`, ``repro sort``'s output) by the same rules
without tokens or pairs: it walks each loaded block's framed records in
place, dispatches on the type byte, remembers the text of each distinct
start record, and hands the text out in chunks of bounded size, so a
consumer can write or hash it without holding it whole.  The two share
no layout code; :func:`serialize` is the reference the record writer is
tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import CodecError, XMLSyntaxError
from ..io.runs import FRAME_HEADER, frame_records, unpack_frame_header
from .codec import (
    TYPE_END,
    TYPE_START,
    TYPE_TEXT,
    read_tag_attrs,
    read_varint_fast,
    record_level,
)
from .parser import END, START, TEXT
from .tokens import EndTag, StartTag, Text, Token

if TYPE_CHECKING:
    from ..io.runs import RunReader
    from .model import Element

#: Distinct start records remembered before the emit memo starts over.
_MEMO_LIMIT = 1 << 13
#: Text pieces (one to three a record) after which the record writer hands
#: out a chunk, at the end of the loaded block: a chunk holds the text of
#: this many pieces plus at most one block's records.
_CHUNK_PIECES = 1 << 8
#: A framed empty record: the end of a compacted stream, which closes
#: every open element (a stored empty record is malformed).
_CLOSE_ALL = bytes(FRAME_HEADER)


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(
        ">", "&gt;"
    )


def escape_attr(value: str) -> str:
    """Escape an attribute value for double-quoted output."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


def open_piece(tag: str, attrs) -> str:
    """A start tag's text up to (not including) its closing ``>``."""
    return f"<{tag}" + "".join(
        f' {name}="{escape_attr(value)}"' for name, value in attrs
    )


def serialize(pieces: Iterable[tuple], indent: str | None = None) -> str:
    """Lay out balanced ``(kind, piece)`` pairs as XML text.

    ``indent`` (e.g. ``"  "``) pretty-prints one element per line; a
    text-bearing element stays on one line, an empty one self-closes.
    """
    out: list[str] = []
    write = out.append
    newline = "" if indent is None else "\n"
    pads = [""]  # pads[d]: the indentation of an element at depth d + 1
    depth = 0
    pending: str | None = None  # a start whose '>' or '/>' is undecided
    texts: list[str] = []
    for kind, piece in pieces:
        if kind == START:
            if pending is not None:
                write(f"{pads[depth - 1]}{pending}>{newline}")
            elif texts:
                write(escape_text("".join(texts)))
                texts.clear()
            depth += 1
            if depth > len(pads):
                pads.append((indent or "") * len(pads))
            pending = piece
        elif kind == TEXT:
            if pending is not None:
                write(f"{pads[depth - 1]}{pending}>")
                pending = None
            texts.append(piece)
        else:
            depth -= 1
            if depth < 0:
                raise XMLSyntaxError("unbalanced event stream")
            if pending is not None:
                write(f"{pads[depth]}{pending}/>{newline}")
                pending = None
                continue
            text = "".join(texts)
            texts.clear()
            if text:
                write(f"{escape_text(text)}{piece}{newline}")
            else:
                write(f"{pads[depth]}{piece}{newline}")
    if depth != 0 or pending is not None:
        raise XMLSyntaxError("unbalanced event stream")
    return "".join(out).rstrip("\n") + newline


def _token_pieces(events: Iterable[Token]) -> Iterator[tuple]:
    for event in events:
        if isinstance(event, StartTag):
            yield START, open_piece(event.tag, event.attrs)
        elif isinstance(event, Text):
            yield TEXT, event.text
        elif isinstance(event, EndTag):
            yield END, f"</{event.tag}>"
        else:
            raise XMLSyntaxError(f"cannot serialize token {event!r}")


def events_to_string(
    events: Iterable[Token], indent: str | None = None
) -> str:
    """Serialize a balanced Start/Text/End event stream to XML text
    (``indent`` as for :func:`serialize`)."""
    return serialize(_token_pieces(events), indent)


def element_to_string(element: Element, indent: str | None = None) -> str:
    """Serialize an element tree to XML text."""
    return events_to_string(element.to_events(), indent=indent)


def record_chunks(
    reader: RunReader,
    names=None,
    restore_ends: bool = False,
    indent: str | None = None,
) -> Iterator[str]:
    """The XML text of a stored document's records, in chunks of bounded
    size (see ``_CHUNK_PIECES``): the text :func:`serialize` lays out for
    the document's tokens.

    Walks each loaded buffer's framed records in place
    (:meth:`~repro.io.runs.RunReader.loaded`); a record that needs a load
    comes through :meth:`~repro.io.runs.RunReader.read_record`, so every
    load happens where a record-at-a-time reader's would.  ``names`` is
    the document's name dictionary (None for plain names).  Key and
    position annotations are skipped; stored end records close the
    innermost open element.  With ``restore_ends`` (end tags eliminated)
    levels close elements instead, by the rule of
    :func:`~repro.xml.compact.restore_end_tags`.  The text of each
    distinct start record without key or position is memoized.

    Raises:
        CodecError: on a malformed record, or one text cannot show.
        XMLSyntaxError: when the records leave an element open.
    """
    # start record -> its pieces: (open tag, self-closed line, close
    # line, level)
    starts: dict[bytes, tuple] = {}
    closes: list[str] = []  # the open elements' close lines
    levels: list[int] = []  # the open elements' levels, with restore_ends
    out: list[str] = []
    write = out.append
    newline = "" if indent is None else "\n"
    pads = [""]  # pads[d]: the indentation of an element at depth d + 1
    padded = 1  # len(pads)
    depth = 0
    pending = None  # the pieces of a start whose '>' or '/>' is undecided
    has_text = False  # text written since the innermost start or end
    header = FRAME_HEADER
    unpack = unpack_frame_header
    spanning = None  # a framed record read through read_record
    try:
        while True:
            if spanning is None:
                buffer, intra, limit = reader.loaded()
            else:
                buffer, intra, limit = spanning, 0, len(spanning)
            while intra + header <= limit:
                (length,) = unpack(buffer, intra)
                p = intra + header
                end = p + length
                if end > limit:
                    break
                intra = end
                kind = buffer[p] if length else 0
                if kind == TYPE_END and closes and not restore_ends:
                    to_close = 1
                elif kind == TYPE_START:
                    record = buffer[p:end]
                    entry = starts.get(record)
                    if entry is None:
                        entry = _start_pieces(record, names, newline)
                        if not record[1] & 3:
                            if len(starts) >= _MEMO_LIMIT:
                                starts.clear()
                            starts[record] = entry
                    to_close = 0
                    if restore_ends:
                        level = entry[3]  # closes the open elements this deep
                        if level is None:
                            raise CodecError("compacted start without a level")
                        while levels and levels[-1] >= level:
                            levels.pop()
                            to_close += 1
                        levels.append(level)
                elif kind == TYPE_TEXT:
                    start = p + 2
                    size = buffer[start]
                    if size < 0x80:
                        start += 1
                    else:
                        size, start = read_varint_fast(buffer, start)
                    stop = start + size
                    if stop > end:
                        raise CodecError("truncated string")
                    text = buffer[start:stop].decode("utf-8")
                    to_close = 0
                    if restore_ends and buffer[p + 1] & 4:
                        # A text closes the elements deeper than its owner.
                        level, stop = read_varint_fast(buffer, stop)
                        if stop > end:
                            raise CodecError("truncated text level")
                        while levels and levels[-1] > level:
                            levels.pop()
                            to_close += 1
                elif buffer is _CLOSE_ALL:
                    to_close = len(closes)
                    levels.clear()
                else:
                    raise CodecError(f"cannot serialize record type {kind}")
                while to_close:
                    to_close -= 1
                    depth -= 1
                    close = closes.pop()
                    if pending is not None:
                        write(pads[depth])
                        write(pending[1])
                        pending = None
                    elif has_text:
                        write(close)
                        has_text = False
                    else:
                        write(pads[depth])
                        write(close)
                if kind == TYPE_START:
                    if pending is not None:
                        write(pads[depth - 1])
                        write(pending[0])
                        write(newline)
                    depth += 1
                    if depth > padded:
                        pads.append((indent or "") * padded)
                        padded += 1
                    pending = entry
                    closes.append(entry[2])
                    has_text = False
                elif kind == TYPE_TEXT:
                    if pending is not None:
                        write(pads[depth - 1])
                        write(pending[0])
                        pending = None
                    if text:
                        write(escape_text(text))
                        has_text = True
            if spanning is not None:
                spanning = None
            else:
                reader.consume_to(intra)
                record = reader.read_record()
                if record is not None:
                    spanning = frame_records([record])[0]
                elif restore_ends and closes:
                    # The end of a compacted stream closes every open
                    # element.
                    spanning = _CLOSE_ALL
                else:
                    break
            if len(out) >= _CHUNK_PIECES:
                yield "".join(out)
                out.clear()
    except (IndexError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed document record: {exc}") from None
    if closes:
        raise XMLSyntaxError("unbalanced event stream")
    yield "".join(out)


def _start_pieces(record: bytes, names, newline: str) -> tuple:
    """(open tag, self-closed line, close line, level) of a start record,
    for :func:`record_chunks`."""
    tag, attrs, _ = read_tag_attrs(record, 2, names)
    piece = open_piece(tag, attrs)
    return (
        f"{piece}>",
        f"{piece}/>{newline}",
        f"</{tag}>{newline}",
        record_level(record, names is not None),
    )
