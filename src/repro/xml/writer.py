"""Serializing to XML text: one state machine for tokens and records.

:func:`serialize` lays out ``(kind, piece)`` pairs - ``(START, '<tag
a="v"')`` with attributes escaped, ``(TEXT, text)`` unescaped, ``(END,
'</tag>')`` - with the indentation and self-closing rules.  Tokens
(:func:`events_to_string`, the DOM oracle's text) and stored records
(:func:`record_pieces`, :meth:`Document.to_string`) both feed it, so the
two cannot drift apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import CodecError, XMLSyntaxError
from .codec import (
    TYPE_END,
    TYPE_START,
    TYPE_TEXT,
    _read_string,
    read_tag_attrs,
    read_varint,
    record_level,
)
from .parser import END, START, TEXT
from .tokens import EndTag, StartTag, Text, Token

if TYPE_CHECKING:
    from .model import Element

#: Distinct start records remembered before the emit memo starts over.
_MEMO_LIMIT = 1 << 13


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


def record_pieces(
    batches: Iterable[list[bytes]], names=None, restore_ends: bool = False
) -> Iterator[tuple]:
    """``(kind, piece)`` pairs of a stored document's records (in lists).

    ``names`` is the document's name dictionary (None for plain names).
    Key and position annotations are skipped; stored end records close the
    innermost open element.  With ``restore_ends`` (end tags eliminated)
    levels close elements instead, by the rule of
    :func:`~repro.xml.compact.restore_end_tags`.  The pieces of each
    distinct start record without key or position are memoized.

    Raises:
        CodecError: on a malformed record, or one text cannot show.
    """
    starts: dict[bytes, tuple] = {}  # start record -> (open, close, level)
    closes: list[str] = []
    levels: list[int] = []  # the open elements' levels, with restore_ends
    try:
        for batch in batches:
            for record in batch:
                kind = record[0]
                if kind == TYPE_START:
                    entry = starts.get(record)
                    if entry is None:
                        tag, attrs, _ = read_tag_attrs(record, 2, names)
                        level = record_level(record, names is not None)
                        entry = (open_piece(tag, attrs), f"</{tag}>", level)
                        if not record[1] & 3:
                            if len(starts) >= _MEMO_LIMIT:
                                starts.clear()
                            starts[record] = entry
                    pair = (START, entry[0])
                    level = entry[2]  # closes the open elements this deep
                    if restore_ends and level is None:
                        raise CodecError("compacted start without a level")
                elif kind == TYPE_TEXT:
                    text, end = _read_string(record, 2)
                    pair = (TEXT, text)
                    # A text closes the elements deeper than its owner.
                    level = (
                        read_varint(record, end)[0] + 1
                        if record[1] & 4
                        else None
                    )
                elif kind == TYPE_END and closes and not restore_ends:
                    yield END, closes.pop()
                    continue
                else:
                    raise CodecError(f"cannot serialize record type {kind}")
                if restore_ends and level is not None:
                    while levels and levels[-1] >= level:
                        levels.pop()
                        yield END, closes.pop()
                yield pair
                if kind == TYPE_START:
                    closes.append(entry[1])
                    if restore_ends:
                        levels.append(level)
    except (IndexError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed document record: {exc}") from None
    if restore_ends:
        while closes:
            yield END, closes.pop()
