"""The XML tokenizer: one chunked, regex-driven, event-based scan.

The paper's scanning loop "can be implemented using a simple event-based XML
parser (e.g., SAX)" (Section 3.1).  :func:`tokenize` is that parser and the
package's only XML grammar.  It consumes text chunks and yields one tuple
per construct: ``(START, raw, name, attrs, self_closing)`` (``raw`` is the
tag's text between ``<`` and ``>``), ``(TEXT, text)`` and ``(END, name)``.
Tags are matched by one quote-aware regex, attributes by a second that must
cover the whole attribute region; comments, CDATA, PIs and the DOCTYPE
(with its ``[...]`` subset) are found with ``str.find``.  Only the
unconsumed tail is carried from one chunk to the next, so memory stays
bounded by the chunk size plus the largest construct, and each distinct raw
tag is parsed once (a bounded memo).

Checks: names (first character a letter, ``_`` or ``:``; then letters,
digits or ``_:-.``; namespace prefixes are part of the name), quoted unique
attributes, the five predefined entities and legal character references,
tag balance, one root and no text outside it.  A leading byte-order mark is
skipped.  Violations raise :class:`~repro.errors.XMLSyntaxError` with the
offset and 1-based line of the offending construct.

:func:`parse_events` yields :class:`~repro.xml.tokens.Token` objects for
the API, :meth:`Element.parse` and the merge applications; documents write
records straight from the tuples (:meth:`Document.from_string`).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from ..errors import XMLSyntaxError
from .tokens import EndTag, StartTag, Text, Token

#: Construct kinds: the first field of every tuple :func:`tokenize` yields.
START, TEXT, END = 0, 1, 2

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# One tag: everything up to the first '>' outside a quoted value.
_TAG = re.compile(r"""<([^>"']*(?:(?:"[^"]*"|'[^']*')[^>"']*)*)>""")
# ``\w`` is exactly ``str.isalnum()`` plus '_': the name characters.
_NAME = re.compile(r"[\w:.\-]+")
# One attribute; the attribute region is a run of them plus whitespace.
_ATTR_TEXT = r"""[ \t\r\n]*([\w:.\-]+)[ \t\r\n]*=[ \t\r\n]*"""
_ATTR_TEXT += r"""(?:"([^"]*)"|'([^']*)')"""
_ATTR = re.compile(_ATTR_TEXT)
_ATTRS = re.compile(f"(?:{_ATTR_TEXT})*[ \\t\\r\\n]*")
_SPACE = re.compile(r"[ \t\r\n]*")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
_DIGITS = {10: re.compile(r"[0-9]+"), 16: re.compile(r"[0-9a-fA-F]+")}

#: Distinct raw tags remembered before the memo starts over.
_MEMO_LIMIT = 1 << 13


class _Malformed(Exception):
    """``(message, offset)``: a violation at that offset of the buffer."""


def _is_name(name: str) -> bool:
    return name[0].isalpha() or name[0] in "_:"


def _char_reference(entity: str) -> str | None:
    """The character ``&entity;`` denotes, or None if it denotes none."""
    base = 16 if entity[1:2] in ("x", "X") else 10
    digits = entity[2:] if base == 16 else entity[1:]
    # More significant digits than U+10FFFF has are out of range (and
    # would make int() parse arbitrarily long strings).
    if not _DIGITS[base].fullmatch(digits) or len(digits.lstrip("0")) > 7:
        return None
    code = int(digits, base)
    legal = (  # XML 1.0 Char
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )
    return chr(code) if legal else None


def _decode_references(raw: str, at: int) -> str:
    """``raw`` (found at offset ``at``) with its references decoded."""
    parts = []
    pos = 0
    while (amp := raw.find("&", pos)) >= 0:
        parts.append(raw[pos:amp])
        semi = raw.find(";", amp)
        entity = raw[amp + 1 : semi]
        if semi < 0:
            char = None
        elif entity.startswith("#"):
            char = _char_reference(entity)
        else:
            char = _ENTITIES.get(entity)
        if char is None:
            raise _Malformed("malformed or unknown reference", at + amp)
        parts.append(char)
        pos = semi + 1
    parts.append(raw[pos:])
    return "".join(parts)


def _parse_tag(raw: str, at: int) -> tuple:
    """The construct tuple of a tag's text ``raw``, found at offset ``at``
    (just past its ``<``)."""
    closing = raw[:1] == "/"
    match = _NAME.match(raw, 1 if closing else 0)
    if match is None or not _is_name(match.group()):
        raise _Malformed("expected a name", at)
    name, rest = match.group(), raw[match.end() :]
    if closing:
        if not _SPACE.fullmatch(rest):
            raise _Malformed("expected '>'", at)
        return (END, name)
    self_closing = rest.endswith("/")
    if self_closing:
        rest = rest[:-1]
    if not _ATTRS.fullmatch(rest):
        raise _Malformed("malformed attributes (names, '=', quotes)", at)
    attrs = []
    at += match.end()
    for attr in _ATTR.finditer(rest):
        key = attr.group(1)
        if not _is_name(key) or any(key == seen for seen, _ in attrs):
            raise _Malformed(f"bad or duplicate attribute {key!r}", at)
        group = 2 if attr.group(2) is not None else 3
        value = attr.group(group)
        if "&" in value:
            value = _decode_references(value, at + attr.start(group))
        attrs.append((key, value))
    return (START, raw, name, tuple(attrs), self_closing)


def tokenize(
    chunks: Iterable[str], strip_whitespace: bool = True
) -> Iterator[tuple]:
    """Yield one construct tuple per start tag, text run and end tag.

    Args:
        chunks: the document text, in pieces of any size.
        strip_whitespace: drop character data that is entirely whitespace
            (indentation); other character data is kept verbatim.

    Raises:
        XMLSyntaxError: on any well-formedness violation.
    """
    chunks = iter(chunks)
    buf = next((chunk for chunk in chunks if chunk), "")
    size, eof, more = len(buf), not buf, False
    pos = 1 if buf.startswith("\ufeff") else 0
    dropped, lines = 0, 1  # document offset and line of buf[0]
    tags: dict[str, tuple] = {}
    open_tags: list[str] = []
    seen_root = False
    tag_match = _TAG.match
    try:
        while True:
            if more:  # carry the unconsumed tail over into the next chunk
                more = False
                chunk = next(chunks, None)
                if chunk is None:
                    eof = True
                else:
                    lines += buf.count("\n", 0, pos)
                    dropped += pos
                    buf = buf[pos:] + chunk
                    size, pos = len(buf), 0
            lt = buf.find("<", pos)
            if lt < 0 or lt + 9 > size:
                # Text may run on, and a construct needs its first 9
                # characters to be told apart, past the end of the chunk.
                if not eof:
                    more = True
                    continue
                if lt < 0:
                    lt = size
            if lt > pos:
                text = buf[pos:lt]
                if "&" in text:
                    text = _decode_references(text, pos)
                if open_tags:
                    if not strip_whitespace or not text.isspace():
                        yield (TEXT, text)
                elif not text.isspace():
                    raise _Malformed("text outside the root element", pos)
                pos = lt
            if lt == size:
                break
            marker = buf[lt + 1 : lt + 2]
            if marker == "!" or marker == "?":
                close = -1
                if buf.startswith("<!--", lt):
                    what, close, skip = "comment", buf.find("-->", lt + 4), 3
                elif buf.startswith("<![CDATA[", lt):
                    what, close, skip = "CDATA", buf.find("]]>", lt + 9), 3
                    if not open_tags:
                        raise _Malformed("CDATA outside the root element", lt)
                elif marker == "?":
                    what, close, skip = "PI", buf.find("?>", lt + 2), 2
                elif buf.startswith(("<!DOCTYPE", "<!doctype"), lt):
                    what, skip, depth = "DOCTYPE", 1, 0
                    for mark in _DOCTYPE_MARK.finditer(buf, lt + 9):
                        char = mark.group()
                        if char != ">":
                            depth += 1 if char == "[" else -1
                        elif depth <= 0:
                            close = mark.start()
                            break
                else:
                    raise _Malformed("expected a name", lt + 1)
                if close < 0:
                    if eof:
                        raise _Malformed(f"unterminated {what}", lt)
                    more = True
                    continue
                if what == "CDATA":
                    yield (TEXT, buf[lt + 9 : close])
                pos = close + skip
                continue

            match = tag_match(buf, lt)
            if match is None:
                if eof:
                    raise _Malformed("unterminated tag", lt)
                more = True
                continue
            raw = match.group(1)
            construct = tags.get(raw)
            if construct is None:
                construct = _parse_tag(raw, lt + 1)
                if len(tags) >= _MEMO_LIMIT:
                    tags.clear()
                tags[raw] = construct
            if construct[0] == END:
                expected = open_tags.pop() if open_tags else None
                if construct[1] != expected:
                    raise _Malformed(
                        f"end tag <{raw}> does not close <{expected}>", lt
                    )
            else:
                if seen_root and not open_tags:
                    raise _Malformed("multiple root elements", lt)
                seen_root = True
                if not construct[4]:
                    open_tags.append(construct[2])
            yield construct
            pos = match.end()
        if open_tags:
            raise _Malformed(f"end of input inside <{open_tags[-1]}>", lt)
        if not seen_root:
            raise _Malformed("no root element", lt)
    except _Malformed as error:
        message, at = error.args
        line = lines + buf.count("\n", 0, at)
        raise XMLSyntaxError(
            message, position=dropped + at, line=line
        ) from None


def construct_events(constructs: Iterable[tuple]) -> Iterator[Token]:
    """Start/Text/End tokens for :func:`tokenize`'s construct tuples."""
    for construct in constructs:
        kind = construct[0]
        if kind == START:
            yield StartTag(construct[2], construct[3])
            if construct[4]:
                yield EndTag(construct[2])
        elif kind == TEXT:
            yield Text(construct[1])
        else:
            yield EndTag(construct[1])


def parse_events(
    text: str, strip_whitespace: bool = True
) -> Iterator[Token]:
    """Yield Start/Text/End events for a well-formed XML document.

    Args:
        text: the document text.
        strip_whitespace: drop text nodes that are entirely whitespace
            (indentation); other text is yielded verbatim.

    Raises:
        XMLSyntaxError: on any well-formedness violation.
    """
    yield from construct_events(tokenize((text,), strip_whitespace))
