"""Incremental parsing: tokenize XML from a file without loading it whole.

:func:`read_chunks` cuts a text stream into fixed-size chunks; the
tokenizer of :mod:`repro.xml.parser` carries only the unconsumed tail from
one chunk to the next, so memory stays bounded by the chunk size plus the
largest single construct and an arbitrarily large file flows straight onto
the block device (:meth:`Document.from_file`).
"""

from __future__ import annotations

from typing import IO, Iterator

from ..errors import XMLSyntaxError
from .parser import construct_events, tokenize
from .tokens import Token

DEFAULT_CHUNK_CHARS = 64 * 1024


def read_chunks(stream: IO[str], chunk_chars: int) -> Iterator[str]:
    """The stream's text, ``chunk_chars`` characters at a time; a file
    that is not valid UTF-8 raises :class:`XMLSyntaxError`."""
    while True:
        try:
            chunk = stream.read(chunk_chars)
        except UnicodeDecodeError as exc:
            raise XMLSyntaxError(f"input is not valid UTF-8: {exc}") from None
        if not chunk:
            return
        yield chunk


def parse_events_incremental(
    stream: IO[str],
    strip_whitespace: bool = True,
    chunk_chars: int = DEFAULT_CHUNK_CHARS,
) -> Iterator[Token]:
    """Yield Start/Text/End events from a text stream, incrementally.

    Equal to ``parse_events(stream.read(), strip_whitespace)`` for every
    chunk size, errors (offset and line) included, with memory bounded by
    the chunk size plus the largest single construct.
    """
    yield from construct_events(
        tokenize(read_chunks(stream, chunk_chars), strip_whitespace)
    )
