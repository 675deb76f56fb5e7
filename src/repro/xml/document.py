"""Disk-resident XML documents.

A :class:`Document` is a token stream stored on the simulated block device
(one codec record per token), plus the structural metadata the analysis
needs (element count ``N``, maximum fan-out ``k``, height).  Scanning a
document costs real, counted block reads - this is the ``O(N/B)`` "reading
the input" term of Theorem 4.5.

Text is loaded and emitted without token objects: :meth:`from_string` and
:meth:`from_file` write the tokenizer's constructs straight to the records
``TokenCodec.encode`` would build (one start record memoized per distinct
raw tag), measuring the document on the way, and :meth:`to_string`
serializes straight from the records.  :meth:`from_events` and
:meth:`from_element` keep the token path for generators and trees.

Documents can be stored plain or compacted
(:class:`~repro.xml.compact.CompactionConfig`); either way,
:meth:`Document.iter_events` always yields a *full* Start/Text/End event
stream, synthesizing end tags from level transitions when they were
eliminated on disk, so consumers are storage-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import XMLSyntaxError
from ..io.device import BlockDevice
from ..io.runs import RunHandle, RunStore
from .codec import TokenCodec, encode_name, encode_varint, write_tag_attrs
from .parser import START, TEXT, tokenize
from .streaming import DEFAULT_CHUNK_CHARS, read_chunks
from .tokens import EndTag, StartTag, Text, Token
from .writer import record_pieces, serialize

if TYPE_CHECKING:
    from .compact import CompactionConfig
    from .model import Element

#: Distinct raw tags whose start records the loader remembers at once.
_MEMO_LIMIT = 1 << 13
#: Records the loader buffers per framing call.
_BATCH = 1024


@dataclass
class DocumentStats:
    """Structural measurements taken while a document is stored."""

    element_count: int = 0
    max_fanout: int = 0
    height: int = 0
    text_count: int = 0
    root_tag: str = ""


class Document:
    """A token stream on the device, with structural metadata."""

    def __init__(
        self,
        store: RunStore,
        handle: RunHandle,
        stats: DocumentStats,
        compaction: CompactionConfig | None = None,
    ):
        self.store = store
        self.handle = handle
        self.stats = stats
        self.compaction = compaction
        self.codec = TokenCodec(compaction.names if compaction else None)

    # -- properties mirroring the paper's parameters ------------------------

    @property
    def device(self) -> BlockDevice:
        return self.store.device

    @property
    def element_count(self) -> int:
        """The paper's ``N``."""
        return self.stats.element_count

    @property
    def max_fanout(self) -> int:
        """The paper's ``k``."""
        return self.stats.max_fanout

    @property
    def height(self) -> int:
        return self.stats.height

    @property
    def block_count(self) -> int:
        """The paper's ``n = N/B`` (blocks occupied by this document)."""
        return self.handle.block_count

    @property
    def payload_bytes(self) -> int:
        return self.handle.payload_bytes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        store: RunStore,
        events: Iterable[Token],
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Store an event stream as a document, measuring it on the way."""
        codec = TokenCodec(compaction.names if compaction else None)
        writer = store.create_writer(category)
        stats = DocumentStats()
        open_children: list[int] = []

        measured = cls._measure(events, stats, open_children)
        if compaction is not None and compaction.eliminate_end_tags:
            from .compact import eliminate_end_tags

            stored: Iterable[Token] = eliminate_end_tags(measured)
        else:
            stored = measured
        for token in stored:
            writer.write_record(codec.encode(token))
        handle = writer.finish()
        if stats.element_count == 0:
            raise XMLSyntaxError("cannot store an empty document")
        return cls(store, handle, stats, compaction)

    @staticmethod
    def _measure(
        events: Iterable[Token],
        stats: DocumentStats,
        open_children: list[int],
    ) -> Iterator[Token]:
        depth = 0
        for event in events:
            if isinstance(event, StartTag):
                if depth == 0:
                    if stats.element_count:
                        raise XMLSyntaxError("multiple root elements")
                    stats.root_tag = event.tag
                else:
                    open_children[-1] += 1
                    if open_children[-1] > stats.max_fanout:
                        stats.max_fanout = open_children[-1]
                open_children.append(0)
                depth += 1
                stats.element_count += 1
                if depth > stats.height:
                    stats.height = depth
            elif isinstance(event, EndTag):
                open_children.pop()
                depth -= 1
            elif isinstance(event, Text):
                stats.text_count += 1
            yield event
        if depth != 0:
            raise XMLSyntaxError("unbalanced event stream while storing")

    @classmethod
    def from_string(
        cls,
        store: RunStore,
        text: str,
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Parse XML text and store it as a document."""
        return cls(
            store, *_store(store, tokenize((text,)), compaction, category),
            compaction,
        )

    @classmethod
    def from_file(
        cls,
        store: RunStore,
        path: str,
        compaction: CompactionConfig | None = None,
        category: str = "load",
        chunk_chars: int | None = None,
    ) -> "Document":
        """Stream an XML file onto the device without loading it whole:
        memory stays bounded by the chunk size regardless of file size."""
        with open(path, "r", encoding="utf-8") as handle:
            chunks = read_chunks(handle, chunk_chars or DEFAULT_CHUNK_CHARS)
            stored = _store(store, tokenize(chunks), compaction, category)
        return cls(store, *stored, compaction)

    @classmethod
    def from_element(
        cls,
        store: RunStore,
        element: Element,
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Store an element tree as a document."""
        return cls.from_events(
            store, element.to_events(), compaction, category
        )

    # -- reading -----------------------------------------------------------

    def iter_tokens(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield the raw stored tokens (no end tags in compacted mode)."""
        reader = self.store.open_reader(self.handle, category=category)
        for record in reader:
            yield self.codec.decode(record)

    def iter_events(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield a full Start/Text/End event stream regardless of storage."""
        tokens = self.iter_tokens(category)
        if self.compaction is not None and self.compaction.eliminate_end_tags:
            from .compact import restore_end_tags

            return restore_end_tags(tokens)
        return tokens

    def to_element(self, category: str = "export") -> Element:
        """Materialize the document as an in-memory tree."""
        from .model import Element

        return Element.from_events(self.iter_events(category))

    def to_string(
        self, indent: str | None = None, category: str = "export"
    ) -> str:
        """Serialize the document back to XML text, straight from its
        records (same text as ``events_to_string(iter_events())``)."""
        reader = self.store.open_reader(self.handle, category=category)
        return serialize(
            record_pieces(
                record_batches(reader),
                self.codec.names,
                self.compaction is not None
                and self.compaction.eliminate_end_tags,
            ),
            indent,
        )

    def free(self) -> None:
        """Release the document's blocks (bookkeeping only)."""
        self.store.free(self.handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Document(N={self.element_count}, k={self.max_fanout}, "
            f"height={self.height}, blocks={self.block_count})"
        )


def record_batches(reader):
    """A reader's records in lists, a buffered block at a time, loading
    blocks exactly when ``read_record`` would: the record that needs the
    next block comes alone, through ``read_record``."""
    while True:
        batch = reader.read_available_records()
        if not batch:
            record = reader.read_record()
            if record is None:
                return
            batch = [record]
        yield batch


def _store(
    store: RunStore, constructs, compaction: CompactionConfig | None, category
) -> tuple[RunHandle, DocumentStats]:
    """Write tokenizer constructs as records, measuring on the way: the
    bytes and name-interning order ``from_events`` has for their tokens."""
    names = compaction.names if compaction else None
    levels = compaction is not None and compaction.eliminate_end_tags
    writer = store.create_writer(category)
    start_head = b"\x01\x04" if levels else b"\x01\x00"
    text_head = b"\x02\x04" if levels else b"\x02\x00"
    starts: dict[str, bytes] = {}  # raw tag -> start record (no level)
    ends: dict[str, bytes] = {}  # name -> end record
    open_children: list[int] = []  # children so far, per open element
    out: list[bytes] = []
    append = out.append
    root = ""
    elements = texts = height = fanout = depth = 0
    for construct in constructs:
        kind = construct[0]
        name = None  # set when an element closes
        if kind == START:
            record = starts.get(construct[1])
            if record is None:
                head = bytearray(start_head)
                write_tag_attrs(head, construct[2], construct[3], names)
                record = bytes(head)
                if len(starts) >= _MEMO_LIMIT:
                    starts.clear()
                starts[construct[1]] = record
            if depth:
                children = open_children[-1] + 1
                open_children[-1] = children
                if children > fanout:
                    fanout = children
            else:
                root = construct[2]
            elements += 1
            depth += 1
            if depth > height:
                height = depth
            append(record + encode_varint(depth) if levels else record)
            if construct[4]:
                name = construct[2]
                depth -= 1
            else:
                open_children.append(0)
        elif kind == TEXT:
            texts += 1
            data = construct[1].encode("utf-8")
            record = text_head + encode_varint(len(data)) + data
            if levels:
                record += encode_varint(depth)
            append(record)
        else:
            name = construct[1]
            open_children.pop()
            depth -= 1
        if name is not None and not levels:
            record = ends.get(name)
            if record is None:
                record = ends[name] = b"\x03\x00" + encode_name(name, names)
            append(record)
        if len(out) >= _BATCH:
            writer.write_records(out)
            out.clear()
    writer.write_records(out)
    stats = DocumentStats(elements, fanout, height, texts, root)
    return writer.finish(), stats
