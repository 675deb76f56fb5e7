"""The key-path representation of XML (paper Section 1, Table 1).

The key path of an element is "the concatenation of the sort key values of
all elements along the path from the root"; sorting key-path records with a
flat-file algorithm yields the fully sorted document, because a parent's
path is a strict prefix of its children's paths and therefore sorts first.
Uniqueness among siblings is guaranteed by appending the element's document
position to each path component (paper: "appending it with the element's
location in the input").

A :class:`KeyPathRecord` carries one element: its path (a tuple of
``(key_atom, position)`` components, root first) and its payload - either
the element's tag/attributes/text, or a pointer to an already-sorted run
(NEXSORT uses key-path sorting for subtrees too large for memory, and such
subtrees can contain collapsed children).

This module provides record generation from annotated event streams,
encoding/decoding for device storage, the sorted-records-to-token-stream
decoder, and the pretty key-path table of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import CodecError, SortSpecError
from ..keys import KeyEvaluator, SortSpec
from ..xml.codec import (
    decode_key_atom,
    encode_key_atom,
    read_tag_attrs,
    read_varint,
    write_tag_attrs,
    write_varint,
)
from ..xml.compact import NameDictionary
from ..xml.tokens import (
    EndTag,
    KeyAtom,
    RunPointer,
    StartTag,
    Text,
    Token,
)

_KIND_ELEMENT = 1
_KIND_POINTER = 2

#: Path component: (key atom, document position).
PathComponent = tuple[KeyAtom, int]


@dataclass(frozen=True)
class KeyPathRecord:
    """One element (or collapsed subtree) of the key-path representation."""

    path: tuple[PathComponent, ...]
    tag: str = ""
    attrs: tuple[tuple[str, str], ...] = ()
    text: str = ""
    run_id: int | None = None
    element_count: int = 0
    payload_bytes: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.run_id is not None

    @property
    def depth(self) -> int:
        return len(self.path)

    def sort_key(self) -> tuple[PathComponent, ...]:
        return self.path


def records_from_annotated_events(
    events: Iterable[Token],
) -> Iterator[KeyPathRecord]:
    """Generate key-path records from a key-annotated event stream.

    The stream must carry keys on *start tags* (start-computable specs): a
    child's path needs its ancestors' keys while those ancestors are still
    open, which is exactly why the external merge sort baseline cannot
    handle subtree-evaluated criteria (paper Section 1) while NEXSORT can.

    An element's record is emitted when the element closes (at its end
    tag, once all of its text is known), so elements come out in
    postorder; a pointer's record is emitted where the pointer appears.
    Run formation sees records in this order, which is why the byte-record
    twins (:func:`repro.core.columnar.form_runs_columnar`,
    :func:`repro.core.columnar.form_subtree_runs`) keep it.
    """
    path: list[PathComponent] = []
    pending_text: list[list[str]] = []
    pending: list[KeyPathRecord | None] = []

    def flush(index: int) -> KeyPathRecord | None:
        record = pending[index]
        if record is None:
            return None
        text = "".join(pending_text[index])
        pending[index] = None
        if text:
            return KeyPathRecord(
                path=record.path,
                tag=record.tag,
                attrs=record.attrs,
                text=text,
            )
        return record

    for event in events:
        if isinstance(event, StartTag):
            if event.key is None or event.pos is None:
                raise SortSpecError(
                    "key-path records need keys on start tags; use a "
                    "start-computable SortSpec (the paper's merge-sort "
                    "baseline has the same restriction)"
                )
            # Text may follow children, so the record is only final at
            # the matching end tag; keep it pending until then.
            path.append((event.key, event.pos))
            pending.append(
                KeyPathRecord(
                    path=tuple(path), tag=event.tag, attrs=event.attrs
                )
            )
            pending_text.append([])
        elif isinstance(event, Text):
            if pending_text:
                pending_text[-1].append(event.text)
        elif isinstance(event, EndTag):
            record = flush(len(pending) - 1)
            if record is not None:
                yield record
            pending.pop()
            pending_text.pop()
            path.pop()
        elif isinstance(event, RunPointer):
            if event.key is None or event.pos is None:
                raise CodecError("run pointer without key annotations")
            yield KeyPathRecord(
                path=tuple(path) + ((event.key, event.pos),),
                run_id=event.run_id,
                element_count=event.element_count,
                payload_bytes=event.payload_bytes,
            )
        else:  # pragma: no cover - defensive
            raise CodecError(f"unexpected token {event!r}")


def records_from_document_scan(
    document, spec: SortSpec, category: str = "input_scan"
) -> Iterator[KeyPathRecord]:
    """Scan a document and generate its key-path records."""
    evaluator = KeyEvaluator(spec)
    annotated = evaluator.annotate(document.iter_events(category))
    return records_from_annotated_events(annotated)


# -- encoding ---------------------------------------------------------------


def encode_record(
    record: KeyPathRecord, names: NameDictionary | None = None
) -> bytes:
    out = bytearray()
    out.append(_KIND_POINTER if record.is_pointer else _KIND_ELEMENT)
    write_varint(out, len(record.path))
    for atom, pos in record.path:
        encode_key_atom(out, atom)
        write_varint(out, pos)
    if record.is_pointer:
        write_varint(out, record.run_id)
        write_varint(out, record.element_count)
        write_varint(out, record.payload_bytes)
        return bytes(out)
    write_tag_attrs(out, record.tag, record.attrs, names)
    _write_str(out, record.text)
    return bytes(out)


def decode_record(
    data: bytes, names: NameDictionary | None = None
) -> KeyPathRecord:
    kind = data[0]
    depth, pos = read_varint(data, 1)
    path = []
    for _ in range(depth):
        atom, pos = decode_key_atom(data, pos)
        position, pos = read_varint(data, pos)
        path.append((atom, position))
    if kind == _KIND_POINTER:
        run_id, pos = read_varint(data, pos)
        element_count, pos = read_varint(data, pos)
        payload_bytes, pos = read_varint(data, pos)
        return KeyPathRecord(
            path=tuple(path),
            run_id=run_id,
            element_count=element_count,
            payload_bytes=payload_bytes,
        )
    if kind != _KIND_ELEMENT:
        raise CodecError(f"unknown key-path record kind {kind}")
    tag, attrs, pos = read_tag_attrs(data, pos, names)
    text, pos = _read_str(data, pos)
    return KeyPathRecord(path=tuple(path), tag=tag, attrs=attrs, text=text)


def _write_str(out: bytearray, value: str) -> None:
    encoded = value.encode("utf-8")
    write_varint(out, len(encoded))
    out += encoded


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = read_varint(data, pos)
    end = pos + length
    return data[pos:end].decode("utf-8"), end


# -- decoding sorted records back to a token stream --------------------------


def tokens_from_sorted_records(
    records: Iterable[KeyPathRecord],
    base_level: int = 1,
    emit_end_tags: bool = True,
) -> Iterator[Token]:
    """Turn a path-sorted record stream back into a document token stream.

    Because a parent's path strictly prefixes (and therefore precedes) its
    children's, each record opens exactly one element one level below some
    ancestor already open.  Levels are absolute: ``base_level`` is the level
    of depth-1 records (1 for whole documents; the subtree root's level when
    NEXSORT key-path-sorts an oversized subtree).

    With ``emit_end_tags=False`` the stream is the compacted form (levels on
    starts, no ends), for documents stored with end-tag elimination.
    """
    open_tags: list[str] = []
    for record in records:
        depth = record.depth
        if depth == 0:
            raise CodecError("key-path record with empty path")
        while len(open_tags) >= depth:
            tag = open_tags.pop()
            if emit_end_tags:
                yield EndTag(tag)
        if len(open_tags) != depth - 1:
            raise CodecError(
                "key-path records out of order: jumped from depth "
                f"{len(open_tags)} to {depth}"
            )
        level = base_level + depth - 1
        if record.is_pointer:
            yield RunPointer(
                run_id=record.run_id,
                level=level,
                element_count=record.element_count,
                payload_bytes=record.payload_bytes,
            )
        else:
            yield StartTag(record.tag, record.attrs, level=level)
            if record.text:
                yield Text(record.text)
            open_tags.append(record.tag)
    while open_tags:
        tag = open_tags.pop()
        if emit_end_tags:
            yield EndTag(tag)


# -- Table 1 -----------------------------------------------------------------


def format_key_path(record: KeyPathRecord) -> str:
    """Human-readable path, like Table 1's ``/AC/Durham/323/name``."""
    parts = []
    for atom, _pos in record.path[1:]:  # the root's own component is "/"
        kind, value = atom
        if kind == 0:
            parts.append("")
        elif kind == 1:
            parts.append(str(int(value)) if value == int(value) else str(value))
        else:
            parts.append(str(value))
    return "/" + "/".join(parts) if parts else "/"


def key_path_table(document, spec: SortSpec) -> list[tuple[str, str]]:
    """The (key path, element content) rows of Table 1 for a document.

    Rows appear in document order (preorder), with key paths rendered the
    way the paper prints them.  Sorting these rows lexicographically is
    exactly what external merge sort does.
    """
    root = document.to_element()
    rows: list[tuple[str, str]] = []

    def visit(element, path: str) -> None:
        atom = spec.key_of_element(element)
        kind, value = atom
        if kind == 0:
            component = ""
        elif kind == 1:
            component = (
                str(int(value)) if value == int(value) else str(value)
            )
        else:
            component = str(value)
        here = "/" if not path and not rows else f"{path}/{component}"
        if not rows:
            here = "/"
        content = f"<{element.tag}"
        for name, attr_value in element.attrs.items():
            content += f' {name}="{attr_value}"'
        content += ">"
        if element.text:
            content += element.text
        rows.append((here, content))
        child_prefix = "" if here == "/" else here
        for child in element.children:
            visit(child, child_prefix)

    visit(root, "")
    return rows
