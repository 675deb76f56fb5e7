"""Ordering by IDREF-resolved keys (the paper's future work, Section 3.2).

"The above approach does not work ... if the ordering expression
references data other than e's descendents and ancestors (e.g., an XPath
expression that follows IDREFs).  We plan to investigate such ordering
expressions as future work."

This module implements that future work with the classic external-memory
semi-join, never holding the ID space in memory:

1. one scan extracts two record streams: ``(id value, key atom)`` for
   every element carrying the ID attribute, and ``(position, idref
   value)`` for every element whose ordering follows a reference;
2. both streams are sorted by id (run formation + multiway merge, all
   counted I/O) and merge-joined into ``(position, resolved key)``;
3. the join result is re-sorted by position, giving a key stream aligned
   with document order;
4. a second scan rewrites the document, attaching each resolved key as a
   temporary attribute; the rewritten document then sorts with ordinary
   NEXSORT, and the attribute is stripped from the output.

Total extra cost: two extra passes over the document plus the (much
smaller) sorts of the reference streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..baselines.merging import merge_to_stream
from ..errors import SortSpecError
from ..io.runs import RunHandle, RunStore
from ..keys import ByAttribute, KeyRule, SortSpec
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import DEFAULT_MERGE_OPTIONS, MergeOptions, RunFormer
from ..xml.codec import (
    decode_key_atom,
    encode_key_atom,
    read_varint,
    write_varint,
)
from ..xml.document import Document
from ..xml.tokens import KeyAtom, MISSING_KEY, StartTag, Token
from .nexsort import NexsortReport, nexsort

#: Temporary attribute carrying resolved keys through the sort.
RESOLVED_ATTRIBUTE = "__resolved"


def sortable_atom_string(atom: KeyAtom) -> str:
    """Render a key atom as a string whose lexicographic order matches
    the atom order (missing < numbers < strings; numbers numerically).

    Numbers use the IEEE-754 order-preserving bit trick: flip the sign
    bit for non-negatives, all bits for negatives, and hex-encode.
    """
    import struct

    kind, value = atom
    if kind == 0:
        return "0"
    if kind == 1:
        value = float(value)
        if value == 0.0:
            value = 0.0  # normalize -0.0 (equal values, distinct bits)
        bits = struct.unpack(">Q", struct.pack(">d", value))[0]
        if bits & (1 << 63):
            bits ^= (1 << 64) - 1  # negative: invert everything
        else:
            bits ^= 1 << 63  # non-negative: flip the sign bit
        return f"1{bits:016x}"
    return f"2{value}"


@dataclass(frozen=True)
class ByIdRef(KeyRule):
    """Order elements by a key looked up through an IDREF.

    Args:
        reference_attribute: the IDREF attribute on the ordered elements
            (e.g. ``managerRef``).
        id_attribute: the ID attribute on the referenced elements
            (e.g. ``id``).
        target_rule: how to key a referenced element (defaults to its
            ``name`` attribute).

    Not evaluable in a single pass (the reference may point anywhere in
    the document), so plain NEXSORT rejects it; use
    :func:`nexsort_with_idrefs`.
    """

    reference_attribute: str
    id_attribute: str = "id"
    target_rule: KeyRule | None = None
    start_computable = False

    def resolved_target_rule(self) -> KeyRule:
        return self.target_rule or ByAttribute("name")

    def key_of_element(self, element) -> KeyAtom:
        raise SortSpecError(
            "ByIdRef keys need the document-wide resolution pass; "
            "sort with nexsort_with_idrefs()"
        )


# -- record encodings ---------------------------------------------------------


def _encode_id_key(identifier: str, key: KeyAtom) -> bytes:
    out = bytearray()
    data = identifier.encode("utf-8")
    write_varint(out, len(data))
    out += data
    encode_key_atom(out, key)
    return bytes(out)


def _decode_id_key(record: bytes) -> tuple[str, KeyAtom]:
    length, pos = read_varint(record, 0)
    identifier = record[pos : pos + length].decode("utf-8")
    key, _ = decode_key_atom(record, pos + length)
    return identifier, key


def _encode_pos_ref(position: int, reference: str) -> bytes:
    out = bytearray()
    write_varint(out, position)
    data = reference.encode("utf-8")
    write_varint(out, len(data))
    out += data
    return bytes(out)


def _decode_pos_ref(record: bytes) -> tuple[int, str]:
    position, pos = read_varint(record, 0)
    length, pos = read_varint(record, pos)
    return position, record[pos : pos + length].decode("utf-8")


def _encode_pos_key(position: int, key: KeyAtom) -> bytes:
    out = bytearray()
    write_varint(out, position)
    encode_key_atom(out, key)
    return bytes(out)


def _decode_pos_key(record: bytes) -> tuple[int, KeyAtom]:
    position, pos = read_varint(record, 0)
    key, _ = decode_key_atom(record, pos)
    return position, key


def _id_of(record: bytes) -> str:
    return _decode_id_key(record)[0]


def _ref_of(record: bytes) -> str:
    return _decode_pos_ref(record)[1]


def _pos_of(record: bytes) -> int:
    return _decode_pos_key(record)[0]


# -- the resolution passes ----------------------------------------------------


def _sorted_run(
    store: RunStore,
    records: Iterator[bytes],
    key_of,
    capacity_bytes: int,
    fan_in: int,
    options: MergeOptions,
    tracer: Tracer | None = None,
    label: str = "idref",
) -> list[RunHandle]:
    """Form sorted runs of a record stream under the memory budget."""
    former = RunFormer(
        store, capacity_bytes, options, write_category="idref_sort",
        tracer=tracer,
    )
    with maybe_span(tracer, "run-formation", stream=label) as span:
        for record in records:
            former.add(key_of(record), record)
        runs = former.finish()
        if span is not None:
            span.set(runs=len(runs))
    return runs


def _merged_stream(
    store: RunStore,
    runs: list[RunHandle],
    key_of,
    fan_in: int,
    options: MergeOptions,
    tracer: Tracer | None = None,
) -> Iterator[bytes]:
    """Merge id/ref/pos runs into one record stream."""
    stream, _passes, _width = merge_to_stream(
        store,
        runs,
        key_of,
        fan_in,
        "idref_merge",
        "idref_sort",
        options=options,
        tracer=tracer,
    )
    return stream


def resolve_idref_keys(
    document: Document,
    spec: SortSpec,
    memory_blocks: int = 16,
    merge_options: MergeOptions | None = None,
    tracer: Tracer | None = None,
) -> Document:
    """Rewrite a document so ByIdRef keys become plain attributes.

    Every element whose rule is :class:`ByIdRef` gains a
    ``__resolved`` attribute holding the referenced element's key
    (stringified); dangling references resolve to an empty value that
    sorts first, like any missing key.
    """
    idref_rules = {
        tag: rule
        for tag, rule in spec.rules.items()
        if isinstance(rule, ByIdRef)
    }
    if isinstance(spec.default, ByIdRef):
        raise SortSpecError(
            "ByIdRef must be a per-tag rule (a default would make every "
            "element a reference)"
        )
    if not idref_rules:
        return document
    store = document.store
    device = store.device
    capacity = max(1, memory_blocks - 2) * device.block_size
    fan_in = max(2, memory_blocks - 1)
    options = merge_options or DEFAULT_MERGE_OPTIONS

    # Pass 1: extract (id -> key) and (position -> idref) streams.
    def extract() -> Iterator[tuple[str, bytes]]:
        position = -1
        for event in document.iter_events("idref_scan"):
            if not isinstance(event, StartTag):
                continue
            position += 1
            for rule in idref_rules.values():
                identifier = event.attr(rule.id_attribute)
                if identifier is not None:
                    key = rule.resolved_target_rule().key_from_start(event)
                    yield "id", _encode_id_key(identifier, key)
            rule = idref_rules.get(event.tag)
            if rule is not None:
                reference = event.attr(rule.reference_attribute)
                if reference is not None:
                    yield "ref", _encode_pos_ref(position, reference)

    with maybe_span(
        tracer, "idref-resolve", rules=len(idref_rules)
    ) as resolve_span:
        id_records: list[bytes] = []
        ref_records: list[bytes] = []
        for kind, record in extract():
            (id_records if kind == "id" else ref_records).append(record)
            device.stats.record_tokens(1)
        if resolve_span is not None:
            resolve_span.set(
                ids=len(id_records), refs=len(ref_records)
            )

        # Sort both streams by id (externally, counted).
        id_runs = _sorted_run(
            store, iter(id_records), _id_of, capacity, fan_in, options,
            tracer=tracer, label="id-keys",
        )
        ref_runs = _sorted_run(
            store, iter(ref_records), _ref_of, capacity, fan_in, options,
            tracer=tracer, label="references",
        )
        resolved: list[bytes] = []
        if id_runs and ref_runs:
            id_stream = _merged_stream(
                store, id_runs, _id_of, fan_in, options, tracer=tracer
            )
            ref_stream = _merged_stream(
                store, ref_runs, _ref_of, fan_in, options, tracer=tracer
            )
            # Merge-join the two id-sorted streams.
            current_id: str | None = None
            current_key: KeyAtom = MISSING_KEY
            id_iter = iter(id_stream)
            pending = next(id_iter, None)
            for record in ref_stream:
                position, reference = _decode_pos_ref(record)
                while pending is not None:
                    identifier, key = _decode_id_key(pending)
                    if identifier > reference:
                        break
                    current_id, current_key = identifier, key
                    pending = next(id_iter, None)
                key = (
                    current_key
                    if current_id == reference
                    else MISSING_KEY
                )
                resolved.append(_encode_pos_key(position, key))
                device.stats.record_comparisons(1)

        # Re-sort the join result by document position.
        key_by_position: dict[int, KeyAtom] = {}
        if resolved:
            pos_runs = _sorted_run(
                store, iter(resolved), _pos_of, capacity, fan_in, options,
                tracer=tracer, label="positions",
            )
            pos_stream = _merged_stream(
                store, pos_runs, _pos_of, fan_in, options, tracer=tracer
            )
            # Pass 2 consumes this stream in document order; buffering the
            # (position, key) pairs models a co-scan of the annotation run.
            for record in pos_stream:
                position, key = _decode_pos_key(record)
                key_by_position[position] = key

        # Pass 2: rewrite the document with the resolved keys attached.
        def annotated() -> Iterator[Token]:
            position = -1
            for event in document.iter_events("idref_scan"):
                if isinstance(event, StartTag):
                    position += 1
                    key = key_by_position.get(position)
                    if key is not None:
                        rendered = sortable_atom_string(key)
                        yield StartTag(
                            event.tag,
                            event.attrs + ((RESOLVED_ATTRIBUTE, rendered),),
                        )
                        continue
                yield event

        return Document.from_events(
            store,
            annotated(),
            compaction=document.compaction,
            category="idref_rewrite",
        )


def strip_resolved_keys(
    document: Document, tracer: Tracer | None = None
) -> Document:
    """Remove the temporary resolution attribute (one counted pass)."""

    def stripped() -> Iterator[Token]:
        for event in document.iter_events("idref_strip"):
            if isinstance(event, StartTag):
                yield StartTag(
                    event.tag,
                    tuple(
                        (name, value)
                        for name, value in event.attrs
                        if name != RESOLVED_ATTRIBUTE
                    ),
                )
            else:
                yield event

    with maybe_span(tracer, "idref-strip"):
        return Document.from_events(
            document.store,
            stripped(),
            compaction=document.compaction,
            category="idref_strip",
        )


def nexsort_with_idrefs(
    document: Document,
    spec: SortSpec,
    memory_blocks: int,
    **options,
) -> tuple[Document, NexsortReport]:
    """Sort a document whose spec contains :class:`ByIdRef` rules.

    Resolution (two extra document passes + reference-stream sorts) runs
    first; the rewritten document sorts with ordinary NEXSORT on the
    resolved attribute; the temporary attribute is stripped from the
    output.  All I/O is counted on the document's device.
    """
    resolved = resolve_idref_keys(
        document, spec, memory_blocks,
        merge_options=options.get("merge_options"),
        tracer=options.get("tracer"),
    )
    effective_rules = {
        tag: (
            ByAttribute(RESOLVED_ATTRIBUTE, numeric_coercion=False)
            if isinstance(rule, ByIdRef)
            else rule
        )
        for tag, rule in spec.rules.items()
    }
    effective = SortSpec(default=spec.default, rules=effective_rules)
    sorted_document, report = nexsort(
        resolved, effective, memory_blocks=memory_blocks, **options
    )
    return (
        strip_resolved_keys(sorted_document, tracer=options.get("tracer")),
        report,
    )
