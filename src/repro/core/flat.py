"""Graceful degeneration into external merge sort (paper Section 3.2).

Plain NEXSORT wastes its first pass on flat documents: it pushes the whole
input onto the data stack only to pop it again for one big sort.  The fix
the paper describes: "Whenever an incomplete subtree has filled internal
memory, we sort it in internal memory and create an *incomplete sorted
run* ... incomplete sorted runs for the same subtree must be merged to
produce a regular, complete sorted run.  Effectively, we have incorporated
the first step of creating initial sorted runs for external merge sort into
the loop."  With this optimization NEXSORT completes a flat input in the
same number of passes as external merge sort.

An incomplete (partial) run is a key-ordered sequence of *child groups*:
each group is one complete, internally sorted child subtree of the open
element, stored with its ``(key, position)`` header so groups from several
partial runs can be merged by key when the element finally closes.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import CodecError
from ..io.runs import RunHandle, RunStore
from ..merge.engine import MergeOptions, sort_with_accounting
from ..xml.codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    decode_key_atom,
    encode_key_atom,
    read_varint,
    record_level,
    write_varint,
)
from ..xml.tokens import KeyAtom, MISSING_KEY
from .columnar import sort_subtree_records, subtree_root_summary


class ChildGroup:
    """One complete child subtree inside a partial run."""

    __slots__ = ("key", "pos", "units", "real", "token_bytes")

    def __init__(
        self,
        key: KeyAtom,
        pos: int,
        units: int,
        real: int,
        token_bytes: list[bytes],
    ):
        self.key = key
        self.pos = pos
        self.units = units
        self.real = real
        self.token_bytes = token_bytes

    def order_key(self) -> tuple:
        return (self.key, self.pos)


def encode_group(group: ChildGroup) -> bytes:
    out = bytearray()
    encode_key_atom(out, group.key)
    write_varint(out, group.pos)
    write_varint(out, group.units)
    write_varint(out, group.real)
    write_varint(out, len(group.token_bytes))
    for token in group.token_bytes:
        write_varint(out, len(token))
        out += token
    return bytes(out)


def decode_group(data: bytes) -> ChildGroup:
    key, pos = decode_key_atom(data, 0)
    position, pos = read_varint(data, pos)
    units, pos = read_varint(data, pos)
    real, pos = read_varint(data, pos)
    count, pos = read_varint(data, pos)
    tokens = []
    for _ in range(count):
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated child-group token")
        tokens.append(data[pos:end])
        pos = end
    return ChildGroup(key, position, units, real, tokens)


def group_sort_key(data: bytes) -> tuple:
    """Ordering key of an encoded group (header only, cheap)."""
    key, pos = decode_key_atom(data, 0)
    position, _ = read_varint(data, pos)
    return (key, position)


def split_children(
    records: list[bytes], compact: bool, names_coded: bool
) -> tuple[list[bytes], list[list[bytes]]]:
    """Split an open element's content region into its text records and
    the record lists of its children.

    The region is everything pushed after the element's start record
    while the element is the deepest open one, so it consists
    exclusively of the element's own text and *complete* child subtrees
    (a collapsed child is one pointer record).
    """
    texts: list[bytes] = []
    children: list[list[bytes]] = []
    current: list[bytes] = []
    if compact:
        base_level: int | None = None
        for record in records:
            token_type = record[0]
            if token_type == TYPE_START or token_type == TYPE_POINTER:
                level = record_level(record, names_coded)
                if level is None:
                    raise CodecError("compacted token without level")
                if base_level is None:
                    base_level = level
                if level == base_level:
                    if current:
                        children.append(current)
                    current = [record]
                else:
                    current.append(record)
            elif token_type == TYPE_TEXT:
                # The text's level says whether it belongs to the open
                # element (one above the child roots) or to a child.
                level = record_level(record, names_coded)
                owner_is_frame = (
                    level is not None
                    and base_level is not None
                    and level < base_level
                ) or not current
                if owner_is_frame:
                    texts.append(record)
                else:
                    current.append(record)
            else:
                raise CodecError(
                    f"unexpected record in compact region: type byte "
                    f"{token_type}"
                )
        if current:
            children.append(current)
        return texts, children
    depth = 0
    for record in records:
        token_type = record[0]
        if token_type == TYPE_START:
            depth += 1
            current.append(record)
        elif token_type == TYPE_END:
            current.append(record)
            depth -= 1
            if depth == 0:
                children.append(current)
                current = []
        elif token_type == TYPE_POINTER:
            if depth == 0:
                children.append([record])
            else:
                current.append(record)
        elif token_type == TYPE_TEXT:
            if depth == 0:
                texts.append(record)
            else:
                current.append(record)
        else:
            raise CodecError(f"unknown token type byte {token_type}")
    if depth != 0:
        raise CodecError("open-element region contains an open child")
    return texts, children


def groups_from_region(
    records: list[bytes],
    compact: bool,
    names_coded: bool,
    child_level: int,
    sort_levels: int | None,
    device_stats,
    counted: bool = False,
) -> tuple[list[bytes], list[ChildGroup]]:
    """Sort each complete child subtree of the region into a ChildGroup.

    Returns the element's own text records and the groups, ordered by
    ``(key, position)`` and ready to be written as one partial run.  Each
    child is sorted by :func:`repro.core.columnar.sort_subtree_records`
    (a pointer child passes through as its stripped pointer record);
    ``sort_levels`` applies relative to each child root (depth-limited
    sorting composes with graceful degeneration).
    """
    texts, children = split_children(records, compact, names_coded)
    groups: list[ChildGroup] = []
    for child in children:
        atom, pos = subtree_root_summary(child, compact, names_coded)
        key = decode_key_atom(atom, 0)[0] if atom is not None else MISSING_KEY
        encoded, units, real = sort_subtree_records(
            child, compact, names_coded, child_level, sort_levels,
            device_stats, counted=counted,
        )
        device_stats.record_tokens(len(encoded))
        groups.append(ChildGroup(key, pos, units, real, encoded))
    sort_with_accounting(groups, ChildGroup.order_key, device_stats, counted)
    return texts, groups


class PartialRunWriter:
    """An open partial run that can absorb successive group batches.

    Every partial run is written through one of these.  Under load-sort
    run formation each memory-full flush's key-ordered batch of child
    groups is one run, finished right after it.  Replacement selection
    keeps the run open: when a new batch starts at or above the last key
    already written, it *extends* the open run instead of starting a new
    one - the same "steal order that is already there" idea, with the
    data stack playing the role of the selection heap.  Fewer, longer
    partial runs mean fewer partial-merge passes when the element closes.

    Only one of these should be open at a time (it owns a one-block write
    buffer, charged to the same transfer-buffer allowance every run writer
    uses).
    """

    def __init__(self, store: RunStore):
        self._writer = store.create_writer("partial_run")
        self._last: tuple | None = None

    def can_extend(self, groups: list[ChildGroup]) -> bool:
        """True if ``groups`` (key-ordered) may append to the open run."""
        if not groups:
            return True
        return self._last is None or groups[0].order_key() >= self._last

    def write_groups(self, groups: list[ChildGroup]) -> None:
        for group in groups:
            self._writer.write_record(encode_group(group))
        if groups:
            self._last = groups[-1].order_key()

    def finish(self) -> RunHandle:
        return self._writer.finish()


def iter_merged_groups(
    store: RunStore,
    partial_runs: list[RunHandle],
    fan_in: int,
    options: MergeOptions | None = None,
    tracer=None,
) -> Iterator[ChildGroup]:
    """Stream the groups of several partial runs merged by (key, pos)."""
    from ..baselines.merging import merge_to_stream

    stream, _passes, _width = merge_to_stream(
        store,
        partial_runs,
        group_sort_key,
        fan_in,
        read_category="partial_merge_read",
        write_category="partial_merge_write",
        options=options,
        tracer=tracer,
    )
    for record in stream:
        yield decode_group(record)
