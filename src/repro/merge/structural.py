"""Structural merge of sorted XML documents (paper Example 1.1, Figure 1).

The motivating application of NEXSORT: "We first sort both input documents
such that for any company, region, or branch element, the list of child
elements is ordered according to the same criterion for both documents ...
Then, we can perform merge in a single pass over both sorted documents."

This is the XML analogue of sort-merge (outer)join, over any number of
inputs: at each level the child lists advance together in key order,
one-sided subtrees are copied through, and children sharing a key (and
tag) across several inputs merge recursively.  A merged element's
attributes fold left to right (earlier inputs win conflicts), its text is
the first non-empty one, and its children are the union of theirs.  The
paper's two-way merge is the case of two inputs.

Inputs must be sorted under the *same* ordering criterion; keys are
re-evaluated from content during the merge scan, so sorted documents do not
need to carry keys.  An input whose children are out of key order raises
:class:`~repro.errors.MergeError` instead of yielding a wrong document.  The
merge is single-pass: every input block is read exactly once (checked by
tests and the MRG benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import MergeError
from ..io.stats import StatsSnapshot
from ..keys import KeyEvaluator, SortSpec
from ..xml.document import Document
from ..xml.tokens import (
    EndTag,
    MISSING_KEY,
    StartTag,
    Text,
    Token,
)


@dataclass
class MergeReport:
    """What one structural merge did.

    ``input_blocks`` and ``elements_copied`` have one entry per input, in
    input order; ``elements_copied[i]`` counts the elements copied from
    input ``i`` because no other input had a match for them.
    """

    input_blocks: list[int] = field(default_factory=list)
    output_blocks: int = 0
    elements_merged: int = 0
    elements_copied: list[int] = field(default_factory=list)
    stats: StatsSnapshot = field(default_factory=StatsSnapshot)

    @property
    def total_ios(self) -> int:
        return self.stats.total_ios

    @property
    def simulated_seconds(self) -> float:
        return self.stats.elapsed_seconds()

    @property
    def merge_comparisons(self) -> int:
        """Key comparisons charged during head selection."""
        return self.stats.merge_comparisons


class _Cursor:
    """Peekable stream of annotated events."""

    __slots__ = ("_events", "_peeked")

    def __init__(self, events: Iterator[Token]):
        self._events = events
        self._peeked: Token | None = None

    def peek(self) -> Token | None:
        if self._peeked is None:
            self._peeked = next(self._events, None)
        return self._peeked

    def next(self) -> Token | None:
        token = self.peek()
        self._peeked = None
        return token


def _key_of(token: StartTag) -> tuple:
    return token.key if token.key is not None else MISSING_KEY


def _collect_text(cursor: _Cursor) -> str:
    parts = []
    while isinstance(cursor.peek(), Text):
        parts.append(cursor.next().text)
    return "".join(parts)


def _copy_subtree(cursor: _Cursor) -> Iterator[Token]:
    """Yield the subtree at ``cursor``; returns its element count."""
    depth = 0
    elements = 0
    while True:
        token = cursor.next()
        if token is None:
            raise MergeError("unexpected end of input while copying")
        if isinstance(token, StartTag):
            depth += 1
            elements += 1
            yield StartTag(token.tag, token.attrs)
        elif isinstance(token, Text):
            yield Text(token.text)
        elif isinstance(token, EndTag):
            depth -= 1
            yield EndTag(token.tag)
            if depth == 0:
                return elements
        else:  # pragma: no cover - defensive
            raise MergeError(f"unexpected token {token!r}")


def _expect_end(cursor: _Cursor, tag: str) -> None:
    token = cursor.next()
    if not isinstance(token, EndTag) or token.tag != tag:
        raise MergeError(
            f"expected </{tag}>, found {token!r}; are all inputs sorted "
            f"under the same criterion?"
        )


def _check_order(key: tuple, last: tuple | None, which) -> None:
    """Raise when an input's next child key is below its previous one."""
    if last is not None and key < last:
        raise MergeError(
            f"input {which} is not sorted: child key {key!r} follows "
            f"{last!r}"
        )


class StructuralMerger:
    """Single-pass merge of any number of documents sorted under ``spec``.

    ``spec`` must be start-computable: the merge decides matches at start
    tags, before any subtree has been read - the same reason sort-merge
    join compares join keys, not whole tuples.

    ``depth_limit`` mirrors depth-limited sorting (paper Section 3.2): when
    the user knows "a depth below which no overlap of information is
    possible", elements at levels beyond the limit are not matched - a
    merged element at the limit simply receives each input's children in
    input order, as the merged employee in Figure 1 keeps name/phone
    before salary/bonus.  Inputs then only need to be sorted to the same
    depth.

    ``attribute_merger``, when given, computes a merged element's
    attributes from two attribute tuples, folded left to right across the
    inputs; the default is union with the earlier input winning conflicts.
    The deep-union/nested-merge applications of Buneman et al. (related
    work, Section 2) plug their annotation-combining logic in here - see
    :mod:`repro.merge.archive`.
    """

    def __init__(
        self,
        spec: SortSpec,
        depth_limit: int | None = None,
        attribute_merger=None,
    ):
        if not spec.start_computable:
            raise MergeError(
                "structural merge matches elements at their start tags, "
                "so the ordering criterion must be start-computable"
            )
        self.spec = spec
        self.depth_limit = depth_limit
        self.attribute_merger = attribute_merger or _default_attribute_merger
        self._stats = None

    def merge(
        self, documents: list[Document]
    ) -> tuple[Document, MergeReport]:
        """Merge sorted documents; returns (merged document, report)."""
        if not documents:
            raise MergeError("nothing to merge")
        store = documents[0].store
        if any(doc.store is not store for doc in documents):
            raise MergeError("documents must live on the same device")
        device = store.device
        report = MergeReport(
            input_blocks=[doc.block_count for doc in documents],
            elements_copied=[0] * len(documents),
        )
        self._stats = device.stats
        before = device.stats.snapshot()

        cursors = [
            _Cursor(
                KeyEvaluator(self.spec).annotate(
                    doc.iter_events(f"merge_scan_{index}")
                )
            )
            for index, doc in enumerate(documents)
        ]
        roots = [cursor.peek() for cursor in cursors]
        if not all(isinstance(root, StartTag) for root in roots):
            raise MergeError("every document needs a root element")
        tags = {root.tag for root in roots}
        if len(tags) != 1:
            raise MergeError(f"root tags differ: {sorted(tags)}")

        events = self._merge_group(list(enumerate(cursors)), report, 1)
        merged = Document.from_events(
            store,
            events,
            compaction=documents[0].compaction,
            category="merge_output",
        )
        report.output_blocks = merged.block_count
        report.stats = device.stats.since(before)
        return merged, report

    def _merge_group(
        self,
        group: list[tuple[int, _Cursor]],
        report: MergeReport,
        level: int,
    ) -> Iterator[Token]:
        starts = [cursor.next() for _index, cursor in group]
        assert all(isinstance(start, StartTag) for start in starts)
        report.elements_merged += 1

        attrs = starts[0].attrs
        for other in starts[1:]:
            attrs = self.attribute_merger(attrs, other.attrs)
        yield StartTag(starts[0].tag, attrs)

        texts = [_collect_text(cursor) for _index, cursor in group]
        text = next((t for t in texts if t), "")
        if text:
            yield Text(text)

        if self.depth_limit is not None and level > self.depth_limit:
            # Below the merge depth there is no overlap: concatenate each
            # input's children in input order (Figure 1's merged employee).
            for index, cursor in group:
                while isinstance(cursor.peek(), StartTag):
                    report.elements_copied[index] += yield from (
                        _copy_subtree(cursor)
                    )
        else:
            yield from self._merge_children(group, report, level)

        for (_index, cursor), start in zip(group, starts):
            _expect_end(cursor, start.tag)
        yield EndTag(starts[0].tag)

    def _merge_children(
        self,
        group: list[tuple[int, _Cursor]],
        report: MergeReport,
        level: int,
    ) -> Iterator[Token]:
        last_keys: dict[int, tuple] = {}
        while True:
            # Inputs whose next child exists, with that child and its key.
            heads = []
            for index, cursor in group:
                head = cursor.peek()
                if isinstance(head, StartTag):
                    key = _key_of(head)
                    _check_order(key, last_keys.get(index), index)
                    last_keys[index] = key
                    heads.append((index, cursor, head, key))
            if not heads:
                return
            minimum = min(key for *_rest, key in heads)
            at_minimum = [entry for entry in heads if entry[3] == minimum]
            if len(heads) > 1:
                # min() costs k-1 comparisons, the equality filter k more.
                self._stats.record_merge_comparisons(2 * len(heads) - 1)
            # Group by tag; the first tag in input order goes first.
            lead_tag = at_minimum[0][2].tag
            matched = [
                (index, cursor)
                for index, cursor, head, _key in at_minimum
                if head.tag == lead_tag
            ]
            if len(matched) == 1:
                index, cursor = matched[0]
                report.elements_copied[index] += yield from (
                    _copy_subtree(cursor)
                )
            else:
                yield from self._merge_group(matched, report, level + 1)


def _default_attribute_merger(
    left_attrs: tuple, right_attrs: tuple
) -> tuple:
    """Attribute union; the left document wins conflicts."""
    attrs = dict(left_attrs)
    for name, value in right_attrs:
        attrs.setdefault(name, value)
    return tuple(attrs.items())


def kway_merge(
    documents: list[Document],
    spec: SortSpec,
    depth_limit: int | None = None,
) -> tuple[Document, MergeReport]:
    """Convenience wrapper: merge many sorted documents in one pass."""
    return StructuralMerger(spec, depth_limit).merge(documents)


def structural_merge(
    left: Document,
    right: Document,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> tuple[Document, MergeReport]:
    """Convenience wrapper: merge two sorted documents."""
    return kway_merge([left, right], spec, depth_limit)
