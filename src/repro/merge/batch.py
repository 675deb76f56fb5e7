"""Batch updates to a sorted document (paper Section 1).

"Another application of sorting is processing batch updates to an existing
XML document.  Assume that the existing document is already sorted.  We
first sort the batch of updates according to the same ordering criterion as
the existing document.  Then, we can process the batched updates in a way
similar to merging them with the existing document.  The result document
remains sorted."

A batch is itself an XML document whose elements mirror the target's
structure; each leaf-level element carries an ``op`` attribute:

* ``op="upsert"`` (or no ``op``) - insert the subtree, or merge it into the
  matching element (new attributes and children are added; text replaces).
* ``op="delete"`` - remove the matching element and its subtree.

Interior batch elements just navigate: they match by key and recurse.

The walk reuses the structural merge's cursor and subtree helpers
(:mod:`repro.merge.structural`).  Like the merge, it checks that the
document's children arrive in key order and raises
:class:`~repro.errors.MergeError` on an unsorted document instead of
producing a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..core.nexsort import nexsort
from ..errors import MergeError
from ..io.stats import StatsSnapshot
from ..keys import KeyEvaluator, SortSpec
from ..xml.document import Document
from ..xml.tokens import EndTag, StartTag, Text, Token
from .structural import (
    _Cursor,
    _check_order,
    _collect_text,
    _copy_subtree,
    _expect_end,
    _key_of,
)

#: Attribute naming the operation on a batch element.
OP_ATTRIBUTE = "op"


@dataclass
class BatchReport:
    """What one batch application did."""

    upserts: int = 0
    deletes: int = 0
    missed_deletes: int = 0
    stats: StatsSnapshot = field(default_factory=StatsSnapshot)

    @property
    def total_ios(self) -> int:
        return self.stats.total_ios

    @property
    def simulated_seconds(self) -> float:
        return self.stats.elapsed_seconds()


def _op_of(token: StartTag) -> str:
    return token.attr(OP_ATTRIBUTE) or "upsert"


def _clean_attrs(token: StartTag) -> tuple[tuple[str, str], ...]:
    return tuple(
        (name, value)
        for name, value in token.attrs
        if name != OP_ATTRIBUTE
    )


class BatchApplier:
    """Applies a sorted batch to a sorted document in one merge pass."""

    def __init__(self, spec: SortSpec, memory_blocks: int = 16):
        if not spec.start_computable:
            raise MergeError(
                "batch application matches elements at start tags; the "
                "criterion must be start-computable"
            )
        self.spec = spec
        self.memory_blocks = memory_blocks

    def apply(
        self,
        document: Document,
        batch: Document,
        batch_is_sorted: bool = False,
    ) -> tuple[Document, BatchReport]:
        """Apply ``batch`` to ``document`` (both end up/stay sorted).

        ``document`` must already be sorted under the spec.  The batch is
        sorted first with NEXSORT unless ``batch_is_sorted`` says it
        already is - exactly the paper's recipe.
        """
        if document.store is not batch.store:
            raise MergeError("documents must live on the same device")
        device = document.device
        report = BatchReport()
        before = device.stats.snapshot()

        if not batch_is_sorted:
            batch, _sort_report = nexsort(
                batch, self.spec, memory_blocks=self.memory_blocks
            )

        doc_cursor = _Cursor(
            KeyEvaluator(self.spec).annotate(
                document.iter_events("merge_scan_left")
            )
        )
        batch_cursor = _Cursor(
            KeyEvaluator(self.spec).annotate(
                batch.iter_events("merge_scan_right")
            )
        )
        root_doc = doc_cursor.peek()
        root_batch = batch_cursor.peek()
        if not isinstance(root_doc, StartTag) or not isinstance(
            root_batch, StartTag
        ):
            raise MergeError("both inputs must have a root element")
        if root_doc.tag != root_batch.tag:
            raise MergeError(
                f"batch root <{root_batch.tag}> does not match document "
                f"root <{root_doc.tag}>"
            )

        events = self._apply_element(doc_cursor, batch_cursor, report)
        result = Document.from_events(
            document.store,
            events,
            compaction=document.compaction,
            category="merge_output",
        )
        report.stats = device.stats.since(before)
        return result, report

    def _apply_element(
        self, doc: _Cursor, batch: _Cursor, report: BatchReport
    ) -> Iterator[Token]:
        start_doc = doc.next()
        start_batch = batch.next()
        assert isinstance(start_doc, StartTag)
        assert isinstance(start_batch, StartTag)

        attrs = dict(start_doc.attrs)
        for name, value in _clean_attrs(start_batch):
            attrs[name] = value
        yield StartTag(start_doc.tag, tuple(attrs.items()))

        doc_text = _collect_text(doc)
        batch_text = _collect_text(batch)
        text = batch_text or doc_text
        if text:
            yield Text(text)

        last_doc_key = None
        while True:
            next_doc = doc.peek()
            next_batch = batch.peek()
            doc_open = isinstance(next_doc, StartTag)
            batch_open = isinstance(next_batch, StartTag)
            if doc_open:
                key_doc = _key_of(next_doc)
                _check_order(key_doc, last_doc_key, "document")
                last_doc_key = key_doc
            if doc_open and batch_open:
                key_batch = _key_of(next_batch)
                if key_doc < key_batch:
                    yield from _copy_subtree(doc)
                elif key_batch < key_doc:
                    yield from self._insert_or_skip(batch, report)
                else:
                    op = _op_of(next_batch)
                    if op == "delete":
                        _skip_subtree(doc)
                        _skip_subtree(batch)
                        report.deletes += 1
                    else:
                        report.upserts += 1
                        yield from self._apply_element(doc, batch, report)
            elif doc_open:
                yield from _copy_subtree(doc)
            elif batch_open:
                yield from self._insert_or_skip(batch, report)
            else:
                break

        _expect_end(doc, start_doc.tag)
        _expect_end(batch, start_batch.tag)
        yield EndTag(start_doc.tag)

    def _insert_or_skip(
        self, batch: _Cursor, report: BatchReport
    ) -> Iterator[Token]:
        """A batch element with no match: insert upserts, drop deletes."""
        head = batch.peek()
        assert isinstance(head, StartTag)
        if _op_of(head) == "delete":
            _skip_subtree(batch)
            report.missed_deletes += 1
            return
        report.upserts += 1
        depth = 0
        while True:
            token = batch.next()
            if token is None:
                raise MergeError("unexpected end of batch while inserting")
            if isinstance(token, StartTag):
                depth += 1
                yield StartTag(token.tag, _clean_attrs(token))
            elif isinstance(token, Text):
                yield Text(token.text)
            elif isinstance(token, EndTag):
                depth -= 1
                yield EndTag(token.tag)
                if depth == 0:
                    return


def _skip_subtree(cursor: _Cursor) -> None:
    depth = 0
    while True:
        token = cursor.next()
        if token is None:
            raise MergeError("unexpected end of input while skipping")
        if isinstance(token, StartTag):
            depth += 1
        elif isinstance(token, EndTag):
            depth -= 1
            if depth == 0:
                return


def apply_batch(
    document: Document,
    batch: Document,
    spec: SortSpec,
    memory_blocks: int = 16,
    batch_is_sorted: bool = False,
) -> tuple[Document, BatchReport]:
    """Convenience wrapper: apply a batch of updates to a sorted document."""
    applier = BatchApplier(spec, memory_blocks)
    return applier.apply(document, batch, batch_is_sorted=batch_is_sorted)
