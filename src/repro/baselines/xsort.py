"""XSort - the single-level XML sorter of Avila-Campillo et al. (XMLTK).

The paper's related work (Section 2): "XSort traverses the document tree
to some user-specified elements and then sorts their children; the child
subtrees are not sorted recursively.  XSort is implemented as standard
external merge sort.  The hierarchical nature of XML is irrelevant in
this case because sorting is done on only one level.  Obviously, XSort
sorts less, and should complete in less time than NEXSORT.  However,
XSort does not lend itself well to solving the structural merge problem."

This module implements that algorithm so the trade-off can be measured:
a *target path* selects the elements whose child lists get sorted; each
child subtree is treated as one opaque record and the records are run
through a standard external merge sort.  Everything outside the targeted
child lists streams through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, log2

from ..errors import SortSpecError
from ..io.budget import sort_session
from ..io.runs import RunHandle
from ..io.stats import StatsSnapshot
from ..keys import KeyEvaluator, SortSpec
from ..xml.codec import TokenCodec
from ..xml.document import Document
from ..xml.tokens import EndTag, MISSING_KEY, StartTag, Text, Token
from .merging import merge_to_stream

#: Memory blocks reserved for the scan and output buffers.
_RESERVED_BLOCKS = 2


@dataclass
class XSortReport:
    """What one XSort run did."""

    element_count: int = 0
    input_blocks: int = 0
    memory_blocks: int = 0
    target_lists_sorted: int = 0
    children_sorted: int = 0
    initial_runs: int = 0
    stats: StatsSnapshot = field(default_factory=StatsSnapshot)

    @property
    def total_ios(self) -> int:
        return self.stats.total_ios

    @property
    def simulated_seconds(self) -> float:
        return self.stats.elapsed_seconds()


class XSorter:
    """Sorts the children of elements matched by a tag path.

    Args:
        spec: ordering criterion for the sorted child lists (must be
            start-computable, like the merge-sort baseline).
        target_path: '/'-separated tag path from the root selecting the
            elements whose child lists are sorted, e.g.
            ``company/region/branch`` sorts every branch's employees.
            The empty path targets the root itself.
        memory_blocks: the model parameter ``M`` in blocks.
        cache_blocks: blocks of ``M`` spent on a
            :class:`~repro.io.bufferpool.BufferPool`; 0 keeps the classic
            unpooled behaviour bit-for-bit.
    """

    def __init__(
        self,
        spec: SortSpec,
        target_path: str,
        memory_blocks: int,
        cache_blocks: int = 0,
    ):
        if not spec.start_computable:
            raise SortSpecError(
                "XSort keys child subtrees at their start tags; the "
                "criterion must be start-computable"
            )
        if cache_blocks < 0:
            raise SortSpecError(
                f"cache_blocks cannot be negative: {cache_blocks}"
            )
        if memory_blocks < _RESERVED_BLOCKS + 1 + cache_blocks:
            raise SortSpecError(
                f"XSort needs at least {_RESERVED_BLOCKS + 1} memory "
                f"blocks plus the {cache_blocks} buffer-pool blocks"
            )
        self.spec = spec
        self.steps = tuple(
            step for step in target_path.split("/") if step
        )
        self.memory_blocks = memory_blocks
        self.cache_blocks = cache_blocks

    def sort(self, document: Document) -> tuple[Document, XSortReport]:
        """Sort the targeted child lists; everything else streams through."""
        store = document.store
        device = store.device
        codec = TokenCodec(
            document.compaction.names if document.compaction else None
        )
        with sort_session(
            store, self.memory_blocks, self.cache_blocks
        ) as budget:
            buffers = budget.reserve(_RESERVED_BLOCKS, "io-buffers")
            batch_memory = budget.reserve_rest("child-records")
            capacity_bytes = batch_memory.blocks * device.block_size
            fan_in = max(2, self.memory_blocks - 1 - self.cache_blocks)
            report = XSortReport(
                element_count=document.element_count,
                input_blocks=document.block_count,
                memory_blocks=self.memory_blocks,
            )
            before = device.stats.snapshot()

            evaluator = KeyEvaluator(self.spec)
            events = evaluator.annotate(document.iter_events("input_scan"))
            writer = store.create_writer("output")

            # Path-matching state: the chain of tags from the root; an element
            # is a *target* when its path equals self.steps.
            path: list[str] = []
            # When inside a target's child list, buffer each complete child
            # subtree as one record.  Targets cannot nest inside the child
            # lists being collected (collection is flat), but a target's
            # children may themselves be targets once we recurse - XSort
            # semantics sort only the specified level, so nested matches
            # inside a collected subtree are NOT sorted (one level only).
            collecting: list[dict] = []  # stack of collection frames

            def emit(token: Token) -> None:
                writer.write_record(codec.encode(_strip(token)))
                device.stats.record_tokens(1)

            for event in events:
                if collecting:
                    frame = collecting[-1]
                    done = self._collect(frame, event)
                    if done:
                        self._flush_target(
                            store, frame, writer, codec, capacity_bytes,
                            fan_in, report,
                        )
                        collecting.pop()
                        emit(event)  # the target's own end tag
                        path.pop()
                    continue
                if isinstance(event, StartTag):
                    path.append(event.tag)
                    emit(event)
                    if tuple(path) == self.steps or (
                        not self.steps and len(path) == 1
                    ):
                        collecting.append(
                            {
                                "tag": event.tag,
                                "children": [],
                                "current": None,
                                "depth": 0,
                                "texts": [],
                            }
                        )
                        report.target_lists_sorted += 1
                        continue
                elif isinstance(event, EndTag):
                    path.pop()
                    emit(event)
                else:
                    emit(event)

            handle = writer.finish()
            # Flush the pool before the snapshot so deferred write-backs
            # are accounted inside the report.
            store.detach_pool()
            report.stats = device.stats.since(before)
            buffers.release()
            batch_memory.release()
            compaction = document.compaction
            if compaction is not None:
                # The output is plain-dialect records (no levels, end tags
                # written); only the name dictionary carries over.
                compaction = replace(compaction, eliminate_end_tags=False)
            output = Document(store, handle, document.stats, compaction)
            return output, report

    def _collect(self, frame: dict, event: Token) -> bool:
        """Feed one event into a target's collection frame.

        Returns True when the target's end tag arrived (collection done).
        """
        if isinstance(event, StartTag):
            frame["depth"] += 1
            if frame["depth"] == 1:
                key = event.key if event.key is not None else MISSING_KEY
                frame["current"] = {
                    "key": (key, event.pos or 0),
                    "tokens": [event],
                }
            else:
                frame["current"]["tokens"].append(event)
            return False
        if isinstance(event, EndTag):
            if frame["depth"] == 0:
                return True  # the target element itself closed
            frame["current"]["tokens"].append(event)
            frame["depth"] -= 1
            if frame["depth"] == 0:
                frame["children"].append(frame["current"])
                frame["current"] = None
            return False
        if isinstance(event, Text):
            if frame["depth"] == 0:
                frame["texts"].append(event.text)
            else:
                frame["current"]["tokens"].append(event)
            return False
        raise SortSpecError(f"unexpected event {event!r}")

    def _flush_target(
        self, store, frame, writer, codec, capacity_bytes, fan_in, report
    ) -> None:
        """Sort one target's collected children and write them out."""
        device = store.device
        if frame["texts"]:
            writer.write_record(
                codec.encode(Text("".join(frame["texts"])))
            )
        children = frame["children"]
        report.children_sorted += len(children)
        encoded = []
        for child in children:
            record = _encode_child(child, codec)
            encoded.append((child["key"], record))
        total_bytes = sum(len(record) for _key, record in encoded)
        if total_bytes <= capacity_bytes:
            # In-memory sort of the child list.
            encoded.sort(key=lambda pair: pair[0])
            if len(encoded) > 1:
                device.stats.record_comparisons(
                    len(encoded) * max(1, ceil(log2(len(encoded))))
                )
            for _key, record in encoded:
                for token_bytes in _decode_child(record):
                    writer.write_record(token_bytes)
                    device.stats.record_tokens(1)
            return
        # External merge sort of the child records (XSort's standard path).
        runs: list[RunHandle] = []
        batch: list[tuple[tuple, bytes]] = []
        batch_bytes = 0
        for key, record in encoded:
            batch.append((key, record))
            batch_bytes += len(record)
            if batch_bytes >= capacity_bytes:
                runs.append(_write_run(store, batch))
                batch, batch_bytes = [], 0
        if batch:
            runs.append(_write_run(store, batch))
        report.initial_runs += len(runs)

        stream, _passes, _width = merge_to_stream(
            store, runs, _child_sort_key, fan_in
        )
        for record in stream:
            for token_bytes in _decode_child(record):
                writer.write_record(token_bytes)
                device.stats.record_tokens(1)


def _strip(token: Token) -> Token:
    if isinstance(token, StartTag):
        return StartTag(token.tag, token.attrs)
    if isinstance(token, EndTag):
        return EndTag(token.tag)
    if isinstance(token, Text):
        return Text(token.text)
    return token


def _encode_child(child: dict, codec: TokenCodec) -> bytes:
    """One child subtree as a single sortable record."""
    from ..xml.codec import encode_key_atom, write_varint

    out = bytearray()
    key, pos = child["key"]
    encode_key_atom(out, key)
    write_varint(out, pos)
    token_bytes = [codec.encode(_strip(t)) for t in child["tokens"]]
    write_varint(out, len(token_bytes))
    for record in token_bytes:
        write_varint(out, len(record))
        out += record
    return bytes(out)


def _decode_child(record: bytes) -> list[bytes]:
    from ..xml.codec import decode_key_atom, read_varint

    _key, pos = decode_key_atom(record, 0)
    _position, pos = read_varint(record, pos)
    count, pos = read_varint(record, pos)
    tokens = []
    for _ in range(count):
        length, pos = read_varint(record, pos)
        tokens.append(record[pos : pos + length])
        pos += length
    return tokens


def _child_sort_key(record: bytes) -> tuple:
    from ..xml.codec import decode_key_atom, read_varint

    key, pos = decode_key_atom(record, 0)
    position, _pos = read_varint(record, pos)
    return (key, position)


def _write_run(store, batch: list[tuple[tuple, bytes]]) -> RunHandle:
    batch.sort(key=lambda pair: pair[0])
    count = len(batch)
    if count > 1:
        store.device.stats.record_comparisons(
            count * max(1, ceil(log2(count)))
        )
    writer = store.create_writer("run_write")
    for _key, record in batch:
        writer.write_record(record)
    return writer.finish()


def xsort(
    document: Document,
    spec: SortSpec,
    target_path: str,
    memory_blocks: int,
    cache_blocks: int = 0,
) -> tuple[Document, XSortReport]:
    """Convenience wrapper: sort one level of a document with XSort."""
    return XSorter(spec, target_path, memory_blocks, cache_blocks).sort(
        document
    )
