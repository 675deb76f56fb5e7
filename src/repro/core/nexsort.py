"""NEXSORT - Nested Data and XML Sorting (paper Sections 3 and 3.2).

The sorting phase follows Figure 4 line by line: scan the input depth-first
with an event parser, push every unit of data onto the external-memory
*data stack*, track element start locations on the *path stack*, and
whenever an end tag closes a subtree whose size has reached the sort
threshold ``t`` (or the root closes), pop the subtree, sort it
(:mod:`repro.core.subtree`), write it as a sorted run, and push the root
back as a single :class:`~repro.xml.tokens.RunPointer`.  The output phase
(:mod:`repro.core.output`) then walks the resulting tree of sorted runs.

Extensions from Section 3.2, all selectable via :class:`NexsortOptions`:

* **depth-limited sorting** (``depth_limit=d``): subtrees rooted below
  level ``d`` are treated as atomic; the sorting condition gains the
  ``d_s <= d + 1`` check and subtree sorts are truncated to the top
  ``d + 1 - d_s`` levels.
* **graceful degeneration** (``flat_optimization=True``): when an
  incomplete subtree fills internal memory, its complete children are
  sorted in memory into an *incomplete sorted run*; the runs of one element
  are merged when it closes.  Flat inputs then cost the same passes as
  external merge sort.
* **compaction** is inherited from how the document is stored (name
  dictionaries, end-tag elimination); with end tags eliminated, end events
  still trigger sorting decisions but are never pushed onto the data stack.
* **complex ordering criteria**: subtree-evaluated keys (ByText,
  ByChildPath) ride on end tags, evaluated in the single scanning pass
  with one constant-size evaluator frame per open element
  (:func:`repro.keys.enter_element` and its sibling steps).

There is one scan (:meth:`NexSorter._scan`) for every input: it moves the
stored records onto the data stack by byte splicing, and every subtree
sort, partial-run flush and flat-element merge works on the popped raw
records (:mod:`repro.core.columnar`) rather than on decoded tokens.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import CodecError, SortSpecError
from ..io.budget import MINIMUM_NEXSORT_BLOCKS, sort_session
from ..io.stacks import ExternalStack
from ..keys import SortSpec, element_text, end_key, enter_element, leave_element
from ..merge.engine import DEFAULT_MERGE_OPTIONS, MergeOptions
from ..obs.tracer import Tracer, maybe_span
from ..xml.codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    decode_key_atom,
    encode_tag_attrs,
    encode_varint,
    read_varint,
)
from ..xml.document import Document
from ..xml.tokens import MISSING_KEY, RunPointer, Text
from .columnar import (
    _VARINT1,
    END_FIELDS,
    StartKeyCache,
    _frame_payload,
    _name_field_end,
    _skip_frame,
    _skip_tag_attrs,
    _text_frame,
    encoded_atom_bytes,
    raised_parsing_records,
    subtree_root_summary,
)
from .output import output_phase
from .report import NexsortReport, SubtreeSortInfo
from .subtree import SubtreeSorter


@dataclass(frozen=True)
class NexsortOptions:
    """Tunable knobs of NEXSORT.

    Attributes:
        threshold_bytes: the sort threshold ``t`` in encoded bytes; None
            means twice the block size, the paper's recommended setting
            ("we set the threshold to be roughly twice the block size,
            which works well for most inputs").
        depth_limit: sort only down to this level (root = 1); None sorts
            head to toe.
        flat_optimization: enable graceful degeneration into external
            merge sort for flat inputs.
        cache_blocks: blocks of the memory budget spent on a
            :class:`~repro.io.bufferpool.BufferPool` in front of the
            device.  0 (the default) runs with no pool at all, keeping
            every I/O count bit-identical to the unpooled algorithm; a
            positive value is reserved from ``M`` like any other component
            and makes the output phase's run re-reads and stack paging
            cache hits instead of device I/Os.
        merge: run-formation / merge-kernel / compression knobs shared
            with the baselines (:class:`~repro.merge.engine.MergeOptions`);
            the defaults are the paper-faithful load-sort + heap + analytic
            accounting.
    """

    threshold_bytes: int | None = None
    depth_limit: int | None = None
    flat_optimization: bool = False
    cache_blocks: int = 0
    merge: MergeOptions = DEFAULT_MERGE_OPTIONS


class _OpenFrame:
    """The scan's state of one open element.

    ``frames``, the scan's list of these, *is* the path: it holds every
    open element's start location.  The external path stack holds those
    locations as bytes only when the scan's path outgrows the stack's
    buffer, so that it pages exactly as Lemma 4.11 counts.  Beside the
    location, a frame carries the constant-size per-element state the
    paper's augmented path stack also carries (Section 3.2): where the
    element's content begins, its pre-spliced end record and - in
    graceful-degeneration mode - the incomplete runs flushed for it so far
    (None until the first flush).  ``entry_size`` is the byte size of the
    element's path entry (the location's varint), which popping a virtual
    entry gives back to the path stack's room.
    """

    __slots__ = (
        "loc",
        "content_loc",
        "entry_size",
        "partial_runs",
        "flat_units",
        "flat_real",
        "end_record",
    )

    def __init__(
        self,
        loc: int,
        content_loc: int,
        entry_size: int,
        end_record: bytes | None,
    ):
        self.loc = loc
        self.content_loc = content_loc
        self.entry_size = entry_size
        self.partial_runs: list | None = None
        self.flat_units = 0
        self.flat_real = 0
        # Plain storage: the pre-spliced end-tag record this element
        # pushes when it closes - or, when keys are evaluated at end tags,
        # the record up to its position (see ``rule_pieces_for``).
        self.end_record = end_record


class NexSorter:
    """Configured NEXSORT instance.

    Args:
        spec: the ordering criterion.
        memory_blocks: the model parameter ``M``.
        options: threshold / depth limit / graceful degeneration.
    """

    def __init__(
        self,
        spec: SortSpec,
        memory_blocks: int,
        options: NexsortOptions | None = None,
    ):
        self.options = options or NexsortOptions()
        cache_blocks = self.options.cache_blocks
        if cache_blocks < 0:
            raise SortSpecError(
                f"cache_blocks cannot be negative: {cache_blocks}"
            )
        if memory_blocks < MINIMUM_NEXSORT_BLOCKS + cache_blocks:
            raise SortSpecError(
                f"NEXSORT needs at least {MINIMUM_NEXSORT_BLOCKS} memory "
                f"blocks (2 path stack, 1 data stack, 1 output-location "
                f"stack, 2 transfer buffers) plus the {cache_blocks} "
                f"buffer-pool blocks; got {memory_blocks}"
            )
        self.spec = spec
        self.memory_blocks = memory_blocks

    def sort(
        self,
        document: Document,
        tracer: Tracer | None = None,
        recovery=None,
        lease=None,
    ) -> tuple[Document, NexsortReport]:
        """Sort ``document``; returns (sorted document, full report).

        With a :class:`~repro.obs.tracer.Tracer`, the sort opens a
        ``document-scan`` span over the scanning phase (with nested
        ``subtree-sort`` / ``flat-element-merge`` spans) and an
        ``output-walk`` span over the output phase; ``tracer=None`` (the
        default) takes zero-cost fast paths, so untraced runs remain
        bit-identical to the paper-faithful counts.

        With a :class:`~repro.faults.RecoveryContext`, subtree sorts and
        merge passes checkpoint after every completed run and restart on
        transient device faults; faults that cannot be recovered surface
        as :class:`~repro.errors.SortRecoveryError` naming the last
        completed checkpoint.
        """
        compact = (
            document.compaction is not None
            and document.compaction.eliminate_end_tags
        )
        if compact and not self.spec.start_computable:
            raise SortSpecError(
                "end-tag elimination requires start-computable keys: with "
                "end tags gone there is nowhere to carry a "
                "subtree-evaluated key (store the document without "
                "compaction, or use an attribute/tag criterion)"
            )
        store = document.store
        device = store.device
        codec = document.codec
        block = device.block_size

        options = self.options
        threshold = (
            options.threshold_bytes
            if options.threshold_bytes is not None
            else 2 * block
        )
        depth_limit = options.depth_limit

        # A scan-phase fault (stack paging has no restartable unit) leaves
        # the session as the recovery context's error.
        with sort_session(
            store, self.memory_blocks, options.cache_blocks,
            options.merge.compress, tracer, recovery, lease,
        ) as budget:
            path_reservation = budget.reserve(2, "path-stack")
            output_reservation = budget.reserve(1, "output-location-stack")
            buffer_reservation = budget.reserve(2, "transfer-buffers")
            data_reservation = budget.reserve_rest("data-stack-and-sorter")
            data_blocks = max(1, data_reservation.blocks)
            capacity_bytes = data_blocks * block
            fan_in = max(2, data_blocks - 1)
            paging_target = store.io_target
            report = NexsortReport(
                element_count=document.element_count,
                max_fanout=document.max_fanout,
                input_blocks=document.block_count,
                memory_blocks=self.memory_blocks,
                block_size=block,
                threshold_bytes=threshold,
                depth_limit=depth_limit,
                flat_optimization=options.flat_optimization,
            )
            before_all = device.stats.snapshot()

            sorter = SubtreeSorter(
                store, codec, compact, capacity_bytes, fan_in, options.merge,
                tracer=tracer, recovery=recovery,
            )
            self._tracer = tracer
            # Graceful-degeneration replacement selection keeps at most one
            # partial-run writer open across flushes (it owns one transfer
            # buffer); (frame, writer) of the open run, or None.
            self._open_partial: tuple[_OpenFrame, object] | None = None
            self._run_lengths: list[int] = []
            data_stack = ExternalStack(paging_target, data_blocks, "data_stack")
            path_stack = ExternalStack(paging_target, 2, "path_stack")
            frames: list[_OpenFrame] = []
            root_pointer: RunPointer | None = None

            with maybe_span(
                tracer,
                "document-scan",
                threshold=threshold,
                memory_blocks=self.memory_blocks,
                depth_limit=depth_limit,
                flat=options.flat_optimization,
            ):
                try:
                    self._scan(
                        document,
                        frames,
                        data_stack,
                        path_stack,
                        codec,
                        store,
                        device,
                        sorter,
                        report,
                        compact,
                        threshold,
                        depth_limit,
                        fan_in,
                        capacity_bytes,
                    )
                except (IndexError, UnicodeDecodeError) as exc:
                    # The scan indexes stored records without bounds
                    # checks and decodes their texts as UTF-8.
                    if not raised_parsing_records(exc, NexSorter._scan):
                        raise
                    raise CodecError(
                        f"malformed stored record during the scan: {exc}"
                    ) from None

                # The data stack now holds exactly the root pointer.
                assert self._open_partial is None, "unclosed partial run"
                root_record = data_stack.pop()
                root_pointer = codec.decode(root_record)
                if not isinstance(root_pointer, RunPointer):
                    raise CodecError(
                        "stored document does not end with its root "
                        "element"
                    )
            report.data_stack_page_ins = data_stack.page_ins
            report.data_stack_page_outs = data_stack.page_outs
            report.path_stack_page_ins = path_stack.page_ins
            report.path_stack_page_outs = path_stack.page_outs
            report.sorting_stats = device.stats.since(before_all)

            # Output phase: depth-first traversal of the tree of sorted runs.
            # The span also covers the pool detach so deferred write-backs
            # are attributed to the phase that deferred them.
            before_output = device.stats.snapshot()
            with maybe_span(tracer, "output-walk"):
                handle, output_page_ins, output_page_outs = output_phase(
                    store, root_pointer, tracer=tracer
                )
                # Detach (and flush) the pool before the final snapshots so
                # the write-back of any still-dirty output blocks is
                # accounted.
                store.detach_pool()
            report.output_stack_page_ins = output_page_ins
            report.output_stack_page_outs = output_page_outs
            report.output_stats = device.stats.since(before_output)
            report.stats = device.stats.since(before_all)
            run_lengths = self._run_lengths + sorter.run_lengths
            if run_lengths:
                report.avg_run_length = sum(run_lengths) / len(run_lengths)
                report.max_run_length = max(run_lengths)

            for reservation in (
                path_reservation,
                output_reservation,
                buffer_reservation,
                data_reservation,
            ):
                reservation.release()

            output = Document(
                store, handle, document.stats, document.compaction
            )
            return output, report

    # -- sorting-phase internals ---------------------------------------------

    def _scan(
        self,
        document: Document,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        path_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
        capacity_bytes: int,
    ) -> None:
        """The document scan: annotate stored records by byte splicing.

        One pass over the raw stored records.  The annotated start pushed
        onto the data stack is assembled as ``type, flags, tag+attrs
        (verbatim slice), key atom (memoized per distinct tag+attrs), pos
        varint[, level varint]``, texts are pushed verbatim (their stored
        bytes already equal the token re-encode), and plain end tags are
        pre-spliced at the matching start.  Input records come a buffered
        block at a time from :meth:`~repro.io.runs.RunReader.batches`,
        whose block reads fire at the record that needs them (draining an
        already-buffered block is free in the device model).

        Per record the scan touches only local state.  Data-stack records
        collect in a batch while they fit in the stack's
        :attr:`~repro.io.stacks.ExternalStack.room`, and the scan tracks
        the stack top itself; path-stack entries stay *virtual* (``frames``
        holds every open location) while they fit in the path stack's
        buffer; tokens are counted locally.  Before every device access the
        scan can cause - an input block load, a page-out of either stack, a
        pop of a real path entry, a subtree sort, a degeneration flush -
        it settles all three, so each access sees the stacks and counters a
        record-at-a-time scan would have left.  Compacted and
        graceful-degeneration scans run the same code with the data stack's
        room forced to "push now".

        Keys evaluated at end tags (``ByText``/``ByChildPath`` in the
        spec; plain storage only) run the single-pass evaluator of
        :mod:`repro.keys` beside the scan: starts carry only ``pos``, and
        the end record carries the element's key and ``pos``.  With
        graceful degeneration, every text push and every close that leaves
        an element open may flush the deepest open element's complete
        children into an incomplete sorted run.
        """
        names = (
            document.compaction.names if document.compaction else None
        )
        names_coded = names is not None
        key_cache = StartKeyCache(self.spec, names)
        pieces_for = key_cache.pieces_for
        memo_get = key_cache.memo.get
        flat = self.options.flat_optimization
        # Keys evaluated at end tags: the evaluator's open-element frames
        # (None for start keys).
        key_frames: list | None = None
        if not self.spec.start_computable:
            key_frames = []
            rule_pieces_for = key_cache.rule_pieces_for

            def keyed_end(end_head: bytes) -> bytes:
                """The end record of the innermost element, carrying the
                key and pos the single pass evaluated."""
                key_frame = leave_element(key_frames)
                pos = key_frame.pos
                if pos < 0x80:
                    pos_varint = _VARINT1[pos]
                elif pos < 0x4000:
                    pos_varint = bytes((pos & 0x7F | 0x80, pos >> 7))
                else:
                    pos_varint = encode_varint(pos)
                if key_frame.start_key is None:
                    # A subtree-evaluated key: known only now.
                    return join(
                        (
                            end_head,
                            encoded_atom_bytes(end_key(key_frame)),
                            pos_varint,
                        )
                    )
                return end_head + pos_varint

        reader = store.open_reader(document.handle, category="input_scan")
        record_tokens = device.stats.record_tokens
        join = b"".join
        next_pos = 0
        # Open ancestors a closing element may have and still sort: a
        # subtree rooted below the depth limit never does (Section 3.2).
        sort_depth = depth_limit if depth_limit is not None else sys.maxsize
        # Data-stack records not handed over yet, and their fields (None
        # for a record without); ``top`` is the stack top they leave.
        batch: list[bytes] = []
        batch_fields: list = []
        # Graceful degeneration reads the data stack's fill after every
        # text and close; it and compacted scans push each record at once.
        batching = not (flat or compact)
        room = data_stack.room if batching else -1
        top = data_stack.total_bytes
        # Path-stack entries of the innermost ``virtual`` frames exist only
        # as their frames' locations; ``path_room`` is the path stack's
        # room left after them.
        virtual = 0
        path_room = path_stack.room
        tokens = 0

        def settle() -> None:
            """Hand the batch to the data stack and charge the counted
            tokens: what a record-at-a-time scan has done by now."""
            nonlocal tokens
            if batch:
                data_stack.extend(batch, batch_fields)
                batch.clear()
                batch_fields.clear()
            if tokens:
                record_tokens(tokens)
                tokens = 0

        def push_now(record: bytes, fields=None) -> int:
            """Push a record that pages the data stack out (any record
            when batching is off); returns its location."""
            nonlocal room, top
            settle()
            loc = data_stack.push(record, fields)
            top = data_stack.total_bytes
            if batching:
                room = data_stack.room
            return loc

        def push_path_now(loc: int) -> None:
            """Materialize the virtual path entries, then push the entry
            that pages the path stack out."""
            nonlocal virtual, path_room
            settle()
            if virtual:
                path_stack.extend(
                    [encode_varint(frame.loc) for frame in frames[-virtual:]]
                )
                virtual = 0
            path_stack.push(encode_varint(loc))
            path_room = path_stack.room

        def pop_path_now() -> None:
            """Pop a path entry the path stack holds (it may page in)."""
            nonlocal path_room
            settle()
            path_stack.pop()
            path_room = path_stack.room

        def close(frame: _OpenFrame) -> None:
            """Sort or flat-merge a just-closed element that may need it:
            the root, a subtree at the threshold, or any element under
            graceful degeneration."""
            nonlocal room, top
            settle()
            if flat and (
                frame.partial_runs or self._owns_open_partial(frame)
            ):
                self._finish_flat_element(
                    frame, frames, data_stack, codec, store, device,
                    report, compact, depth_limit, fan_in,
                )
            elif not frames or data_stack.total_bytes - frame.loc >= threshold:
                self._close_subtree(
                    frame, frames, data_stack, codec, store, device,
                    sorter, report, compact, threshold, depth_limit,
                    fan_in,
                )
            if flat and frames:
                flush()
            top = data_stack.total_bytes
            if batching:
                room = data_stack.room

        def flush() -> None:
            """Graceful degeneration: flush the deepest open element's
            complete children if memory has filled."""
            nonlocal top
            settle()
            self._maybe_flush_partial(
                frames, data_stack, codec, store, device, report,
                compact, capacity_bytes, depth_limit,
            )
            top = data_stack.total_bytes

        # Compacted streams store no end tags: element closes are
        # synthesized from level transitions with ``restore_end_tags``'
        # exact rules.
        open_levels: list[int] = []

        def end_element() -> None:
            """Close the innermost open element: pop its frame and path
            entry, push its end record (plain storage), then sort or
            flat-merge it if due."""
            nonlocal virtual, path_room, room, top, tokens
            frame = frames.pop()
            if virtual:  # arithmetic; popping a real entry may page in
                virtual -= 1
                path_room += frame.entry_size
            else:
                pop_path_now()
            if compact:
                open_levels.pop()
            else:
                if key_frames is None:
                    # Pre-spliced: it repeats the start's position.
                    record = frame.end_record
                    fields = END_FIELDS
                else:
                    record = keyed_end(frame.end_record)
                    fields = None
                size = len(record)
                if size <= room:
                    batch.append(record)
                    batch_fields.append(fields)
                    room -= size
                    top += size
                else:
                    push_now(record, fields)
                tokens += 1
            if flat or not frames or (
                top - frame.loc >= threshold and len(frames) <= sort_depth
            ):
                close(frame)

        for chunk in reader.batches():
            for record in chunk:
                token_type = record[0]
                if token_type == TYPE_START:
                    flags = record[1]
                    if compact:
                        if flags == 4:  # level-annotated, the stored form
                            end = _skip_tag_attrs(record, 2, names_coded)
                            tag_attrs = record[2:end]
                            stored_level, _ = read_varint(record, end)
                        else:
                            token = codec.decode(record)
                            if token.level is None:
                                raise CodecError(
                                    "compacted stream contains a start "
                                    "without a level"
                                )
                            tag_attrs = encode_tag_attrs(
                                token.tag, token.attrs, names
                            )
                            stored_level = token.level
                        while open_levels and open_levels[-1] >= stored_level:
                            end_element()
                    elif flags:
                        # Annotated start in plain storage (rare): decode,
                        # then re-encode the bare tag+attrs slice.
                        token = codec.decode(record)
                        tag_attrs = encode_tag_attrs(
                            token.tag, token.attrs, names
                        )
                    else:
                        tag_attrs = record[2:]
                    pos = next_pos
                    next_pos += 1
                    if pos < 0x80:
                        pos_varint = _VARINT1[pos]
                    elif pos < 0x4000:
                        pos_varint = bytes((pos & 0x7F | 0x80, pos >> 7))
                    elif pos < 0x200000:
                        pos_varint = bytes(
                            (
                                pos & 0x7F | 0x80,
                                pos >> 7 & 0x7F | 0x80,
                                pos >> 14,
                            )
                        )
                    else:
                        pos_varint = encode_varint(pos)
                    fields = None
                    if key_frames is not None:
                        # Plain storage: the key waits for the end tag.
                        tag, rule, start_key, end_record = rule_pieces_for(
                            tag_attrs
                        )
                        enter_element(key_frames, tag, rule, start_key, pos)
                        encoded = join((b"\x01\x02", tag_attrs, pos_varint))
                    elif compact:
                        _norm, enc_atom, _name, _end, _start = pieces_for(
                            tag_attrs
                        )
                        # The evaluator annotates depth, not the stored
                        # level (equal on any well-formed stream).
                        depth = len(frames) + 1
                        encoded = join(
                            (
                                b"\x01\x07",
                                tag_attrs,
                                enc_atom,
                                pos_varint,
                                _VARINT1[depth]
                                if depth < 0x80
                                else encode_varint(depth),
                            )
                        )
                        end_record = None
                    else:
                        norm, enc_atom, name_field, run_end, run_start = (
                            memo_get(tag_attrs) or pieces_for(tag_attrs)
                        )
                        encoded = join(
                            (b"\x01\x03", tag_attrs, enc_atom, pos_varint)
                        )
                        # The fields this split already found: an internal
                        # subtree sort reads them instead of the bytes.
                        fields = (norm, pos, run_start, run_end)
                        end_record = join((b"\x03\x02", name_field, pos_varint))
                    size = len(encoded)
                    if size <= room:
                        batch.append(encoded)
                        batch_fields.append(fields)
                        room -= size
                        loc = top
                        top += size
                    else:
                        loc = push_now(encoded, fields)
                    size = 1 if loc < 0x80 else (loc.bit_length() + 6) // 7
                    if size <= path_room:
                        path_room -= size
                        virtual += 1
                    else:
                        push_path_now(loc)
                    frames.append(
                        _OpenFrame(loc, loc + len(encoded), size, end_record)
                    )
                    if compact:
                        open_levels.append(stored_level)
                    tokens += 1
                elif token_type == TYPE_TEXT:
                    if compact:
                        if record[1] & 4:
                            stored_level, _ = read_varint(
                                record, _skip_frame(record, 2)
                            )
                            while (
                                open_levels
                                and open_levels[-1] > stored_level
                            ):
                                end_element()
                            depth = len(frames)
                            if stored_level != depth:  # pragma: no cover
                                # malformed levels
                                token = codec.decode(record)
                                record = codec.encode(
                                    Text(token.text, level=depth)
                                )
                        else:
                            token = codec.decode(record)
                            record = codec.encode(
                                Text(token.text, level=len(frames))
                            )
                    elif record[1]:  # annotated text in plain storage
                        record = codec.encode(
                            Text(codec.decode(record).text)
                        )
                    size = len(record)
                    if size <= room:
                        batch.append(record)
                        batch_fields.append(None)
                        room -= size
                        top += size
                    else:
                        push_now(record)
                    tokens += 1
                    if key_frames:
                        element_text(
                            key_frames,
                            _frame_payload(record[2:]).decode("utf-8"),
                        )
                    if flat and frames:
                        flush()
                elif token_type == TYPE_END:
                    if compact:
                        raise CodecError(
                            "compacted stream already contains end tags"
                        )
                    if not frames:
                        raise CodecError(
                            "unbalanced event stream during the scan"
                        )
                    end_element()
                elif token_type == TYPE_POINTER:
                    raise SortSpecError(
                        "unexpected run pointer in a document scan"
                    )
                else:
                    raise CodecError(
                        f"unknown token type byte {token_type}"
                    )
            settle()  # the next batch may load a block
        if compact:
            while open_levels:
                end_element()
        settle()
        if frames:
            raise CodecError("unbalanced event stream during the scan")

    def _close_subtree(
        self,
        frame: _OpenFrame,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
    ) -> None:
        """Apply the sorting condition to a just-closed element and, when
        it fires, pop + sort the subtree and push back its run pointer.
        ``frame`` is already popped; both scan loops share this path."""
        d_s = len(frames) + 1
        size = data_stack.total_bytes - frame.loc
        is_root = not frames
        should_sort = size >= threshold
        if depth_limit is not None and d_s > depth_limit + 1:
            should_sort = False
        if is_root:
            should_sort = True
        if not should_sort:
            return

        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - d_s)
        # Fields of the records that never left memory, for an internal
        # sort (an external one parses every record).
        fields = [] if sorter.sorts_internally(size) else None
        token_records = data_stack.pop_through(frame.loc, fields=fields)
        with maybe_span(
            self._tracer,
            "subtree-sort",
            id=len(report.subtree_sorts),
            size=size,
            level=d_s,
        ) as span:
            result = sorter.sort_records(
                token_records, size, d_s, sort_levels, fields=fields
            )
            if span is not None:
                span.set(
                    internal=result.internal,
                    units=result.units,
                    run_blocks=result.run.block_count,
                )
        report.subtree_sorts.append(
            SubtreeSortInfo(
                units=result.units,
                real_elements=result.real_elements,
                payload_bytes=result.payload_bytes,
                level=d_s,
                internal=result.internal,
                run_blocks=result.run.block_count,
            )
        )
        pointer = RunPointer(
            run_id=result.run.run_id,
            key=result.root_key,
            pos=result.root_pos,
            level=d_s if compact else None,
            element_count=result.real_elements,
            payload_bytes=result.payload_bytes,
        )
        data_stack.push(codec.encode(pointer))
        device.stats.record_tokens(1)

    def _maybe_flush_partial(
        self,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        report: NexsortReport,
        compact: bool,
        capacity_bytes: int,
        depth_limit: int | None,
    ) -> None:
        """Graceful degeneration: flush the deepest open element's complete
        children into an incomplete sorted run when memory has filled.

        An element below the depth limit keeps its children in document
        order, so it never flushes; its subtree pages as in plain NEXSORT.
        """
        if depth_limit is not None and len(frames) > depth_limit:
            return
        frame = frames[-1]
        region_bytes = data_stack.total_bytes - frame.content_loc
        # Flush when the incomplete subtree is about to overflow the data
        # stack's memory (one block of headroom, so the flush happens
        # before paging starts).  Deep shapes where the fill is spread
        # across ancestors fall back to ordinary stack paging.
        flush_at = max(device.block_size, capacity_bytes - device.block_size)
        if region_bytes < flush_at:
            return
        child_level = len(frames) + 1
        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - child_level)
        from . import flat as flat_mod

        records = data_stack.pop_through(frame.content_loc)
        texts, groups = flat_mod.groups_from_region(
            records, compact, codec.names is not None, child_level,
            sort_levels, device.stats,
            self.options.merge.counted_comparisons,
        )
        if not groups:
            # Nothing complete to flush (one giant open child): re-push.
            for record in records:
                data_stack.push(record)
            return
        self._write_partial_groups(frame, groups, store, device, report)
        frame.flat_units += sum(group.units for group in groups)
        frame.flat_real += sum(group.real for group in groups)
        # The element's own text stays on the stack for its final close.
        for text in texts:
            data_stack.push(text)

    # -- partial-run management (graceful degeneration) ----------------------

    def _owns_open_partial(self, frame: _OpenFrame) -> bool:
        return (
            self._open_partial is not None
            and self._open_partial[0] is frame
        )

    def _close_open_partial(self, report: NexsortReport) -> None:
        """Finish the open partial run and register it with its frame."""
        if self._open_partial is None:
            return
        owner, writer = self._open_partial
        self._open_partial = None
        self._add_partial_run(owner, writer.finish(), report)

    def _add_partial_run(
        self, frame: _OpenFrame, handle, report: NexsortReport
    ) -> None:
        """Register one finished partial run with its frame."""
        if frame.partial_runs is None:
            frame.partial_runs = [handle]
        else:
            frame.partial_runs.append(handle)
        self._run_lengths.append(handle.record_count)
        report.flat_partial_runs += 1
        if self._tracer is not None:
            self._tracer.event(
                "partial-run-flush",
                records=handle.record_count,
                blocks=handle.block_count,
            )

    def _write_partial_groups(
        self,
        frame: _OpenFrame,
        groups: list,
        store,
        device,
        report: NexsortReport,
    ) -> None:
        """Write one key-ordered batch of child groups as partial-run data.

        Default mode: one batch = one partial run, exactly the paper's
        incomplete-run construction.  With replacement selection, a batch
        whose first key is at or above the open run's last key *extends*
        that run (one comparison, charged), producing fewer, longer
        partial runs - the data stack plays the role of the selection
        heap, so no extra workspace is needed.
        """
        from . import flat as flat_mod

        if not self.options.merge.replacement_selection:
            writer = flat_mod.PartialRunWriter(store)
            writer.write_groups(groups)
            self._add_partial_run(frame, writer.finish(), report)
            return
        if self._owns_open_partial(frame):
            writer = self._open_partial[1]
            device.stats.record_comparisons(1)
            if not writer.can_extend(groups):
                self._close_open_partial(report)
        else:
            # A different frame's run is open: close it (one open
            # partial-run writer at a time bounds buffer memory).
            self._close_open_partial(report)
        if self._open_partial is None:
            self._open_partial = (
                frame,
                flat_mod.PartialRunWriter(store),
            )
        self._open_partial[1].write_groups(groups)

    def _finish_flat_element(
        self,
        frame: _OpenFrame,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        report: NexsortReport,
        compact: bool,
        depth_limit: int | None,
        fan_in: int,
    ) -> None:
        """Close an element that has incomplete sorted runs: sort the
        remaining children into a final partial run, merge all of its
        partial runs, and collapse the element to a pointer."""
        from . import flat as flat_mod

        d_s = len(frames) + 1
        child_level = d_s + 1
        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - child_level)
        names_coded = codec.names is not None
        records = data_stack.pop_through(frame.loc)
        atom, pos = subtree_root_summary(records, compact, names_coded)
        key = decode_key_atom(atom, 0)[0] if atom is not None else MISSING_KEY
        start = records[0]
        tag_attrs = start[2 : _skip_tag_attrs(start, 2, names_coded)]
        region = records[1:]
        if region and region[-1][0] == TYPE_END:
            region = region[:-1]
        texts, groups = flat_mod.groups_from_region(
            region, compact, names_coded, child_level, sort_levels,
            device.stats, self.options.merge.counted_comparisons,
        )
        if groups:
            self._write_partial_groups(frame, groups, store, device, report)
            frame.flat_units += sum(group.units for group in groups)
            frame.flat_real += sum(group.real for group in groups)
        if self._owns_open_partial(frame):
            self._close_open_partial(report)

        # While merging this element's partial runs, the data-stack region
        # is empty (it was just popped), so its buffer blocks serve as
        # merge input buffers on top of the two transfer buffers.  Blocks
        # held by the buffer pool stay with the pool.
        flat_fan_in = max(
            fan_in, self.memory_blocks - 4 - self.options.cache_blocks
        )

        with maybe_span(
            self._tracer,
            "flat-element-merge",
            partial_runs=len(frame.partial_runs),
            level=d_s,
            fanin=flat_fan_in,
        ):
            # The run's own records: annotations stripped, the texts
            # joined into one, the level only in compacted mode.
            level = encode_varint(d_s) if compact else None
            writer = store.create_writer("run_write")
            if compact:
                writer.write_record(b"\x01\x04" + tag_attrs + level)
            else:
                writer.write_record(b"\x01\x00" + tag_attrs)
            if texts:
                frame_bytes = _text_frame(
                    [text[2 : _skip_frame(text, 2)] for text in texts]
                )
                if compact:
                    writer.write_record(b"\x02\x04" + frame_bytes + level)
                else:
                    writer.write_record(b"\x02\x00" + frame_bytes)
            for group in flat_mod.iter_merged_groups(
                store, frame.partial_runs, flat_fan_in,
                options=self.options.merge,
                tracer=self._tracer,
            ):
                # No read inside a group: one call per group.
                writer.write_records(group.token_bytes)
            if not compact:
                writer.write_record(
                    b"\x03\x00"
                    + tag_attrs[: _name_field_end(tag_attrs, 0, names_coded)]
                )
            handle = writer.finish()
            report.flat_final_merges += 1

        units = 1 + frame.flat_units
        real = 1 + frame.flat_real
        report.subtree_sorts.append(
            SubtreeSortInfo(
                units=units,
                real_elements=real,
                payload_bytes=handle.payload_bytes,
                level=d_s,
                internal=False,
                run_blocks=handle.block_count,
            )
        )
        pointer = RunPointer(
            run_id=handle.run_id,
            key=key,
            pos=pos,
            level=d_s if compact else None,
            element_count=real,
            payload_bytes=handle.payload_bytes,
        )
        data_stack.push(codec.encode(pointer))
        device.stats.record_tokens(1)


def nexsort(
    document: Document,
    spec: SortSpec,
    memory_blocks: int,
    threshold_bytes: int | None = None,
    depth_limit: int | None = None,
    flat_optimization: bool = False,
    cache_blocks: int = 0,
    merge_options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
    lease=None,
) -> tuple[Document, NexsortReport]:
    """Convenience wrapper: sort ``document`` with NEXSORT."""
    options = NexsortOptions(
        threshold_bytes=threshold_bytes,
        depth_limit=depth_limit,
        flat_optimization=flat_optimization,
        cache_blocks=cache_blocks,
        merge=merge_options or DEFAULT_MERGE_OPTIONS,
    )
    return NexSorter(spec, memory_blocks, options).sort(
        document, tracer, recovery=recovery, lease=lease
    )
