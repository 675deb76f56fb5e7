"""Sorting one complete subtree (Figure 4, Line 11).

When NEXSORT pops a complete subtree off the data stack it must sort it and
write the result to a sorted run.  "Depending on the actual size of the
subtree, sorting on Line 11 may use either an internal-memory algorithm or
an external-memory algorithm, e.g., internal-memory recursive sort or
key-path external merge sort" (Section 3.1).  Both paths live here:

* **internal** - parse the popped records into a node tree by field
  offsets, sort every child list by ``(key, position)`` in one batched
  argsort, and splice the run records from the input's own encodings
  (:func:`repro.core.columnar.sort_subtree_records`).
* **external** - the subtree exceeds the sorter's memory: splice its
  key-path records (paths relative to the subtree root) from the same raw
  records, form runs of memory size under normalized byte keys, merge,
  and splice the sorted records back into the run
  (:func:`repro.core.columnar.form_subtree_runs` and
  :func:`repro.core.columnar.emit_output_columnar`).  This is the path
  taken when a subtree approaches the ``k * t`` size bound of Section 3.

Neither path decodes a token.  The token-object helpers kept here
(:func:`build_subtree`, :func:`sort_node_tree`,
:func:`serialize_node_tree`, :func:`count_units`) serve graceful
degeneration (:mod:`repro.core.flat`).

Tokens inside a finished run carry no keys or positions (they are never
sorted again; only the RunPointer pushed back on the data stack keeps the
root's key), which is itself a small compaction.

Depth-limited sorting (Section 3.2): only the top ``sort_levels`` relative
levels have their child lists reordered; deeper levels keep document order.
The external path implements this by giving too-deep path components the
missing key atom, so their position tie-break preserves the original order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..baselines.merging import merge_to_stream
from ..errors import CodecError, DeviceFault
from ..io.runs import RunHandle, RunStore
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import (
    DEFAULT_MERGE_OPTIONS,
    MergeOptions,
    RunFormer,
    embedded_key_of,
)
from ..xml.codec import TokenCodec, decode_key_atom
from .columnar import (
    emit_output_columnar,
    fast_path_key,
    form_subtree_runs,
    normalized_atom_bytes,
    sort_sibling_groups,
    sort_subtree_records,
    subtree_root_summary,
)
from ..xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    Token,
)


class _Node:
    """One element (or collapsed pointer) in a subtree being sorted."""

    __slots__ = ("start", "pointer", "texts", "children", "key", "pos")

    def __init__(
        self,
        start: StartTag | None = None,
        pointer: RunPointer | None = None,
    ):
        self.start = start
        self.pointer = pointer
        self.texts: list[str] = []
        self.children: list[_Node] = []
        token = start if start is not None else pointer
        self.key = token.key if token.key is not None else MISSING_KEY
        self.pos = token.pos if token.pos is not None else 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer is not None

    def order_key(self) -> tuple:
        return (self.key, self.pos)


@dataclass(frozen=True)
class SubtreeResult:
    """Outcome of one subtree sort."""

    run: RunHandle
    units: int
    real_elements: int
    payload_bytes: int
    root_key: tuple
    root_pos: int
    internal: bool


def build_subtree(tokens: list[Token], compact: bool) -> _Node:
    """Assemble the node tree of a popped subtree.

    In plain mode the tokens are matched Start/End pairs; keys may travel
    on either (end tags for subtree-evaluated criteria).  In compacted mode
    there are no end tags and nesting is recovered from levels.
    """
    root: _Node | None = None
    stack: list[_Node] = []
    if compact:
        levels: list[int] = []
        for token in tokens:
            if isinstance(token, Text):
                if token.level is not None:
                    while levels and levels[-1] > token.level:
                        levels.pop()
                        stack.pop()
                if stack:
                    stack[-1].texts.append(token.text)
                continue
            if isinstance(token, (StartTag, RunPointer)):
                level = token.level
                if level is None:
                    raise CodecError("compacted token without level")
                while levels and levels[-1] >= level:
                    levels.pop()
                    stack.pop()
                node = (
                    _Node(start=token)
                    if isinstance(token, StartTag)
                    else _Node(pointer=token)
                )
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
                if isinstance(token, StartTag):
                    stack.append(node)
                    levels.append(level)
            else:
                raise CodecError(f"unexpected token in compact subtree: "
                                 f"{token!r}")
    else:
        for token in tokens:
            if isinstance(token, StartTag):
                node = _Node(start=token)
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
                stack.append(node)
            elif isinstance(token, Text):
                if stack:
                    stack[-1].texts.append(token.text)
            elif isinstance(token, EndTag):
                node = stack.pop()
                if token.key is not None:
                    node.key = token.key
                if token.pos is not None:
                    node.pos = token.pos
            elif isinstance(token, RunPointer):
                node = _Node(pointer=token)
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
            else:  # pragma: no cover - defensive
                raise CodecError(f"unexpected token {token!r}")
        if stack:
            raise CodecError("subtree tokens are unbalanced")
    if root is None:
        raise CodecError("subtree tokens contain no element")
    return root


_POS = struct.Struct(">Q")


def sort_node_tree(
    root: _Node,
    sort_levels: int | None,
    device_stats,
    counted: bool = False,
    prefix_width: int | None = None,
) -> None:
    """Sort every child list of a node tree by ``(key, position)``.

    ``sort_levels`` limits sorting to the top levels of the subtree
    (None = all levels).  One DFS gathers every sibling group with more
    than one member and :func:`repro.core.columnar.argsort_groups` orders
    all of them in one batched stable argsort over engine-normalized
    ``key + position`` bytes (order- and equality-faithful to the
    ``(key, pos)`` tuples).  Comparisons are charged to the CPU model -
    analytically (``n * ceil(log2 n)`` per group) by default, or as
    actually counted when ``counted`` is set
    (:func:`repro.core.columnar.sort_sibling_groups`).
    """
    groups: list[list[_Node]] = []
    group_keys: list[list[bytes]] = []
    memo: dict[tuple, bytes] = {}
    pack_pos = _POS.pack
    work: list[tuple[_Node, int]] = [(root, 1)]
    while work:
        node, level = work.pop()
        children = node.children
        if (
            (sort_levels is None or level <= sort_levels)
            and len(children) > 1
        ):
            keys = []
            append = keys.append
            for child in children:
                norm = memo.get(child.key)
                if norm is None:
                    norm = normalized_atom_bytes(child.key)
                    memo[child.key] = norm
                append(norm + pack_pos(child.pos))
            groups.append(children)
            group_keys.append(keys)
        for child in children:
            if not child.is_pointer:
                work.append((child, level + 1))
    sort_sibling_groups(
        groups, group_keys, device_stats, prefix_width, counted
    )


def serialize_node_tree(
    root: _Node, base_level: int, compact: bool
) -> Iterator[Token]:
    """Emit the sorted subtree as clean run tokens (annotations stripped)."""
    work: list[tuple[str, _Node, int]] = [("node", root, base_level)]
    while work:
        kind, node, level = work.pop()
        if kind == "end":
            yield EndTag(node.start.tag)
            continue
        if node.is_pointer:
            pointer = node.pointer
            yield RunPointer(
                run_id=pointer.run_id,
                level=level if compact else None,
                element_count=pointer.element_count,
                payload_bytes=pointer.payload_bytes,
            )
            continue
        yield StartTag(
            node.start.tag,
            node.start.attrs,
            level=level if compact else None,
        )
        if node.texts:
            yield Text("".join(node.texts), level=level if compact else None)
        if not compact:
            work.append(("end", node, level))
        for child in reversed(node.children):
            work.append(("node", child, level + 1))


def count_units(tokens: Iterable[Token]) -> tuple[int, int]:
    """(units, real elements) of a token sequence.

    A unit is one element as seen by *this* sort: a start tag or a pointer
    (the paper's ``s_i`` counts collapsed subtrees as single elements).
    Real elements expand pointers to what their runs contain.
    """
    units = 0
    real = 0
    for token in tokens:
        if isinstance(token, StartTag):
            units += 1
            real += 1
        elif isinstance(token, RunPointer):
            units += 1
            real += token.element_count
    return units, real


class SubtreeSorter:
    """Sorts popped subtrees into runs, choosing internal vs. external."""

    def __init__(
        self,
        store: RunStore,
        codec: TokenCodec,
        compact: bool,
        capacity_bytes: int,
        fan_in: int,
        options: MergeOptions | None = None,
        tracer: Tracer | None = None,
        recovery=None,
    ):
        self.store = store
        self.codec = codec
        self.compact = compact
        self.capacity_bytes = capacity_bytes
        self.fan_in = fan_in
        self.options = options or DEFAULT_MERGE_OPTIONS
        self.tracer = tracer
        self.recovery = recovery
        #: Record counts of every formation run written by external
        #: subtree sorts (run-length reporting rides on this).
        self.run_lengths: list[int] = []
        self._sorted_subtrees = 0

    def sort_records(
        self,
        records: list[bytes],
        payload_bytes: int,
        base_level: int,
        sort_levels: int | None,
    ) -> SubtreeResult:
        """Sort one subtree straight from its encoded data-stack records.

        Args:
            records: the subtree's encoded tokens, in document order.
            payload_bytes: their total encoded size (known from the stack).
            base_level: absolute level of the subtree root (``d_s``).
            sort_levels: how many top relative levels to sort (None = all;
                0 = none, the subtree is written through unsorted).

        No token is ever materialized.  When the subtree fits in memory
        the records are parsed by field offsets, sibling groups are
        ordered with one batched argsort, and run records are spliced
        from the input's own encoded slices
        (:func:`repro.core.columnar.sort_subtree_records`).  A larger
        subtree takes the key-path external merge sort over spliced
        records (:meth:`_sort_external`).  Malformed records raise
        :class:`~repro.errors.CodecError`.
        """
        internal = payload_bytes <= self.capacity_bytes
        sort = self._sort_internal if internal else self._sort_external
        counts: list[tuple[int, int]] = []
        try:
            atom, root_pos = subtree_root_summary(
                records, self.compact, self.codec.names is not None
            )
            root_key = (
                decode_key_atom(atom, 0)[0]
                if atom is not None
                else MISSING_KEY
            )
            run, written = self._run_recoverably(
                lambda: sort(records, base_level, sort_levels, counts)
            )
        except (IndexError, OverflowError, struct.error,
                UnicodeDecodeError) as exc:
            # The byte-record kernels index without bounds checks.
            raise CodecError(f"malformed subtree records: {exc}") from None
        units, real = counts[-1]
        return SubtreeResult(
            run=run,
            units=units,
            real_elements=real,
            payload_bytes=written,
            root_key=root_key,
            root_pos=root_pos,
            internal=internal,
        )

    def sort_tokens(
        self,
        tokens: list[Token],
        payload_bytes: int,
        base_level: int,
        sort_levels: int | None,
    ) -> SubtreeResult:
        """:meth:`sort_records` of the encoded tokens."""
        return self.sort_records(
            self.codec.encode_batch(tokens), payload_bytes, base_level,
            sort_levels,
        )

    def _run_recoverably(self, attempt) -> tuple[RunHandle, int]:
        """Run one subtree-sort attempt, restarting it on transient faults.

        A subtree sort regenerates everything from its in-memory input,
        so no device hold is needed; a restart only has to clean up what
        the failed attempt left behind - runs it registered (the external
        path's formation/merge intermediates) and their ``run_lengths``
        entries.
        """
        unit = self._sorted_subtrees
        self._sorted_subtrees += 1
        if self.recovery is None:
            return attempt()

        runs_before = self.store.live_run_ids()
        lengths_before = len(self.run_lengths)

        def attempt_once() -> tuple[RunHandle, int]:
            try:
                return attempt()
            except DeviceFault:
                for run_id in self.store.live_run_ids() - runs_before:
                    self.store.free(run_id)
                del self.run_lengths[lengths_before:]
                raise

        run, written = self.recovery.attempt(
            "subtree-sort", unit, attempt_once
        )
        self.recovery.checkpoint("subtree-sort", unit, run_id=run.run_id)
        return run, written

    def _sort_internal(
        self,
        records: list[bytes],
        base_level: int,
        sort_levels: int | None,
        counts: list[tuple[int, int]],
    ) -> tuple[RunHandle, int]:
        """In-memory sort of one subtree's raw records into a run."""
        stats = self.store.device.stats
        out, units, real = sort_subtree_records(
            records,
            self.compact,
            self.codec.names is not None,
            base_level,
            sort_levels,
            stats,
            self.options.keys.prefix_width,
            counted=self.options.counted_comparisons,
        )
        counts.append((units, real))
        writer = self.store.create_writer("run_write")
        count = 0
        try:
            for record in out:
                writer.write_record(record)
                count += 1
        except DeviceFault:
            writer.abandon()
            raise
        stats.record_tokens(count)
        handle = writer.finish()
        return handle, handle.payload_bytes

    # -- external-memory (key-path) path -------------------------------------

    def _sort_external(
        self,
        records: list[bytes],
        base_level: int,
        sort_levels: int | None,
        counts: list[tuple[int, int]],
    ) -> tuple[RunHandle, int]:
        """Key-path external merge sort of one subtree's raw records.

        Run formation takes spliced key-path records and normalized keys
        (:func:`repro.core.columnar.form_subtree_runs`), the merge keys
        by path bytes without decoding, and the sorted records are
        spliced back into the run dialect
        (:func:`repro.core.columnar.emit_output_columnar`).  Tokens are
        charged where the token pipeline charged them: one per formed
        record as it is added, and the run's tokens once it is written.
        """
        device = self.store.device
        stats = device.stats
        options = self.options
        embedded = options.embedded_keys
        names_coded = self.codec.names is not None
        former = RunFormer(
            self.store, self.capacity_bytes, options, tracer=self.tracer,
            recovery=self.recovery,
        )
        with maybe_span(
            self.tracer, "run-formation", mode=options.run_formation
        ) as span:
            counts.append(
                form_subtree_runs(
                    records, self.compact, names_coded, sort_levels,
                    former.bulk_adder(), stats.record_tokens,
                )
            )
            runs = former.finish()
            if span is not None:
                span.set(runs=len(runs))
        self.run_lengths.extend(former.run_lengths)
        if not embedded:
            # Without embedded keys the first merge pass has always run
            # the record-at-a-time heap, charging comparisons as records
            # move; a pass replayed from key sidecars charges them at its
            # end, which a striped device's stall clock observes.
            for run in runs:
                self.store.key_sidecars.pop(run.run_id, None)

        key_of = embedded_key_of if embedded else fast_path_key
        stream, _passes, _width = merge_to_stream(
            self.store, runs, key_of, self.fan_in, options=options,
            tracer=self.tracer, recovery=self.recovery,
        )
        writer = self.store.create_writer("run_write")
        try:
            count = emit_output_columnar(
                stream, writer, device,
                strip_embedded=embedded,
                names_coded=names_coded,
                emit_ends=not self.compact,
                base_level=base_level,
                levels=self.compact,
                charge_tokens=False,
            )
        except DeviceFault:
            writer.abandon()
            raise
        stats.record_tokens(count)
        handle = writer.finish()
        return handle, handle.payload_bytes
