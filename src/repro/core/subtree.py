"""Sorting one complete subtree (Figure 4, Line 11).

When NEXSORT pops a complete subtree off the data stack it must sort it and
write the result to a sorted run.  "Depending on the actual size of the
subtree, sorting on Line 11 may use either an internal-memory algorithm or
an external-memory algorithm, e.g., internal-memory recursive sort or
key-path external merge sort" (Section 3.1).  Both paths live here:

* **internal** - one bottom-up pass over the popped records: each child
  list is sorted by ``(key, position)``, stably, when its parent closes,
  and the run records are spliced from the input's own encodings
  (:func:`repro.core.columnar.sort_subtree_records`).
* **external** - the subtree exceeds the sorter's memory: splice its
  key-path records (paths relative to the subtree root) from the same raw
  records, form runs of memory size under normalized byte keys, merge,
  and splice the sorted records back into the run
  (:func:`repro.core.columnar.form_subtree_runs` and
  :func:`repro.core.columnar.emit_output_columnar`).  This is the path
  taken when a subtree approaches the ``k * t`` size bound of Section 3.

Neither path decodes a token, and there is no token-object subtree tree:
graceful degeneration (:mod:`repro.core.flat`) sorts its child groups with
the same raw-record kernel as the internal path.

Tokens inside a finished run carry no keys or positions (they are never
sorted again; only the RunPointer pushed back on the data stack keeps the
root's key), which is itself a small compaction.

Depth-limited sorting (Section 3.2): only the top ``sort_levels`` relative
levels have their child lists reordered; deeper levels keep document order.
The external path implements this by giving the path components deeper
than ``sort_levels + 1`` the missing key atom, so their position tie-break
preserves the original order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial

from ..baselines.merging import merge_to_stream
from ..errors import CodecError, DeviceFault
from ..io.runs import RunHandle, RunStore, frame_records
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import DEFAULT_MERGE_OPTIONS, MergeOptions, RunFormer
from ..xml.codec import TokenCodec, decode_key_atom
from .columnar import (
    emit_output_columnar,
    fast_path_key,
    form_subtree_runs,
    sort_subtree_records,
    subtree_root_summary,
)
from ..xml.tokens import MISSING_KEY, Token


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
        fields: list | None = None,
    ) -> SubtreeResult:
        """Sort one subtree straight from its encoded data-stack records.

        Args:
            records: the subtree's encoded tokens, in document order.
            payload_bytes: their total encoded size (known from the stack).
            base_level: absolute level of the subtree root (``d_s``).
            sort_levels: how many top relative levels to sort (None = all;
                0 = none, the subtree is written through unsorted).
            fields: the records' data-stack fields, aligned with
                ``records`` (see
                :func:`repro.core.columnar.sort_subtree_records`); only
                an internal sort reads them, and they change no output.

        No token is ever materialized.  When the subtree fits in memory
        one bottom-up pass sorts each child list stably as its parent
        closes and splices the run records from the input's own encoded
        slices (:func:`repro.core.columnar.sort_subtree_records`).  A larger
        subtree takes the key-path external merge sort over spliced
        records (:meth:`_sort_external`).  Malformed records raise
        :class:`~repro.errors.CodecError`.
        """
        internal = self.sorts_internally(payload_bytes)
        sort = (
            partial(self._sort_internal, fields=fields)
            if internal
            else self._sort_external
        )
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
                lambda attempt_records: sort(
                    attempt_records, base_level, sort_levels, counts
                ),
                records,
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

    def sorts_internally(self, payload_bytes: int) -> bool:
        """True if a subtree of ``payload_bytes`` fits the internal sort."""
        return payload_bytes <= self.capacity_bytes

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

    def _run_recoverably(
        self, attempt, records: list[bytes]
    ) -> tuple[RunHandle, int]:
        """Run one subtree-sort ``attempt`` on ``records``, restarting it
        on transient faults.

        A subtree sort regenerates everything from its in-memory input,
        so no device hold is needed; a restart only has to clean up what
        the failed attempt left behind - runs it registered (the external
        path's formation/merge intermediates) and their ``run_lengths``
        entries.  The external path consumes its records, so under a
        recovery context each attempt gets its own copy of the list.
        """
        unit = self._sorted_subtrees
        self._sorted_subtrees += 1
        if self.recovery is None:
            return attempt(records)

        runs_before = self.store.live_run_ids()
        lengths_before = len(self.run_lengths)

        def attempt_once() -> tuple[RunHandle, int]:
            try:
                return attempt(list(records))
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
        fields: list | None = None,
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
            counted=self.options.counted_comparisons,
            fields=fields,
        )
        counts.append((units, real))
        writer = self.store.create_writer("run_write")
        # One call for the whole run, framed in one join: nothing reads
        # or charges between its block writes, so they land exactly where
        # a per-record loop would put them.
        try:
            writer.write_framed(*frame_records(out))
        except DeviceFault:
            writer.abandon()
            raise
        stats.record_tokens(len(out))
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
        record by the time the write it may cause happens, and the run's
        tokens once it is written.  Formation consumes ``records``.
        """
        device = self.store.device
        stats = device.stats
        options = self.options
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
                    (records,), self.compact, names_coded, sort_levels,
                    former, stats,
                )
            )
            runs = former.finish()
            if span is not None:
                span.set(runs=len(runs))
        self.run_lengths.extend(former.run_lengths)

        stream, _passes, _width = merge_to_stream(
            self.store, runs, fast_path_key, self.fan_in, options=options,
            tracer=self.tracer, recovery=self.recovery,
        )
        writer = self.store.create_writer("run_write")
        try:
            count = emit_output_columnar(
                stream, writer, device,
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
