"""External merge sort of key-path records - the paper's baseline.

This is the second "popular algorithm" of Section 1: convert the document
to its key-path representation (Table 1), sort the records with the
classic external merge sort (run formation under the memory budget, then
``(M/B - 1)``-way merge passes), and decode the sorted records back into a
document.  Its I/O complexity carries the flat-file ``log_{M/B}(N/B)``
factor, which is what NEXSORT beats.

Like the paper's implementation, the baseline supports the Section 3.2
compaction techniques (name dictionaries, end-tag elimination) but only
start-computable ordering criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.columnar import (
    StartKeyCache,
    emit_output_columnar,
    fast_path_key,
    form_subtree_runs,
    raised_parsing_records,
)
from ..errors import CodecError, DeviceFault, SortSpecError
from ..io.budget import MemoryBudget
from ..io.stats import StatsSnapshot
from ..keys import SortSpec
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import DEFAULT_MERGE_OPTIONS, MergeOptions, RunFormer
from ..xml.document import Document, record_batches
from .merging import merge_to_stream

#: Memory blocks not available for run formation: one block each for the
#: input scan buffer and the run output buffer.
_RESERVED_BLOCKS = 2

#: Records per grouped writer call on the fused output path.
_EMIT_CHUNK = 1024


@dataclass
class MergeSortReport:
    """What one external merge sort run did."""

    element_count: int = 0
    input_blocks: int = 0
    memory_blocks: int = 0
    fan_in: int = 0
    initial_runs: int = 0
    avg_run_length: float = 0.0
    max_run_length: int = 0
    materialized_merge_passes: int = 0
    final_merge_width: int = 0
    stats: StatsSnapshot = field(default_factory=StatsSnapshot)

    @property
    def total_passes(self) -> int:
        """Passes over the data: formation + merges (final one included)."""
        final = 1 if self.final_merge_width > 1 else 0
        return 1 + self.materialized_merge_passes + final

    @property
    def merge_comparisons(self) -> int:
        """Comparisons spent inside merge passes (analytic or counted)."""
        return self.stats.merge_comparisons

    @property
    def total_ios(self) -> int:
        return self.stats.total_ios

    @property
    def simulated_seconds(self) -> float:
        return self.stats.elapsed_seconds()

    def io_breakdown(self) -> dict[str, int]:
        """Per-category total block accesses (reads + writes)."""
        return self.stats.io_breakdown()


class ExternalMergeSorter:
    """Sorts documents via their key-path representation.

    Args:
        spec: the ordering criterion; must be start-computable.
        memory_blocks: the model parameter ``M`` (in blocks).
        cache_blocks: blocks of ``M`` spent on a
            :class:`~repro.io.bufferpool.BufferPool`; 0 keeps the classic
            unpooled behaviour bit-for-bit.  The cache comes out of the
            merge fan-in - it is charged memory, not spare memory.
        merge_options: run-formation / merge-kernel / compression knobs
            (:class:`~repro.merge.engine.MergeOptions`); the defaults
            reproduce the paper's algorithm bit-for-bit.
    """

    def __init__(
        self,
        spec: SortSpec,
        memory_blocks: int,
        cache_blocks: int = 0,
        merge_options: MergeOptions | None = None,
    ):
        if not spec.start_computable:
            raise SortSpecError(
                "external merge sort needs start-computable keys: a "
                "child's key path embeds its ancestors' keys while those "
                "ancestors are still open (see DESIGN.md); use NEXSORT "
                "for subtree-evaluated criteria"
            )
        if cache_blocks < 0:
            raise SortSpecError(
                f"cache_blocks cannot be negative: {cache_blocks}"
            )
        if memory_blocks < _RESERVED_BLOCKS + 1 + cache_blocks:
            raise SortSpecError(
                f"external merge sort needs at least "
                f"{_RESERVED_BLOCKS + 1} memory blocks plus the "
                f"{cache_blocks} buffer-pool blocks"
            )
        self.spec = spec
        self.memory_blocks = memory_blocks
        self.cache_blocks = cache_blocks
        self.merge_options = merge_options or DEFAULT_MERGE_OPTIONS

    def sort(
        self,
        document: Document,
        tracer: Tracer | None = None,
        recovery=None,
        lease=None,
    ) -> tuple[Document, MergeSortReport]:
        """Sort ``document``; returns (sorted document, report).

        With a tracer, the phases appear as ``run-formation``,
        ``merge-pass`` (one per materialized pass), and ``output-emit``
        root spans; ``tracer=None`` keeps the untraced fast path.

        With a :class:`~repro.faults.RecoveryContext`, merge passes
        checkpoint after every completed run and restart on transient
        device faults; unrecoverable faults surface as
        :class:`~repro.errors.SortRecoveryError`.
        """
        if recovery is None:
            return self._sort(document, tracer, None, lease)
        try:
            return self._sort(document, tracer, recovery, lease)
        except DeviceFault as fault:
            raise recovery.to_error(fault) from fault

    def _sort(
        self,
        document: Document,
        tracer: Tracer | None,
        recovery,
        lease=None,
    ) -> tuple[Document, MergeSortReport]:
        store = document.store
        device = store.device
        names = (
            document.compaction.names if document.compaction else None
        )
        if lease is not None:
            if lease.budget.total_blocks != self.memory_blocks:
                raise SortSpecError(
                    f"lease grants {lease.budget.total_blocks} blocks but "
                    f"the sorter was configured for {self.memory_blocks}"
                )
            budget = lease.budget
        else:
            budget = MemoryBudget(self.memory_blocks)
        buffers = budget.reserve(_RESERVED_BLOCKS, "io-buffers")
        if self.cache_blocks:
            from ..io.bufferpool import BufferPool

            store.attach_pool(
                BufferPool(
                    device,
                    self.cache_blocks,
                    budget=budget,
                    owner="buffer-pool",
                    tracer=tracer,
                )
            )
        formation = budget.reserve_rest("run-formation")
        capacity_bytes = formation.blocks * device.block_size
        fan_in = max(2, self.memory_blocks - 1 - self.cache_blocks)
        prior_compression = store.compression
        if self.merge_options.compress is not None:
            from ..io.compress import CompressionConfig

            store.compression = CompressionConfig(
                codec=self.merge_options.compress,
                capacity=self.merge_options.compress_capacity,
            )

        try:
            report = MergeSortReport(
                element_count=document.element_count,
                input_blocks=document.block_count,
                memory_blocks=self.memory_blocks,
                fan_in=fan_in,
            )
            before = device.stats.snapshot()

            # Pass 1: scan the input, form sorted initial runs.
            options = self.merge_options
            former = RunFormer(
                store, capacity_bytes, options, tracer=tracer,
                recovery=recovery,
            )
            with maybe_span(
                tracer, "run-formation", mode=options.run_formation
            ) as span:
                # Fused scan: key-evaluate and encode by byte splicing in
                # one loop, feeding the former normalized bytes keys; its
                # tokens are charged once, after the scan.
                compact = (
                    document.compaction is not None
                    and document.compaction.eliminate_end_tags
                )
                reader = store.open_reader(
                    document.handle, category="input_scan"
                )
                try:
                    units, _real = form_subtree_runs(
                        record_batches(reader), compact,
                        names is not None, None, former, None,
                        start_keys=StartKeyCache(self.spec, names).pieces_for,
                    )
                except (IndexError, UnicodeDecodeError) as exc:
                    # The fused scan indexes stored records without
                    # bounds checks.
                    if not raised_parsing_records(exc, form_subtree_runs):
                        raise
                    raise CodecError(
                        f"malformed stored record during the scan: {exc}"
                    ) from None
                device.stats.record_tokens(units)
                initial_runs = former.finish()
                if span is not None:
                    span.set(runs=len(initial_runs))
            report.initial_runs = len(initial_runs)
            if former.run_lengths:
                report.avg_run_length = sum(former.run_lengths) / len(
                    former.run_lengths
                )
                report.max_run_length = max(former.run_lengths)

            # Merge passes, streaming the final merge into the output.
            # Path-only parse into normalized bytes: same ordering as
            # the decoded tuple key, no tag/attr/text decode.
            stream, passes, width = merge_to_stream(
                store, initial_runs, fast_path_key, fan_in, options=options,
                tracer=tracer, recovery=recovery,
            )
            report.materialized_merge_passes = passes
            report.final_merge_width = width

            # Sorted records back to stored tokens by byte splicing
            # (splice == re-encode in either name dialect, with or without
            # end-tag elimination).  The span covers the streamed final
            # merge (consumed here) and the pool detach, so deferred
            # write-backs are attributed.
            with maybe_span(
                tracer, "output-emit", final_merge_width=width
            ):
                writer = store.create_writer("output")
                try:
                    emit_output_columnar(
                        stream, writer, device,
                        chunk_records=(
                            _EMIT_CHUNK
                            if store.pool is None and recovery is None
                            else 0
                        ),
                        names_coded=names is not None,
                        emit_ends=not compact,
                    )
                except (IndexError, UnicodeDecodeError) as exc:
                    # The emit indexes run records without bounds checks.
                    if not raised_parsing_records(exc, emit_output_columnar):
                        raise
                    raise CodecError(
                        f"malformed run record during the output: {exc}"
                    ) from None
                handle = writer.finish()

                # Flush the pool before the snapshot so deferred
                # write-backs are accounted inside the report.
                store.detach_pool()
            report.stats = device.stats.since(before)
            buffers.release()
            formation.release()
            output = Document(
                store, handle, document.stats, document.compaction
            )
            return output, report
        finally:
            store.compression = prior_compression
            store.detach_pool()


def external_merge_sort(
    document: Document,
    spec: SortSpec,
    memory_blocks: int,
    cache_blocks: int = 0,
    merge_options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
    lease=None,
) -> tuple[Document, MergeSortReport]:
    """Convenience wrapper: sort ``document`` with the baseline."""
    return ExternalMergeSorter(
        spec, memory_blocks, cache_blocks, merge_options
    ).sort(document, tracer, recovery=recovery, lease=lease)
