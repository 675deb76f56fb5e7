"""Generic multi-pass, multi-way merging of sorted runs.

Used by the external merge sort baseline (merging key-path runs) and by
NEXSORT's graceful-degeneration mode (merging the incomplete sorted runs of
one element, paper Section 3.2).  Records are opaque bytes; ordering comes
from a caller-supplied key function over decoded records.

The fan-in of one pass is limited by the number of memory blocks available:
each input run needs one buffer block and the output needs one, so a budget
of ``m`` blocks supports an ``(m - 1)``-way merge - the classic bound that
produces the ``log_{M/B}`` factors in all of the paper's cost expressions.

Two merge kernels are available (:class:`~repro.merge.engine.MergeOptions`):

* ``heap`` (default, paper-faithful): ``heapq`` over ``(key, index)``
  entries; CPU accounting charges the analytic ``ceil(log2 w)`` comparisons
  per record moved, exactly as the seed did.  Keys come from the runs' key
  sidecars (the normalized keys captured when a run was written) where
  they exist, and are computed a block at a time otherwise
  (:func:`~repro.core.columnar.keyed_puller`).
* ``loser-tree``: a tournament tree that performs - and *counts* - at most
  ``ceil(log2 w)`` real comparisons per record, reading each input run as
  its own sequential stream for honest seek accounting.

A materialized pass hands its output to the run writer block-aligned:
merged records collect until their framed bytes fill the writer's block,
then go over in one call, so every device write lands where a
record-at-a-time loop would issue it.
"""

from __future__ import annotations

import heapq
from itertools import chain
from math import ceil, log2
from typing import Callable, Iterator

from ..core.columnar import (
    batch_keys_for,
    fast_path_key,
    keyed_puller,
    run_sidecar,
)
from ..errors import DeviceFault, RunError
from ..io.runs import FRAME_HEADER, RunHandle, RunStore
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import LoserTree, MergeOptions


def merge_pass(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str = "merge_read",
    options: MergeOptions | None = None,
    keyed: bool = False,
) -> Iterator[bytes]:
    """Stream the records of ``runs`` merged into one sorted sequence.

    The caller guarantees the fan-in fits its memory budget.  Consumed runs
    are freed as they drain.  With ``keyed`` the stream yields
    ``(normalized key, record)`` pairs so the consumer can capture the
    output run's key sidecar without re-evaluating keys.
    """
    if options is not None and options.loser_tree:
        return _merge_pass_loser_tree(
            store, runs, key_of, read_category, keyed
        )
    return _merge_pass_heap(store, runs, key_of, read_category, keyed)


def _merge_pass_heap(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    keyed: bool = False,
) -> Iterator[bytes]:
    if not runs:
        return
    comparisons_per_record = ceil(log2(len(runs)))
    # Each reader's buffered block is drained in one batched parse, its
    # keys served from the run's sidecar or computed in one batch call.
    # Block loads still happen at the pull index a record-at-a-time
    # reader would issue them, so I/O counters are untouched.
    batch_keys = batch_keys_for(key_of)
    pulls = [
        keyed_puller(
            store.open_reader(run, category=read_category),
            batch_keys,
            run_sidecar(store, run, key_of),
        )
        for run in runs
    ]
    heap: list[tuple[object, int, bytes]] = []
    for index, pull in enumerate(pulls):
        entry = pull()
        if entry is not None:
            heap.append((entry[0], index, entry[1]))
    heapq.heapify(heap)
    stats = store.device.stats
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    while heap:
        key, index, record = heap[0]
        if comparisons_per_record:
            stats.record_merge_comparisons(comparisons_per_record)
        yield (key, record) if keyed else record
        # The winner's refill replaces it in one sift (heapreplace), not
        # a pop and a push; only an exhausted run leaves the heap.
        entry = pulls[index]()
        if entry is not None:
            heapreplace(heap, (entry[0], index, entry[1]))
        else:
            heappop(heap)
            store.free(runs[index])
    stats.record_tokens(sum(run.record_count for run in runs))


def _merge_pass_loser_tree(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    keyed: bool = False,
) -> Iterator[bytes]:
    if not runs:
        return
    device = store.device
    # Each input run is its own sequential stream: interleaved per-run
    # reads must not be judged against each other, and in a real multi-file
    # setup (one file per run, OS readahead per descriptor) they would not
    # be.  The heap kernel keeps the seed's single-stream judgment.
    streams = [f"{read_category}:run{run.run_id}" for run in runs]
    readers = [
        store.open_reader(run, category=read_category, stream=stream)
        for run, stream in zip(runs, streams)
    ]

    # Forecast-driven prefetch (repro.io.parallel): when the I/O target
    # exposes a prefetch window, keep each live run at most one block
    # ahead of its reader, prioritized by the loser tree's head keys.
    # Prefetch only reorders the reads this merge was about to issue, so
    # counters stay identical with it on or off.
    prefetcher = None
    if len(runs) > 1 and store.io_target.prefetch_depth > 0:
        from ..io.parallel import MergePrefetcher

        prefetcher = MergePrefetcher(
            store.io_target, runs, readers,
            category=read_category, streams=streams,
        )

    batch_keys = batch_keys_for(key_of)

    def make_pull(index: int):
        # Loser-tree sift pulls come from batch-parsed blocks with
        # batch-computed (or sidecar-served) keys; the tournament (and
        # its counted comparisons) is untouched.
        pairs = keyed_puller(
            readers[index], batch_keys,
            run_sidecar(store, runs[index], key_of),
        )

        def pull():
            entry = pairs()
            if entry is None:
                if prefetcher is not None:
                    prefetcher.exhausted(index)
                return None
            if prefetcher is not None:
                prefetcher.note_head(index, entry[0])
                prefetcher.pump()
            return entry

        return pull

    def on_exhausted(index: int):
        store.free(runs[index])

    tree = LoserTree(
        [make_pull(index) for index in range(len(runs))],
        stats=device.stats,
        on_exhausted=on_exhausted,
    )
    if keyed:
        for key, record in tree:
            yield key, record
    else:
        for _key, record in tree:
            yield record
    device.stats.record_tokens(sum(run.record_count for run in runs))


def _merged_group(
    store: RunStore,
    group: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    write_category: str,
    options: MergeOptions | None,
    recovery,
    phase: str,
    unit: int,
) -> RunHandle:
    """Merge one group of runs into a new run, optionally restartably.

    With a :class:`~repro.faults.RecoveryContext`, the group merge runs
    under a device recovery hold: a transient fault that escapes the
    retry layer abandons the partial output, restores the input runs the
    failed attempt already drained and freed, and re-merges the group.
    The completed run is recorded as a checkpoint.
    """
    # Capture the output run's key sidecar while writing: the merged
    # stream already knows every record's normalized key, so the next
    # pass over this run takes them instead of re-evaluating them.  Only
    # ``fast_path_key`` qualifies - custom keys would poison later
    # sidecar consumers.
    collect = key_of is fast_path_key

    def attempt_once() -> RunHandle:
        writer = store.create_writer(write_category)
        keys: list = []
        # Block-aligned writes: records collect until their framed bytes
        # reach the writer's room, then go over in one call - the device
        # write a record-at-a-time loop would issue at the same record,
        # before the merge pulls the next one, for a fifth less of the
        # group's CPU than one ``write_record`` call per record.
        batch: list[bytes] = []
        framed = 0
        room = writer.room
        try:
            for record in merge_pass(
                store, group, key_of, read_category, options,
                keyed=collect,
            ):
                if collect:
                    key, record = record
                    keys.append(key)
                batch.append(record)
                framed += FRAME_HEADER + len(record)
                if framed >= room:
                    writer.write_records(batch)
                    batch = []
                    framed = 0
                    room = writer.room
            writer.write_records(batch)
        except DeviceFault:
            writer.abandon()
            raise
        handle = writer.finish()
        if collect:
            store.key_sidecars[handle.run_id] = keys
        return handle

    if recovery is None:
        return attempt_once()
    handle = recovery.attempt(phase, unit, attempt_once, device=store.device)
    recovery.checkpoint(phase, unit, run_id=handle.run_id)
    return handle


def _merge_down(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    fan_in: int,
    target: int,
    read_category: str,
    write_category: str,
    options: MergeOptions | None,
    tracer: Tracer | None,
    recovery,
) -> tuple[list[RunHandle], int]:
    """Materialized merge passes until at most ``target`` runs remain.

    A full pass merges every ``fan_in`` consecutive runs.  With
    ``target > 1`` under the loser-tree kernel the first pass is partial
    (new merge engine only, so the default pass structure stays
    bit-identical): it merges just enough head groups to bring the run
    count down to exactly ``fan_in``, and the tail runs skip
    materialization.  Groups stay contiguous and in run order, so ties
    still resolve by original run index and the output matches the
    full-pass kernels record for record.  A partial pass copies a
    one-run group instead of carrying it over, and with more than
    ``fan_in ** 2`` runs its head groups run out of runs: the groups
    past the end write empty runs, and full passes follow.  Returns
    (runs, passes).
    """
    if fan_in < 2:
        raise RunError(f"fan-in must be at least 2, got {fan_in}")
    passes = 0
    current = list(runs)
    partial = target > 1 and options is not None and options.loser_tree
    while len(current) > target:
        passes += 1
        span = dict(index=passes, fanin=fan_in, runs=len(current))
        if partial:
            excess = len(current) - fan_in
            group_count = ceil(excess / (fan_in - 1))
            sizes = [excess - (group_count - 1) * (fan_in - 1) + 1]
            sizes += [fan_in] * (group_count - 1)
            span["partial"] = True
        else:
            sizes = [fan_in] * ceil(len(current) / fan_in)
        with maybe_span(tracer, "merge-pass", **span):
            merged: list[RunHandle] = []
            start = 0
            for size in sizes:
                group = current[start : start + size]
                start += size
                if len(group) == 1 and not partial:
                    merged.append(group[0])
                    continue
                merged.append(
                    _merged_group(
                        store, group, key_of, read_category,
                        write_category, options, recovery,
                        f"merge-pass-{passes}", len(merged),
                    )
                )
            merged.extend(current[start:])
            current = merged
        partial = False
    return current, passes


def merge_to_single_run(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    fan_in: int,
    read_category: str = "merge_read",
    write_category: str = "merge_write",
    options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
) -> tuple[RunHandle, int]:
    """Repeatedly merge until one run remains; returns (run, passes)."""
    current, passes = _merge_down(
        store, runs, key_of, fan_in, 1, read_category, write_category,
        options, tracer, recovery,
    )
    if not current:
        raise RunError("nothing to merge")
    return current[0], passes


def merge_to_stream(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    fan_in: int,
    read_category: str = "merge_read",
    write_category: str = "merge_write",
    options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
) -> tuple[Iterator[bytes], int, int]:
    """Merge passes until <= fan_in runs remain, then stream the final merge.

    Saves the materialization of the last pass: external merge sort pipes
    its final merge straight into the output decoder, which is how the
    textbook pass count ``1 + ceil(log_{fan_in}(initial_runs))`` arises.
    Under the loser-tree kernel the intermediate passes are partial as
    well: only enough runs are merged to bring the count down to
    ``fan_in``, and the rest flow unmaterialized into the final merge.
    Returns (record iterator, materialized passes, final merge width).
    """
    current, passes = _merge_down(
        store, runs, key_of, fan_in, fan_in, read_category,
        write_category, options, tracer, recovery,
    )
    width = len(current)
    if tracer is not None:
        # The final merge streams lazily; its I/O lands in whichever span
        # consumes the iterator.  Mark where it begins.
        tracer.event("final-merge-stream", width=width, passes=passes)
    if width == 1:
        reader = store.open_reader(current[0], category=read_category)
        return chain.from_iterable(reader.batches()), passes, width
    return merge_pass(store, current, key_of, read_category, options), passes, width
