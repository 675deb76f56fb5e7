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
  per record moved, exactly as the seed did.  When every input run carries
  a key sidecar (the normalized keys captured when the run was written) the
  pass is *replayed* from one stable sort of the sidecars instead
  (:func:`~repro.core.columnar.replay_merge`): the same reads, frees and
  per-record comparison charges at the same points, so every counter -
  the simulated clock a striped device reads at each access included - is
  the heap loop's, on either argsort backend.
* ``loser-tree``: a tournament tree that performs - and *counts* - at most
  ``ceil(log2 w)`` real comparisons per record, reading each input run as
  its own sequential stream for honest seek accounting.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from math import ceil, log2
from typing import Callable, Iterator

from ..core.columnar import (
    batch_keys_for,
    fast_path_key,
    keyed_puller,
    merge_sidecars,
    replay_merge,
    run_sidecar,
)
from ..errors import DeviceFault, RunError
from ..io.runs import RunHandle, RunStore
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import LoserTree, MergeOptions

#: Records per grouped writer call when a merge pass writes its output.
_WRITE_CHUNK = 1024


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
    sidecars = merge_sidecars(store, runs, key_of)
    readers = [
        store.open_reader(run, category=read_category) for run in runs
    ]
    if sidecars is not None:
        # Replay: when every input run carries a key sidecar, the merged
        # order is one stable sort of the concatenated sidecars (a heap
        # merge with (key, run-index) tie-break IS the stable sort of the
        # run-order concatenation), and the pass just replays record
        # pulls in that order.  Pulls, frees and the per-record
        # comparison charges land exactly where the loop below puts them.
        yield from replay_merge(
            store, runs, readers, sidecars, comparisons_per_record,
            keyed=keyed,
        )
        return
    # Drain each reader's buffered block in one batched parse and compute
    # its keys in one batch call (or serve them straight from the run's
    # sidecar when present).  Block loads still happen at the pull index
    # a record-at-a-time reader would issue them, so I/O counters are
    # untouched.
    batch_keys = batch_keys_for(key_of)
    pulls = [
        keyed_puller(reader, batch_keys, run_sidecar(store, run, key_of))
        for run, reader in zip(runs, readers)
    ]
    heap: list[tuple[object, int, bytes]] = []
    for index, pull in enumerate(pulls):
        entry = pull()
        if entry is not None:
            heap.append((entry[0], index, entry[1]))
    heapq.heapify(heap)
    stats = store.device.stats
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        key, index, record = heappop(heap)
        if comparisons_per_record:
            stats.record_merge_comparisons(comparisons_per_record)
        yield (key, record) if keyed else record
        entry = pulls[index]()
        if entry is not None:
            heappush(heap, (entry[0], index, entry[1]))
        else:
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
    # pass over this run replays instead of re-evaluating keys.  Only
    # ``fast_path_key`` qualifies - custom keys would poison later
    # sidecar consumers.
    collect = key_of is fast_path_key
    # Grouped writer calls reorder output writes relative to the merge's
    # input reads.  Without a shared buffer pool (eviction order observes
    # the global access sequence) or a recovery context (fault points
    # interact with the partial writer state) the I/O and CPU counters
    # stay the same: each stream's own access sequence - and every
    # per-category fault trigger index - is unchanged.  The striped
    # clock is not: a striped device stalls by when each write is
    # submitted relative to reads and CPU, so this grouping sets
    # ``stall_seconds`` there (the frozen striped cells depend on it).
    chunk = _WRITE_CHUNK if store.pool is None and recovery is None else 1

    def attempt_once() -> RunHandle:
        writer = store.create_writer(write_category)
        keys: list = []
        try:
            stream = merge_pass(
                store, group, key_of, read_category, options,
                keyed=collect,
            )
            while batch := list(islice(stream, chunk)):
                if collect:
                    keys.extend(key for key, _record in batch)
                    batch = [record for _key, record in batch]
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
