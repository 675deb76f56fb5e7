"""Run-formation and merge kernels: replacement selection, loser trees,
and normalized keys.

The paper fixes load-sort-flush run formation and a heap merge; this module
provides the engineering upgrades that real external sorters use (Arge &
Thorup, "RAM-Efficient External Memory Sorting"), each independently
togglable so the paper-faithful defaults stay bit-identical:

* **replacement selection** (:class:`RunFormer`): run formation keeps a
  byte-bounded min-heap instead of sorting fixed batches, producing runs
  averaging twice the memory capacity on random input - fewer initial runs,
  therefore fewer materialized merge passes and fewer I/Os.
* **loser-tree merging** (:class:`LoserTree`): a tournament tree replaces
  the binary heap in multiway merge passes.  Each record costs at most
  ``ceil(log2 k)`` *actual counted* key comparisons (the heap costs up to
  ``2 log2 k`` real comparisons but is charged the analytic bound), and
  comparisons are recorded as they happen instead of analytically.

Run records are stored as they are.  The key-path sorters order them by
normalized keys, a byte-comparable rendering of the sort key that merge
passes parse straight from each record's path prefix
(:func:`repro.core.columnar.fast_path_key`).  Normalized keys are
order-faithful: for any two keys built from the same domain (key-path
tuples, ``(atom, position)`` pairs), the ``bytes`` comparison of their
normalizations equals the Python comparison of the originals.  Numbers use
the IEEE-754 sign-flip trick; strings are UTF-8 with NUL escaped as
``00 FF`` and terminated by ``00`` (sound while the byte following a
terminator is below ``FF``, which holds for every encoding this module
emits); a strict tuple prefix is a strict byte prefix and therefore sorts
first, matching tuple semantics.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from math import ceil, log2
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from ..errors import RunError, SortSpecError
from ..io.runs import frame_records
from ..xml.tokens import KEY_MISSING, KEY_NUMBER, KEY_STRING

RUN_FORMATION_MODES = ("load-sort", "replacement-selection")
MERGE_KERNELS = ("heap", "loser-tree")

_DOUBLE = struct.Struct(">d")
_U64 = struct.Struct(">Q")
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


@dataclass(frozen=True)
class MergeOptions:
    """Knobs of the run-formation / merge engine.

    The defaults reproduce the paper's algorithm bit-for-bit: load-sort
    run formation, ``heapq`` merging, and analytic comparison accounting.

    Attributes:
        run_formation: ``load-sort`` (sort a memory-full batch, flush) or
            ``replacement-selection`` (byte-bounded heap, ~2x longer runs).
        merge_kernel: ``heap`` (binary heap, analytic ``ceil(log2 k)``
            comparison charges) or ``loser-tree`` (tournament tree,
            *counted* comparisons - and counted in-memory sorts too).
        compress: run-compression codec (``container`` or ``zlib``), or
            None to store runs uncompressed.  Compression alone changes
            only byte and CPU counters: the records, comparisons, and
            pass structure stay bit-identical.
        compress_capacity: also compress *pending* run-formation batches,
            so a memory budget holds more records and initial runs get
            longer - fewer runs, potentially fewer merge passes.  This
            legitimately changes comparison counts (bigger in-memory
            sorts), so it is a separate opt-in on top of ``compress``.
    """

    run_formation: str = "load-sort"
    merge_kernel: str = "heap"
    compress: str | None = None
    compress_capacity: bool = False

    def __post_init__(self):
        if self.run_formation not in RUN_FORMATION_MODES:
            raise SortSpecError(
                f"unknown run formation {self.run_formation!r}; "
                f"choose from {RUN_FORMATION_MODES}"
            )
        if self.merge_kernel not in MERGE_KERNELS:
            raise SortSpecError(
                f"unknown merge kernel {self.merge_kernel!r}; "
                f"choose from {MERGE_KERNELS}"
            )
        if self.compress is not None:
            from ..io.compress import CODEC_NAMES

            if self.compress not in CODEC_NAMES:
                raise SortSpecError(
                    f"unknown run compression codec {self.compress!r}; "
                    f"choose from {CODEC_NAMES}"
                )
        if self.compress_capacity and self.compress is None:
            raise SortSpecError(
                "compress_capacity requires a compression codec "
                "(set compress='container' or 'zlib')"
            )

    @property
    def replacement_selection(self) -> bool:
        return self.run_formation == "replacement-selection"

    @property
    def loser_tree(self) -> bool:
        return self.merge_kernel == "loser-tree"

    @property
    def counted_comparisons(self) -> bool:
        """Real counted comparisons ride with the loser-tree kernel."""
        return self.loser_tree

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_MERGE_OPTIONS


DEFAULT_MERGE_OPTIONS = MergeOptions()


# -- counted comparisons ------------------------------------------------------


class ComparisonCounter:
    """Counts the comparisons a sort actually performs."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _CountedKey:
    """Sort-key proxy whose ``<`` increments a shared counter.

    ``list.sort`` only uses ``<`` on keys, so counting there captures every
    comparison of the underlying sort.
    """

    __slots__ = ("value", "counter")

    def __init__(self, value, counter: ComparisonCounter):
        self.value = value
        self.counter = counter

    def __lt__(self, other: "_CountedKey") -> bool:
        self.counter.count += 1
        return self.value < other.value


def sort_with_accounting(
    items: list, key_of: Callable, stats, counted: bool
) -> None:
    """Sort ``items`` in place by ``key_of``, charging comparisons.

    ``counted=False`` charges the analytic ``n * ceil(log2 n)`` bound the
    paper's accounting uses (bit-identical to the seed); ``counted=True``
    records the comparisons the sort actually performed, which for timsort
    is strictly below the analytic bound on non-trivial inputs.
    """
    count = len(items)
    if count <= 1:
        items.sort(key=key_of)
        return
    if counted:
        counter = ComparisonCounter()
        items.sort(key=lambda item: _CountedKey(key_of(item), counter))
        stats.record_comparisons(counter.count)
    else:
        items.sort(key=key_of)
        stats.record_comparisons(count * max(1, ceil(log2(count))))


def sort_keyed_batch(
    batch: list[tuple[object, bytes]], stats, counted: bool
) -> None:
    """Sort a ``(key, payload)`` batch by key with comparison accounting."""
    sort_with_accounting(batch, _FIRST, stats, counted)


def dense_ranks(keys: list, order: list[int]) -> list[int]:
    """Map each key to its dense rank given a stable sorted ``order``.

    ``order`` is a stable argsort of ``keys`` (equal keys in original
    position order); the result assigns 0 to the smallest distinct key,
    1 to the next, and so on.  The rank list is order- *and* equality-
    isomorphic to the original keys: ``ranks[i] < ranks[j]`` iff
    ``keys[i] < keys[j]`` and ``ranks[i] == ranks[j]`` iff
    ``keys[i] == keys[j]``.  Any comparison sort run over the ranks
    therefore performs *exactly* the comparison sequence it would have
    performed over the keys - which is what lets counted sorts run
    batched without perturbing the comparison charge.
    """
    ranks = [0] * len(keys)
    rank = -1
    previous = None
    for position in order:
        key = keys[position]
        if rank < 0 or key != previous:
            rank += 1
            previous = key
        ranks[position] = rank
    return ranks


def argsort_counted(ranks: list[int], stats) -> list[int]:
    """Counted stable argsort: indices sorting ``ranks``, charging exactly
    the comparisons timsort performs.

    Sorting ``range(n)`` by counted rank reproduces the comparison
    sequence of sorting the original items by counted key (see
    :func:`dense_ranks`), so the charge equals a per-group
    ``sort_with_accounting(..., counted=True)`` bit for bit while the
    expensive key derivation stays batched.
    """
    n = len(ranks)
    if n <= 1:
        return list(range(n))
    counter = ComparisonCounter()
    order = sorted(
        range(n), key=lambda i: _CountedKey(ranks[i], counter)
    )
    stats.record_comparisons(counter.count)
    return order


# -- loser-tree k-way merge ---------------------------------------------------


class LoserTree:
    """Tournament (loser) tree over ``k`` sorted sources.

    Each source is a pull function returning ``(key, record)`` or ``None``
    when drained.  Ties break by source index, matching the heap kernel's
    ``(key, index)`` entries, so the merge is stable across kernels.

    Every internal-node match between two live contenders records exactly
    one comparison on ``stats`` (via ``record_merge_comparisons``), so one
    :meth:`pop` costs at most ``ceil(log2 k)`` comparisons - the tournament
    bound - and less near the end of the merge when ways have drained.
    """

    def __init__(
        self,
        pulls: list[Callable[[], tuple | None]],
        stats=None,
        on_exhausted: Callable[[int], None] | None = None,
    ):
        self._pulls = pulls
        self._stats = stats
        self._on_exhausted = on_exhausted
        k = len(pulls)
        p = 1
        while p < max(1, k):
            p *= 2
        self._p = p
        self._keys: list = [None] * p
        self._records: list = [None] * p
        self._alive = [False] * p
        for index in range(k):
            self._refill(index)
        # winner[n] for internal nodes 1..p-1; tree[n] stores the loser.
        self._tree = [0] * max(1, p)
        winner = [0] * (2 * p)
        for index in range(p):
            winner[p + index] = index
        for node in range(p - 1, 0, -1):
            won, lost = self._play(winner[2 * node], winner[2 * node + 1])
            winner[node] = won
            self._tree[node] = lost
        self._tree[0] = winner[1] if p > 1 else 0

    def _refill(self, index: int) -> None:
        item = self._pulls[index]()
        if item is None:
            self._alive[index] = False
            self._keys[index] = None
            self._records[index] = None
            if self._on_exhausted is not None:
                self._on_exhausted(index)
        else:
            self._keys[index], self._records[index] = item
            self._alive[index] = True

    def _play(self, a: int, b: int) -> tuple[int, int]:
        """One match; returns (winner leaf, loser leaf).

        A drained leaf loses without a comparison; two live leaves cost
        one recorded comparison.
        """
        if not self._alive[a]:
            return b, a
        if not self._alive[b]:
            return a, b
        if self._stats is not None:
            self._stats.record_merge_comparisons(1)
        if (self._keys[a], a) <= (self._keys[b], b):
            return a, b
        return b, a

    def pop(self) -> tuple | None:
        """Remove and return the smallest ``(key, record)``, or None."""
        winner = self._tree[0]
        if not self._alive[winner]:
            return None
        key = self._keys[winner]
        record = self._records[winner]
        self._refill(winner)
        node = (self._p + winner) >> 1
        contender = winner
        while node >= 1:
            won, lost = self._play(contender, self._tree[node])
            self._tree[node] = lost
            contender = won
            node >>= 1
        self._tree[0] = contender
        return key, record

    def __iter__(self) -> Iterator[tuple]:
        while True:
            item = self.pop()
            if item is None:
                return
            yield item


# -- run formation ------------------------------------------------------------


class RunFormer:
    """Forms initial sorted runs from a stream of ``(key, payload)`` pairs.

    In ``load-sort`` mode this reproduces the seed behaviour exactly:
    batch until ``capacity_bytes`` of payload accumulate, sort, flush one
    run.  In ``replacement-selection`` mode a byte-bounded min-heap streams
    records out in key order; a record smaller than the last one written is
    deferred to the next run, so runs average twice the capacity on random
    input (and a single run covers any already-sorted input).

    Heap accounting charges ``ceil(log2 h)`` comparisons per record sifted
    through a heap of size ``h``, plus one comparison per arriving record
    for the run-assignment test - the replacement-selection analogue of the
    analytic in-memory sort bound.
    """

    def __init__(
        self,
        store,
        capacity_bytes: int,
        options: MergeOptions,
        write_category: str = "run_write",
        tracer=None,
        recovery=None,
    ):
        self.store = store
        self.capacity_bytes = max(1, capacity_bytes)
        self.options = options
        self.write_category = write_category
        self.tracer = tracer
        self.recovery = recovery
        self.run_lengths: list[int] = []
        self._runs: list = []
        self._finished = False
        # load-sort state
        self._batch: list[tuple[object, bytes]] = []
        self._batch_bytes = 0
        # capacity-compression state (compress_capacity): pending batch
        # chunks are container-encoded in memory, so the byte budget is
        # charged the *compressed* footprint and runs grow by roughly the
        # compression ratio.  Keys stay raw (they drive the flush sort).
        self._capacity_mode = bool(
            options.compress_capacity and not options.replacement_selection
        )
        self._chunks: list[tuple[list, bytes, int]] = []
        self._chunk_bytes = 0
        self._chunk_trigger = max(1, self.capacity_bytes // 4)
        # replacement-selection state
        self._heap: list[tuple] = []
        self._heap_bytes = 0
        self._seq = 0
        self._run_index = 0
        self._last_key = None
        self._have_last = False

    def add(self, key, payload: bytes) -> None:
        if self.options.replacement_selection:
            self._add_replacement(key, payload)
        elif self._capacity_mode:
            self._batch.append((key, payload))
            self._batch_bytes += len(payload)
            if self._batch_bytes >= self._chunk_trigger:
                self._compress_chunk()
            if self._chunk_bytes + self._batch_bytes >= self.capacity_bytes:
                self._flush_batch()
        else:
            self._batch.append((key, payload))
            self._batch_bytes += len(payload)
            if self._batch_bytes >= self.capacity_bytes:
                self._flush_batch()

    def add_all(self, keyed: Iterable[tuple[object, bytes]]) -> None:
        for key, payload in keyed:
            self.add(key, payload)

    @property
    def room(self) -> int:
        """Payload bytes :meth:`extend` takes before the next flush.

        Pairs totalling at most ``room`` bytes only join the pending
        batch; the :meth:`add` that takes the total past it flushes a
        run.  Replacement selection and capacity compression may write or
        compress on any add, so their room is 0.
        """
        if self.options.replacement_selection or self._capacity_mode:
            return 0
        return max(0, self.capacity_bytes - 1 - self._batch_bytes)

    def extend(self, pairs: list[tuple[object, bytes]], nbytes: int) -> None:
        """Add ``(key, payload)`` pairs of ``nbytes`` payload bytes in all.

        The state one :meth:`add` per pair leaves, provided ``nbytes`` is
        within :attr:`room` - which also means no device access; pairs
        that would not fit raise :class:`~repro.errors.RunError` and add
        nothing.  The former takes ``pairs`` over: into an empty batch the
        list itself goes, uncopied, so the caller must not touch it after.
        """
        if nbytes > self.room:
            raise RunError(
                f"extend of {nbytes} bytes exceeds the former's room of "
                f"{self.room}"
            )
        if self._batch:
            self._batch += pairs
        else:
            self._batch = pairs
        self._batch_bytes += nbytes

    def bulk_adder(self):
        """:meth:`add` as a per-record callable.

        Nothing in the package calls it since key-path formation batches
        into :meth:`extend`; the e2e benchmark's per-layer tracer still
        wraps it.
        """
        return self.add

    def finish(self) -> list:
        """Flush whatever is pending; returns the run handles in order."""
        if self._finished:
            return self._runs
        self._finished = True
        if self._batch or self._chunks:
            self._flush_batch()
        self._drain_heap()
        return self._runs

    # -- load-sort ----------------------------------------------------------

    def _compress_chunk(self) -> None:
        """Container-encode the pending batch; keep only keys raw."""
        if not self._batch:
            return
        from ..io.compress import encode_records

        stats = self.store.device.stats
        keys = [key for key, _payload in self._batch]
        payloads = [payload for _key, payload in self._batch]
        raw_bytes = sum(4 + len(payload) for payload in payloads)
        blob = encode_records(payloads, self.options.compress)
        stats.record_compression(raw_bytes, len(blob))
        self._chunks.append((keys, blob, raw_bytes))
        self._chunk_bytes += len(blob)
        self._batch = []
        self._batch_bytes = 0

    def _rehydrate_chunks(self) -> None:
        """Decode compressed pending chunks back into the raw batch."""
        if not self._chunks:
            return
        from ..io.compress import decode_records

        stats = self.store.device.stats
        restored: list[tuple[object, bytes]] = []
        for keys, blob, raw_bytes in self._chunks:
            payloads = decode_records(blob)
            stats.record_decompression(len(blob), raw_bytes)
            restored.extend(zip(keys, payloads))
        self._chunks = []
        self._chunk_bytes = 0
        self._batch = restored + self._batch
        self._batch_bytes = sum(
            len(payload) for _key, payload in self._batch
        )

    def _flush_batch(self) -> None:
        self._rehydrate_chunks()
        batch = self._batch
        sort_keyed_batch(
            batch, self.store.device.stats, self.options.counted_comparisons
        )
        writer = self.store.create_writer(self.write_category)
        writer.write_framed(*frame_records(list(map(_SECOND, batch))))
        handle = writer.finish()
        if batch and type(batch[0][0]) is bytes:
            # Key sidecar (host memory only): merge passes over this run
            # can reuse these keys instead of re-parsing every record.
            self.store.key_sidecars[handle.run_id] = list(map(_FIRST, batch))
        self._runs.append(handle)
        self.run_lengths.append(handle.record_count)
        self._batch = []
        self._batch_bytes = 0
        self._note_run(handle)

    # -- replacement selection ----------------------------------------------

    def _add_replacement(self, key, payload: bytes) -> None:
        stats = self.store.device.stats
        run = self._run_index
        if self._have_last:
            stats.record_comparisons(1)
            if key < self._last_key:
                run += 1
        heapq.heappush(self._heap, (run, key, self._seq, payload))
        self._seq += 1
        self._heap_bytes += len(payload)
        while self._heap_bytes > self.capacity_bytes and self._heap:
            self._emit_minimum()

    def _emit_minimum(self) -> None:
        stats = self.store.device.stats
        size = len(self._heap)
        if size > 1:
            stats.record_comparisons(max(1, ceil(log2(size))))
        run, key, _seq, payload = heapq.heappop(self._heap)
        self._heap_bytes -= len(payload)
        if run != self._run_index or not self._runs_open():
            self._close_open_run()
            self._writer = self.store.create_writer(self.write_category)
            self._writer_records = 0
            self._writer_keys = [] if type(key) is bytes else None
            self._run_index = run
        self._writer.write_record(payload)
        self._writer_records += 1
        if self._writer_keys is not None:
            self._writer_keys.append(key)
        self._last_key = key
        self._have_last = True

    def _runs_open(self) -> bool:
        return getattr(self, "_writer", None) is not None

    def _close_open_run(self) -> None:
        writer = getattr(self, "_writer", None)
        if writer is None:
            return
        handle = writer.finish()
        keys = getattr(self, "_writer_keys", None)
        if keys is not None:
            self.store.key_sidecars[handle.run_id] = keys
            self._writer_keys = None
        self._runs.append(handle)
        self.run_lengths.append(handle.record_count)
        self._writer = None
        self._note_run(handle)

    def _note_run(self, handle) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "run-formed",
                run=len(self._runs) - 1,
                records=handle.record_count,
                blocks=handle.block_count,
            )
        if self.recovery is not None:
            # Each formed run is durable: a later fault never has to redo
            # run formation behind the last completed run.
            self.recovery.checkpoint(
                "run-formation", len(self._runs) - 1, run_id=handle.run_id
            )

    def _drain_heap(self) -> None:
        while self._heap:
            self._emit_minimum()
        self._close_open_run()
        self._have_last = False


# -- normalized (byte-comparable) keys ---------------------------------------


def normalize_number(value: float) -> bytes:
    """Byte-comparable form of a number key atom, kind byte included."""
    if value == 0.0:
        value = 0.0  # collapse -0.0 (equal values, distinct bits)
    bits = _U64.unpack(_DOUBLE.pack(value))[0]
    if bits & (1 << 63):
        bits ^= (1 << 64) - 1  # negative: invert everything
    else:
        bits ^= 1 << 63  # non-negative: flip the sign bit
    return b"\x01" + _U64.pack(bits)


def _normalize_atom(out: bytearray, atom: tuple) -> None:
    kind, value = atom
    if kind == KEY_MISSING:
        out.append(0)
        return
    if kind == KEY_NUMBER:
        out += normalize_number(float(value))
        return
    if kind == KEY_STRING:
        out.append(2)
        out += value.encode("utf-8").replace(b"\x00", b"\x00\xff")
        out.append(0)
        return
    raise SortSpecError(f"cannot normalize key atom kind {kind}")


def _normalize_int(out: bytearray, value: int) -> None:
    out += _U64.pack(value)


def normalized_component_key(atom: tuple, position: int) -> bytes:
    """Byte-comparable form of one ``(key atom, position)`` pair."""
    out = bytearray()
    _normalize_atom(out, atom)
    _normalize_int(out, position)
    return bytes(out)


def normalized_path_key(path: tuple) -> bytes:
    """Byte-comparable form of a key path (tuple of ``(atom, pos)``).

    A strict tuple prefix becomes a strict byte prefix, so parents still
    sort immediately before their children, exactly as tuple comparison
    orders them.
    """
    out = bytearray()
    for atom, position in path:
        _normalize_atom(out, atom)
        _normalize_int(out, position)
    return bytes(out)
