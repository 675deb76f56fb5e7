"""Sorted runs on the block device.

A *sorted run* is the on-disk unit NEXSORT produces for every collapsed
subtree (Figure 3: "tree of sorted runs") and the unit external merge sort
produces per formation/merge pass.  A run is a sequential stream of
length-framed records packed into whole blocks; records may span block
boundaries because runs are only ever read sequentially.

Reading a run from a *mid-stream offset* - which the output phase does when
it returns from a nested run (Figure 4, Lines 15-16) - re-reads the block
containing that offset.  This is precisely the access pattern Lemma 4.12
counts: a run block is read ``1 + p(b)`` times, where ``p(b)`` is the number
of run pointers found on it.

There is one writer and one reader over the framed stream.  The writer
frames records into one pending buffer and the reader serves every record
method from one loaded buffer.  A compressed run differs only beneath
them: in how the writer flushes (record-aligned segments coded by
:mod:`repro.io.compress`) and how the reader loads (one decoded segment).
A plain writer or reader uses a single block of buffer memory, matching
the transfer-buffer assumption of the I/O model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import RunCodecError, RunError
from .device import BlockDevice

if TYPE_CHECKING:
    from .compress import CompressionConfig, RunSegment

_LEN = struct.Struct("<I")
#: A framed record's length header, in bytes: a batching writer's caller
#: counts ``FRAME_HEADER + len(payload)`` against :attr:`RunWriter.room`.
FRAME_HEADER = _LEN.size
#: ``unpack_frame_header(buffer, offset)`` -> ``(length,)``: the payload
#: length the framed record at ``offset`` declares (its walk in place over
#: :meth:`RunReader.loaded`).
unpack_frame_header = _LEN.unpack_from

#: Write categories whose runs compress when the store has a codec.
#: Every *intermediate* sorted run compresses; ``output`` and document
#: staging never do (the output document is the bit-identity contract
#: surface).
DEFAULT_COMPRESS_CATEGORIES = frozenset(
    {"run_write", "merge_write", "partial_run", "partial_merge_write"}
)


def frame_records(payloads: list[bytes]) -> tuple[bytes, int, int]:
    """(framed bytes, record count, payload bytes) of ``payloads`` framed
    as a run stores them: each record's length header, then the record.

    One join over interleaved headers and payloads: no Python step per
    record.  The result is what :meth:`RunWriter.write_framed` takes.
    """
    lengths = list(map(len, payloads))
    parts: list = [None] * (2 * len(lengths))
    parts[0::2] = map(_LEN.pack, lengths)
    parts[1::2] = payloads
    return b"".join(parts), len(lengths), sum(lengths)


def _scan_span(
    buffer: bytes, intra: int, limit: int, stop_type: int
) -> tuple[int, int]:
    """(end offset, record count) of the complete framed records in
    ``buffer[intra:limit]`` that precede the first record of type byte
    ``stop_type`` or the first empty record (which has no type byte)."""
    unpack_from = _LEN.unpack_from
    header = _LEN.size
    count = 0
    while intra + header <= limit:
        (length,) = unpack_from(buffer, intra)
        record_end = intra + header + length
        if (
            record_end > limit
            or not length
            or buffer[intra + header] == stop_type
        ):
            break
        intra = record_end
        count += 1
    return intra, count


@dataclass(frozen=True)
class RunHandle:
    """Identifies one run on the device.

    Attributes:
        run_id: unique id (the RunStore assigns these).
        block_ids: device blocks holding the stream, in order.  For a
            compressed run these hold segment blobs, not the framed
            stream itself.
        stream_bytes: length of the *logical* framed stream (framing
            included) - identical whether or not the run is compressed,
            so offsets, ``tell()`` and resume points mean the same thing
            everywhere.
        payload_bytes: total record payload bytes.
        record_count: number of records in the run.
        codec: run-compression codec name, or None for a plain run.
        segments: per-segment geometry of a compressed run
            (:class:`~repro.io.compress.RunSegment`); empty when plain.
            Carried on the handle - not in store-side maps - so recovery
            paths that retain handles across a :meth:`RunStore.free` can
            still address every segment.
    """

    run_id: int
    block_ids: tuple[int, ...]
    stream_bytes: int
    payload_bytes: int
    record_count: int
    codec: str | None = None
    segments: tuple[RunSegment, ...] = ()

    @property
    def block_count(self) -> int:
        return len(self.block_ids)

    def physical_index_for(self, offset: int, block_size: int) -> int:
        """Index into ``block_ids`` of the block serving ``offset``.

        Plain runs map logical offsets to blocks linearly; compressed
        runs map them to the first block of the covering segment (the
        whole segment is read to serve any offset inside it).
        """
        if not self.block_ids:
            return 0
        if not self.segments:
            return min(offset // block_size, len(self.block_ids) - 1)
        for segment in self.segments:
            if offset < segment.logical_end:
                return segment.block_start
        return self.segments[-1].block_start


class RunStore:
    """Creates, registers, and opens runs on one device.

    A :class:`~repro.io.bufferpool.BufferPool` may be attached for the
    duration of an algorithm (:meth:`attach_pool` / :meth:`detach_pool`):
    while attached, every run read and write is routed through the pool,
    and readers default to the pool's readahead.  With no pool attached
    (the default) all I/O goes straight to the device, exactly as before.
    """

    def __init__(self, device: BlockDevice):
        self.device = device
        self._pool = None
        self._runs: dict[int, RunHandle] = {}
        self._next_id = 0
        # Run compression: when set, writers whose category is in
        # DEFAULT_COMPRESS_CATEGORIES produce compressed runs.  Readers
        # dispatch on the handle's codec, so mixed stores (compressed
        # intermediates, plain output) just work.
        self.compression: CompressionConfig | None = None
        # Key sidecars: run_id -> the normalized key bytes
        # of the run's records, in record order.  Host-side acceleration
        # only - sidecars never touch the simulated device, they just let
        # later merge passes skip re-deriving keys the producing pass
        # already had in hand.  Dropped when the run is freed.
        self.key_sidecars: dict[int, list] = {}

    @property
    def pool(self):
        """The attached :class:`BufferPool`, or None."""
        return self._pool

    @property
    def io_target(self):
        """Where run I/O goes: the attached pool, else the raw device."""
        return self._pool if self._pool is not None else self.device

    def attach_pool(self, pool) -> None:
        """Route run I/O through ``pool`` until :meth:`detach_pool`."""
        if self._pool is not None:
            raise RunError("a buffer pool is already attached")
        self._pool = pool

    def detach_pool(self) -> None:
        """Flush the attached pool and route I/O to the device again."""
        if self._pool is None:
            return
        pool = self._pool
        self._pool = None
        pool.close()

    def create_writer(self, category: str = "run_write") -> "RunWriter":
        config = self.compression
        if config is not None and category in DEFAULT_COMPRESS_CATEGORIES:
            return CompressedRunWriter(self, category, config)
        return RunWriter(self, category)

    def get(self, run_id: int) -> RunHandle:
        try:
            return self._runs[run_id]
        except KeyError:
            raise RunError(f"unknown run id {run_id}") from None

    def open_reader(
        self,
        run: RunHandle | int,
        offset: int = 0,
        category: str = "run_read",
        readahead: int | None = None,
        stream: str | None = None,
    ) -> "RunReader":
        handle = self.get(run) if isinstance(run, int) else run
        if readahead is None:
            readahead = self._pool.readahead if self._pool else 0
        reader = RunReader if handle.codec is None else CompressedRunReader
        return reader(
            self.io_target,
            handle,
            offset,
            category,
            readahead=readahead,
            stream=stream,
        )

    def free(self, run: RunHandle | int) -> None:
        """Release a consumed run's blocks (bookkeeping, no counted I/O)."""
        handle = self.get(run) if isinstance(run, int) else run
        self.io_target.free_blocks(handle.block_ids)
        self._runs.pop(handle.run_id, None)
        self.key_sidecars.pop(handle.run_id, None)

    def total_run_blocks(self) -> int:
        """Blocks held by all live runs (used to check Lemma 4.8)."""
        return sum(h.block_count for h in self._runs.values())

    def live_run_ids(self) -> set[int]:
        """Ids of all currently registered runs.

        The recovery layer snapshots this before a restartable unit runs
        so that, on restart, runs registered by the failed attempt can be
        found and freed.
        """
        return set(self._runs)

    def _register(
        self,
        block_ids: list[int],
        stream_bytes: int,
        payload_bytes: int,
        record_count: int,
        codec: str | None = None,
        segments: tuple[RunSegment, ...] = (),
    ) -> RunHandle:
        run_id = self._next_id
        self._next_id += 1
        handle = RunHandle(
            run_id=run_id,
            block_ids=tuple(block_ids),
            stream_bytes=stream_bytes,
            payload_bytes=payload_bytes,
            record_count=record_count,
            codec=codec,
            segments=segments,
        )
        self._runs[run_id] = handle
        return handle


class RunWriter:
    """Appends records to a new run; the plain flush variant.

    Records are framed into one pending buffer of framed bytes, and
    :meth:`_flush` moves its front to the device: a plain run writes
    every full block through ``write_block_behind``, using one block of
    buffer memory.  :class:`CompressedRunWriter` differs only in its flush.
    """

    def __init__(self, store: RunStore, category: str):
        self._store = store
        self._device = store.io_target
        self._category = category
        self._pending = bytearray()
        self._block_ids: list[int] = []
        self._segments: list[RunSegment] = []
        self._codec: str | None = None
        self._stream_bytes = 0
        self._payload_bytes = 0
        self._record_count = 0
        self._finished = False
        # Pending framed bytes that trigger a flush: a block here, a
        # segment for a compressed run.
        self._flush_bytes = self._device.block_size

    def write_record(self, payload: bytes) -> None:
        self._append((payload,))

    def write_records(self, payloads: Iterable[bytes]) -> None:
        """Append many records with one framing pass.

        Byte-identical to a loop of :meth:`write_record` calls - both
        frame through :meth:`_append`, so the framed stream, the flush
        points, and the flush order are exactly the same.  Only the
        Python-side overhead (per-call dispatch) is batched away.
        """
        payloads = (
            payloads if isinstance(payloads, list) else list(payloads)
        )
        if self._finished:
            raise RunError("write to a finished run")
        if not payloads:
            return
        self._append(payloads)

    def _append(self, payloads) -> None:
        """The one framing path: length-prefix, then buffer."""
        if self._finished:
            raise RunError("write to a finished run")
        if len(payloads) == 1:
            (payload,) = payloads
            self._add_framed(
                _LEN.pack(len(payload)) + payload, 1, len(payload)
            )
            return
        self._add_framed(*frame_records(payloads))

    def write_framed(
        self, framed: bytes, count: int, payload_bytes: int
    ) -> None:
        """Append ``count`` records that are already framed as a run frames
        them, ``payload_bytes`` of payload in all - a span from
        :meth:`RunReader.read_available_span`.

        Byte-identical to :meth:`write_records` of the same records,
        without unframing and re-framing them.
        """
        if self._finished:
            raise RunError("write to a finished run")
        if len(framed) != payload_bytes + count * _LEN.size:
            raise RunError(
                f"framed span of {len(framed)} bytes does not hold "
                f"{count} records of {payload_bytes} payload bytes"
            )
        self._add_framed(framed, count, payload_bytes)

    def _add_framed(
        self, framed: bytes, count: int, payload_bytes: int
    ) -> None:
        """Buffer framed records and flush once a flush is due."""
        self._pending += framed
        self._stream_bytes += len(framed)
        self._payload_bytes += payload_bytes
        self._record_count += count
        if len(self._pending) >= self._flush_bytes:
            self._flush(final=False)

    def finish(self) -> RunHandle:
        """Flush the pending tail and register the run."""
        if self._finished:
            raise RunError("run already finished")
        self._finished = True
        if self._pending:
            self._flush(final=True)
        return self._store._register(
            self._block_ids,
            self._stream_bytes,
            self._payload_bytes,
            self._record_count,
            codec=self._codec,
            segments=tuple(self._segments),
        )

    def abandon(self) -> None:
        """Discard a partially written run (fault-recovery cleanup).

        Frees the blocks already flushed and marks the writer finished
        without registering a run.  Called when a device fault interrupts
        the unit of work producing this run; the restarted attempt starts
        a fresh writer.
        """
        if self._finished:
            raise RunError("run already finished")
        self._finished = True
        self._pending.clear()
        if self._block_ids:
            self._device.free_blocks(self._block_ids)
        self._block_ids = []

    @property
    def stream_bytes(self) -> int:
        """Framed bytes written so far (pending included); ``tell()`` for
        the record stream."""
        return self._stream_bytes

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def room(self) -> int:
        """Framed bytes this writer accepts before its next device write.

        Appending fewer buffers them; appending ``room`` or more fills
        the block (the segment, when compressed) and flushes it.
        Batching callers hand over records up to this point, so a batch
        write touches the device exactly where a record-at-a-time loop
        would.
        """
        return self._flush_bytes - len(self._pending)

    def _flush(self, final: bool) -> None:
        """Write every full pending block - and the tail when ``final``."""
        size = self._flush_bytes
        pending = self._pending
        full = len(pending) if final else len(pending) - len(pending) % size
        for start in range(0, full, size):
            block_id = self._device.allocate(1, pool=self._category)
            # Write-behind: on a striped device the flush is queued
            # (double buffered) so run output overlaps with compute and
            # reads; on a serial device or through a caching pool this is
            # the identically accounted plain write.
            self._device.write_block_behind(
                block_id, bytes(pending[start : start + size]), self._category
            )
            self._block_ids.append(block_id)
        del pending[:full]


class CompressedRunWriter(RunWriter):
    """A :class:`RunWriter` whose flush writes compressed segments.

    The logical stream is a plain run's (``stream_bytes`` counts framed
    bytes as if uncompressed).  Once ``segment_blocks`` raw blocks are
    pending, the record-aligned prefix that reaches them is
    container-split by :func:`~repro.io.compress.encode_records` and
    written as one vectored extent of ``ceil(blob/block_size)`` blocks.
    Compression CPU is charged per raw byte via
    :meth:`~repro.io.stats.IOStats.record_compression`.
    """

    def __init__(self, store: RunStore, category: str, config):
        super().__init__(store, category)
        self._codec = config.codec
        self._flush_bytes = config.segment_blocks * self._device.block_size

    def _flush(self, final: bool) -> None:
        """Encode record-aligned segments while a segment's worth is
        pending - and the tail when ``final``."""
        from .compress import RunSegment, encode_records

        pending = self._pending
        size = self._device.block_size
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        while pending and (final or len(pending) >= self._flush_bytes):
            # The segment ends with the record that reaches a segment.
            spans = []
            stop = 0
            while stop < self._flush_bytes and stop < len(pending):
                (length,) = unpack_from(pending, stop)
                start = stop + header
                stop = start + length
                spans.append((start, stop))
            framed = bytes(pending[:stop])
            del pending[:stop]
            blob = encode_records(
                [framed[start:end] for start, end in spans], self._codec
            )
            self._device.stats.record_compression(stop, len(blob))
            block_count = -(-len(blob) // size)
            padded = blob + b"\x00" * (block_count * size - len(blob))
            first = self._device.allocate(block_count, pool=self._category)
            block_ids = list(range(first, first + block_count))
            self._device.write_blocks(
                block_ids,
                [padded[i : i + size] for i in range(0, len(padded), size)],
                self._category,
            )
            logical_start = (
                self._segments[-1].logical_end if self._segments else 0
            )
            self._segments.append(
                RunSegment(
                    logical_start=logical_start,
                    logical_bytes=stop,
                    block_start=len(self._block_ids),
                    block_count=block_count,
                    stored_bytes=len(blob),
                    record_count=len(spans),
                )
            )
            self._block_ids.extend(block_ids)


class RunReader:
    """Sequential reader over a run, resumable at any record boundary;
    the plain load variant.

    The reader holds one loaded buffer of framed bytes covering the
    logical stream range [``_start``, ``_end``), and every record method
    serves from it; :meth:`_load` refills it for a position.  A plain run
    loads the block holding the position; :class:`CompressedRunReader`
    differs only in its load.

    ``device`` may be a raw :class:`BlockDevice` or a
    :class:`~repro.io.bufferpool.BufferPool`.  With ``readahead > 0`` a
    plain reader fetches upcoming blocks in vectored extents of that many
    blocks; only use readahead through a pool - against a raw device the
    prefetched blocks have nowhere to live, so each would be charged again
    when the reader actually arrives at it.
    """

    def __init__(
        self,
        device: BlockDevice,
        handle: RunHandle,
        offset: int = 0,
        category: str = "run_read",
        readahead: int = 0,
        stream: str | None = None,
    ):
        if offset < 0 or offset > handle.stream_bytes:
            raise RunError(
                f"offset {offset} outside run of {handle.stream_bytes} bytes"
            )
        self._device = device
        self._handle = handle
        self._category = category
        self._stream = stream
        self._pos = offset
        self._buffer: bytes = b""
        self._start = 0
        self._end = 0
        self._block_index = -1
        # Readahead deeper than the run is meaningless: clamp it to the
        # run's block count so no extent can ever charge reads past
        # end-of-run, no matter how generous the pool's advisory depth is.
        self._readahead = max(0, min(readahead, handle.block_count))
        self._prefetched_until = 0

    @property
    def handle(self) -> RunHandle:
        return self._handle

    @property
    def block_index(self) -> int:
        """Run-relative index of the last loaded block (-1 before any read).

        The merge prefetcher (:class:`~repro.io.parallel.MergePrefetcher`)
        uses this as each run's read frontier: ``block_index + 1`` is the
        next block this reader will demand - for a compressed run, the
        first block of the following segment.
        """
        return self._block_index

    def tell(self) -> int:
        """Framed-stream offset of the next record."""
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._handle.stream_bytes

    def read_record(self) -> bytes | None:
        """Return the next record payload, or None at end of run."""
        if self.exhausted:
            return None
        header = self._read_bytes(_LEN.size)
        (length,) = _LEN.unpack(header)
        return self._read_bytes(length)

    def __iter__(self) -> Iterator[bytes]:
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record

    def batches(self) -> Iterator[list[bytes]]:
        """The records in lists, a loaded buffer at a time, loading
        exactly when :meth:`read_record` would: the record that needs the
        next load comes alone, through :meth:`read_record`.

        Between two batches nothing is loaded, so a caller that must
        settle its own state before every device access settles before
        each ``next()``.
        """
        while True:
            batch = self.read_available_records()
            if not batch:
                record = self.read_record()
                if record is None:
                    return
                batch = [record]
            yield batch

    def loaded(self) -> tuple[bytes, int, int]:
        """The loaded buffer and the span of it not read yet.

        Returns (buffer, offset, limit): the framed records from the next
        one on lie in ``buffer[offset:limit]``; ``offset == limit`` when
        the next record is not loaded (or nothing is).  A caller walks
        the complete records of the span in place and hands back the
        offset it reached with :meth:`consume_to`; the record that needs
        a load is then read with :meth:`read_record`, which loads exactly
        when a record-at-a-time reader would.
        """
        offset = self._pos - self._start
        if offset < 0 or self._pos >= self._end:
            return self._buffer, offset, offset
        return self._buffer, offset, self._end - self._start

    def consume_to(self, offset: int) -> None:
        """Move past the records walked in the span :meth:`loaded` gave:
        ``offset`` is the loaded-buffer offset of the next record."""
        pos = self._start + offset
        if pos != self._pos and not self._pos < pos <= self._end:
            raise RunError(
                f"offset {offset} outside the loaded span of run "
                f"{self._handle.run_id}"
            )
        self._pos = pos

    def read_available_records(self) -> list[bytes]:
        """Every record servable from the loaded buffer without new I/O.

        Returns the (possibly empty) list of records whose header and
        payload lie entirely inside the loaded buffer.  The next record -
        one that needs a load, or the first record before anything is
        loaded - is *not* read; fetching it via :meth:`read_record`
        performs the load at exactly the moment a record-at-a-time reader
        would.  This is what keeps batched readers bit-identical in I/O
        order: draining a loaded buffer is free in the device model,
        exactly as the scalar fast path of :meth:`_read_bytes` is.
        """
        out: list[bytes] = []
        buffer, intra, limit = self.loaded()
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        while intra + header <= limit:
            (length,) = unpack_from(buffer, intra)
            record_end = intra + header + length
            if record_end > limit:
                break
            out.append(buffer[intra + header : record_end])
            intra = record_end
        self._pos = self._start + intra
        return out

    def read_available_span(self, stop_type: int) -> tuple[bytes, int, int]:
        """The loaded buffer's next records as one framed span.

        Returns (framed bytes, record count, payload bytes) of the records
        :meth:`read_available_records` would return, cut before the first
        record whose type byte is ``stop_type`` - or before an empty
        record, which has no type byte.  The reader stops there:
        :meth:`read_record` returns that record next, and a record that
        needs a load is never read.
        """
        buffer, first, limit = self.loaded()
        stop, count = _scan_span(buffer, first, limit, stop_type)
        self._pos = self._start + stop
        return buffer[first:stop], count, stop - first - count * _LEN.size

    def _read_bytes(self, count: int) -> bytes:
        pos = self._pos
        start = self._start
        if start <= pos and pos + count <= self._end:
            # Fast path: the whole read lies inside the loaded buffer.
            self._pos = pos + count
            return self._buffer[pos - start : pos - start + count]
        if pos + count > self._handle.stream_bytes:
            raise RunError(
                f"truncated run {self._handle.run_id}: wanted {count} bytes "
                f"at offset {pos}"
            )
        parts = []
        remaining = count
        while remaining:
            pos = self._pos
            if not self._start <= pos < self._end:
                self._load(pos)
                if pos >= self._end:
                    raise RunError(
                        f"run {self._handle.run_id} holds no bytes at "
                        f"offset {pos}, short of its "
                        f"{self._handle.stream_bytes} stream bytes"
                    )
            take = min(remaining, self._end - pos)
            intra = pos - self._start
            parts.append(self._buffer[intra : intra + take])
            self._pos = pos + take
            remaining -= take
        return b"".join(parts)

    def _load(self, pos: int) -> None:
        """Load the block holding ``pos``, fetching ahead by the readahead
        rules."""
        size = self._device.block_size
        index = pos // size
        block_ids = self._handle.block_ids
        if index >= len(block_ids):
            raise RunError(
                f"offset {pos} lies past the {len(block_ids)} blocks of "
                f"run {self._handle.run_id}"
            )
        if self._readahead and index < self._prefetched_until:
            is_cached = getattr(self._device, "is_cached", None)
            if is_cached is not None and not is_cached(block_ids[index]):
                # A prefetched block was evicted before we reached it:
                # the pool is too contended for readahead to pay off, so
                # stop prefetching - otherwise every evicted block would
                # be charged twice (once fetched ahead, once on arrival).
                self._readahead = 0
        if self._readahead and index >= self._prefetched_until:
            # Clamp the extent at end-of-run: the final extent covers
            # exactly the remaining blocks, never charging reads past it.
            end = min(index + self._readahead, len(block_ids))
            extent = self._device.read_blocks(
                block_ids[index:end], self._category, stream=self._stream
            )
            self._prefetched_until = end
            self._buffer = extent[0]
        else:
            self._buffer = self._device.read_block(
                block_ids[index], self._category, stream=self._stream
            )
        self._block_index = index
        self._start = index * size
        # The bytes actually loaded: a block may hold less than its size.
        self._end = min(
            self._start + len(self._buffer), self._handle.stream_bytes
        )


class CompressedRunReader(RunReader):
    """A :class:`RunReader` whose load decodes a compressed segment.

    Any logical offset maps to its covering segment, whose blocks are
    read in one vectored extent (honest, ``stream``-aware accounting) and
    decoded into the framed byte range [``logical_start``,
    ``logical_end``).  Positions, ``tell()`` and resume points are a plain
    run's, and a segment is read whole, so readahead does not apply.
    Corrupt or truncated segments surface as
    :class:`~repro.errors.RunCodecError` naming the run id and the first
    physical block of the bad segment.
    """

    def _load(self, pos: int) -> None:
        from .compress import decode_records

        run_id = self._handle.run_id
        segment = self._handle.segments[self._segment_at(pos)]
        block_ids = self._handle.block_ids[
            segment.block_start : segment.block_start + segment.block_count
        ]
        blocks = self._device.read_blocks(
            block_ids, self._category, stream=self._stream
        )
        blob = b"".join(blocks)[: segment.stored_bytes]
        try:
            framed = frame_records(decode_records(blob))[0]
        except RunCodecError as exc:
            raise RunCodecError(
                f"run {run_id}: corrupt compressed segment "
                f"at block {block_ids[0]}: {exc}",
                run_id=run_id,
                block=block_ids[0],
            ) from exc
        if len(framed) != segment.logical_bytes:
            raise RunCodecError(
                f"run {run_id}: segment at block "
                f"{block_ids[0]} decoded to {len(framed)} framed bytes, "
                f"expected {segment.logical_bytes}",
                run_id=run_id,
                block=block_ids[0],
            )
        self._device.stats.record_decompression(
            segment.stored_bytes, segment.logical_bytes
        )
        self._buffer = framed
        self._start = segment.logical_start
        self._end = min(segment.logical_end, self._handle.stream_bytes)
        self._block_index = segment.block_start + segment.block_count - 1

    def _segment_at(self, pos: int) -> int:
        segments = self._handle.segments
        lo, hi = 0, len(segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if segments[mid].logical_end <= pos:
                lo = mid + 1
            else:
                hi = mid
        if lo >= len(segments) or not (
            segments[lo].logical_start <= pos < segments[lo].logical_end
        ):
            raise RunError(
                f"offset {pos} outside the segments of run "
                f"{self._handle.run_id}"
            )
        return lo
