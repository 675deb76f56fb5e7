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

Writers and readers each use a single block of buffer memory, matching the
transfer-buffer assumption of the I/O model.
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
        # Run compression (ISSUE 10): when set, writers whose category is
        # in ``compression.categories`` produce compressed runs.  Readers
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
        if config is not None and category in config.categories:
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
        if handle.codec is not None:
            return CompressedRunReader(
                self.io_target,
                handle,
                self.device.stats,
                offset=offset,
                category=category,
                stream=stream,
            )
        if readahead is None:
            readahead = self._pool.readahead if self._pool else 0
        return RunReader(
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
    """Appends records to a new run using one block of buffer memory."""

    def __init__(self, store: RunStore, category: str):
        self._store = store
        self._device = store.io_target
        self._category = category
        self._buffer = bytearray()
        self._block_ids: list[int] = []
        self._stream_bytes = 0
        self._payload_bytes = 0
        self._record_count = 0
        self._finished = False

    def write_record(self, payload: bytes) -> None:
        self._append((payload,))

    def write_records(self, payloads: Iterable[bytes]) -> None:
        """Append many records with one framing pass.

        Byte-identical to a loop of :meth:`write_record` calls - both
        frame through :meth:`_append`, so the framed stream, the block
        fill points, and the flush order are exactly the same.  Only the
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
        """The one framing path: length-prefix, buffer, flush full blocks."""
        if self._finished:
            raise RunError("write to a finished run")
        pack = _LEN.pack
        parts: list[bytes] = []
        payload_bytes = 0
        count = 0
        for payload in payloads:
            parts.append(pack(len(payload)))
            parts.append(payload)
            payload_bytes += len(payload)
            count += 1
        self._add_framed(b"".join(parts), count, payload_bytes)

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
        self._add_framed(framed, count, payload_bytes)

    def _add_framed(
        self, framed: bytes, count: int, payload_bytes: int
    ) -> None:
        """Buffer framed records and flush every full block."""
        self._buffer += framed
        self._stream_bytes += len(framed)
        self._payload_bytes += payload_bytes
        self._record_count += count
        size = self._device.block_size
        buffer = self._buffer
        if len(buffer) >= size:
            full = len(buffer) - (len(buffer) % size)
            for start in range(0, full, size):
                self._flush_block(bytes(buffer[start : start + size]))
            del buffer[:full]

    def finish(self) -> RunHandle:
        """Flush the tail block and register the run."""
        if self._finished:
            raise RunError("run already finished")
        self._finished = True
        if self._buffer:
            self._flush_block(bytes(self._buffer))
            self._buffer.clear()
        return self._store._register(
            self._block_ids,
            self._stream_bytes,
            self._payload_bytes,
            self._record_count,
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
        self._buffer.clear()
        if self._block_ids:
            self._device.free_blocks(self._block_ids)
        self._block_ids = []

    @property
    def stream_bytes(self) -> int:
        """Framed bytes written so far; ``tell()`` for the record stream."""
        return self._stream_bytes

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def room(self) -> int:
        """Framed bytes this writer accepts before its next device write.

        Appending fewer buffers them; appending ``room`` or more fills
        the block and flushes it.  Batching callers hand over records up
        to this point, so a batch write touches the device exactly where
        a record-at-a-time loop would.
        """
        return self._device.block_size - len(self._buffer)

    def _flush_block(self, data: bytes) -> None:
        block_id = self._device.allocate(1, pool=self._category)
        # Write-behind: on a striped device the flush is queued (double
        # buffered) so run output overlaps with compute and reads; on a
        # serial device or through a caching pool this is the identically
        # accounted plain write.
        self._device.write_block_behind(block_id, data, self._category)
        self._block_ids.append(block_id)


class RunReader:
    """Sequential reader over a run, resumable at any record boundary.

    ``device`` may be a raw :class:`BlockDevice` or a
    :class:`~repro.io.bufferpool.BufferPool`.  With ``readahead > 0`` the
    reader fetches upcoming blocks in vectored extents of that many blocks;
    only use readahead through a pool - against a raw device the prefetched
    blocks have nowhere to live, so each would be charged again when the
    reader actually arrives at it.
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
        self._block_index = -1
        self._block: bytes = b""
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
        """Run-relative index of the buffered block (-1 before any read).

        The merge prefetcher (:class:`~repro.io.parallel.MergePrefetcher`)
        uses this as each run's read frontier: ``block_index + 1`` is the
        next block this reader will demand.
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

    def read_available_records(self) -> list[bytes]:
        """Every record servable from the buffered block without new I/O.

        Returns the (possibly empty) list of records whose header and
        payload lie entirely inside the currently loaded block.  The next
        record - one that needs a block load, or the first record before
        any block is buffered - is *not* read; fetching it via
        :meth:`read_record` performs the load at exactly the moment a
        record-at-a-time reader would.  This is what keeps batched readers
        bit-identical in I/O order: draining a loaded block is free in
        the device model, exactly as the scalar fast path of
        :meth:`_read_bytes` is.
        """
        out: list[bytes] = []
        end = self._handle.stream_bytes
        if self._pos >= end or self._block_index < 0:
            return out
        size = self._device.block_size
        block = self._block
        base = self._block_index * size
        intra = self._pos - base
        if intra < 0 or intra >= size:
            return out
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        limit = min(size, end - base)
        while intra + header <= limit:
            (length,) = unpack_from(block, intra)
            record_end = intra + header + length
            if record_end > limit:
                break
            out.append(block[intra + header : record_end])
            intra = record_end
        self._pos = base + intra
        return out

    def read_available_span(self, stop_type: int) -> tuple[bytes, int, int]:
        """The buffered block's next records as one framed span.

        Returns (framed bytes, record count, payload bytes) of the records
        :meth:`read_available_records` would return, cut before the first
        record whose type byte is ``stop_type`` - or before an empty
        record, which has no type byte.  The reader stops there:
        :meth:`read_record` returns that record next, and a record that
        needs a block load is never read.
        """
        end = self._handle.stream_bytes
        if self._pos >= end or self._block_index < 0:
            return b"", 0, 0
        size = self._device.block_size
        base = self._block_index * size
        start = self._pos - base
        if start < 0 or start >= size:
            return b"", 0, 0
        stop, count = _scan_span(
            self._block, start, min(size, end - base), stop_type
        )
        self._pos = base + stop
        return (
            self._block[start:stop],
            count,
            stop - start - count * _LEN.size,
        )

    def _read_bytes(self, count: int) -> bytes:
        if self._pos + count > self._handle.stream_bytes:
            raise RunError(
                f"truncated run {self._handle.run_id}: wanted {count} bytes "
                f"at offset {self._pos}"
            )
        size = self._device.block_size
        index, intra = divmod(self._pos, size)
        if index == self._block_index and intra + count <= size:
            # Fast path: the whole read lies inside the current block.
            self._pos += count
            return self._block[intra : intra + count]
        parts = []
        remaining = count
        while remaining:
            index, intra = divmod(self._pos, size)
            if index != self._block_index:
                self._load_block(index)
            take = min(remaining, size - intra)
            parts.append(self._block[intra : intra + take])
            self._pos += take
            remaining -= take
        return b"".join(parts)

    def _load_block(self, index: int) -> None:
        block_ids = self._handle.block_ids
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
            self._block = extent[0]
        else:
            self._block = self._device.read_block(
                block_ids[index], self._category, stream=self._stream
            )
        self._block_index = index


class CompressedRunWriter:
    """Appends records to a new *compressed* run (ISSUE 10).

    Drop-in for :class:`RunWriter`: same interface, same logical stream
    semantics (``stream_bytes`` counts framed bytes as if uncompressed).
    Records buffer until roughly ``segment_blocks`` raw blocks are
    pending, then the whole group is container-split, encoded, and
    written as one vectored extent of ``ceil(blob/block_size)`` blocks.
    Compression CPU is charged per raw byte via
    :meth:`~repro.io.stats.IOStats.record_compression`.
    """

    def __init__(self, store: RunStore, category: str, config):
        self._store = store
        self._device = store.io_target
        self._stats = store.device.stats
        self._category = category
        self._config = config
        self._pending: list[bytes] = []
        self._pending_bytes = 0  # framed bytes of pending records
        self._block_ids: list[int] = []
        self._segments: list[RunSegment] = []
        self._logical_written = 0
        self._stream_bytes = 0
        self._payload_bytes = 0
        self._record_count = 0
        self._finished = False
        self._segment_bytes = (
            config.segment_blocks * store.device.block_size
        )

    def write_record(self, payload: bytes) -> None:
        self._append((payload,))

    def write_records(self, payloads: Iterable[bytes]) -> None:
        payloads = (
            payloads if isinstance(payloads, list) else list(payloads)
        )
        if self._finished:
            raise RunError("write to a finished run")
        if not payloads:
            return
        self._append(payloads)

    def write_framed(
        self, framed: bytes, count: int, payload_bytes: int
    ) -> None:
        """Append ``count`` already-framed records (see
        :meth:`RunWriter.write_framed`); segments are coded from the
        records, so the span is unframed here."""
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        payloads = []
        pos = 0
        for _ in range(count):
            (length,) = unpack_from(framed, pos)
            pos += header
            payloads.append(framed[pos : pos + length])
            pos += length
        if pos != len(framed) or pos - count * header != payload_bytes:
            raise RunError(
                f"framed span of {len(framed)} bytes does not hold "
                f"{count} records of {payload_bytes} payload bytes"
            )
        self._append(payloads)

    def _append(self, payloads) -> None:
        if self._finished:
            raise RunError("write to a finished run")
        header = _LEN.size
        for payload in payloads:
            self._pending.append(payload)
            self._pending_bytes += header + len(payload)
            self._stream_bytes += header + len(payload)
            self._payload_bytes += len(payload)
            self._record_count += 1
        while self._pending_bytes >= self._segment_bytes:
            self._close_segment()

    def _close_segment(self, final: bool = False) -> None:
        """Encode a prefix of pending records into one stored segment."""
        from .compress import RunSegment, encode_records

        header = _LEN.size
        take_bytes = 0
        count = 0
        for payload in self._pending:
            take_bytes += header + len(payload)
            count += 1
            if take_bytes >= self._segment_bytes:
                break
        if not final and take_bytes < self._segment_bytes:
            return
        records = self._pending[:count]
        del self._pending[:count]
        self._pending_bytes -= take_bytes

        blob = encode_records(records, self._config.codec)
        self._stats.record_compression(take_bytes, len(blob))
        size = self._store.device.block_size
        block_count = -(-len(blob) // size)
        padded = blob + b"\x00" * (block_count * size - len(blob))
        first = self._device.allocate(block_count, pool=self._category)
        block_ids = list(range(first, first + block_count))
        self._device.write_blocks(
            block_ids,
            [padded[i * size : (i + 1) * size] for i in range(block_count)],
            self._category,
        )
        self._segments.append(
            RunSegment(
                logical_start=self._logical_written,
                logical_bytes=take_bytes,
                block_start=len(self._block_ids),
                block_count=block_count,
                stored_bytes=len(blob),
                record_count=len(records),
            )
        )
        self._block_ids.extend(block_ids)
        self._logical_written += take_bytes

    def finish(self) -> RunHandle:
        """Flush the tail segment and register the run."""
        if self._finished:
            raise RunError("run already finished")
        self._finished = True
        if self._pending:
            self._close_segment(final=True)
        return self._store._register(
            self._block_ids,
            self._stream_bytes,
            self._payload_bytes,
            self._record_count,
            codec=self._config.codec,
            segments=tuple(self._segments),
        )

    def abandon(self) -> None:
        """Discard a partially written run (fault-recovery cleanup)."""
        if self._finished:
            raise RunError("run already finished")
        self._finished = True
        self._pending.clear()
        self._pending_bytes = 0
        if self._block_ids:
            self._device.free_blocks(self._block_ids)
        self._block_ids = []

    @property
    def stream_bytes(self) -> int:
        """Logical framed bytes appended so far (pending included)."""
        return self._stream_bytes

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def room(self) -> int:
        """Framed bytes this writer accepts before its next device write
        (the next segment close); see :attr:`RunWriter.room`."""
        return self._segment_bytes - self._pending_bytes


class CompressedRunReader:
    """Sequential reader over a compressed run, resumable at any record.

    Decodes one whole segment at a time: any logical offset binary-maps
    to its covering segment, whose blocks are read in one vectored
    extent (honest, `stream`-aware accounting) and decoded into the
    framed byte range [``logical_start``, ``logical_end``).  Positions,
    ``tell()`` and ``exhausted`` all speak logical framed-stream
    offsets, exactly like :class:`RunReader`, so resume points are
    interchangeable between plain and compressed runs.

    Corrupt or truncated segments surface as
    :class:`~repro.errors.RunCodecError` naming the run id and the first
    physical block of the bad segment.
    """

    def __init__(
        self,
        device: BlockDevice,
        handle: RunHandle,
        stats,
        offset: int = 0,
        category: str = "run_read",
        stream: str | None = None,
    ):
        if offset < 0 or offset > handle.stream_bytes:
            raise RunError(
                f"offset {offset} outside run of {handle.stream_bytes} bytes"
            )
        self._device = device
        self._handle = handle
        self._stats = stats
        self._category = category
        self._stream = stream
        self._pos = offset
        self._segment_index = -1
        self._buffer = b""
        self._buffer_start = 0
        self._block_index = -1

    @property
    def handle(self) -> RunHandle:
        return self._handle

    @property
    def block_index(self) -> int:
        """Physical read frontier (last block of the decoded segment).

        Keeps the merge prefetcher's contract: ``block_index + 1`` is
        the next *device block* this reader will demand - the first
        block of the following segment.
        """
        return self._block_index

    def tell(self) -> int:
        """Logical framed-stream offset of the next record."""
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

    def read_available_records(self) -> list[bytes]:
        """Every record servable from the decoded segment without new I/O.

        The batch-drain contract of :meth:`RunReader.read_available_records`
        at segment granularity: records never span segments, so the
        decoded buffer always ends on a record boundary.
        """
        out: list[bytes] = []
        if self.exhausted or self._segment_index < 0:
            return out
        buffer = self._buffer
        intra = self._pos - self._buffer_start
        if intra < 0 or intra >= len(buffer):
            return out
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        limit = len(buffer)
        while intra + header <= limit:
            (length,) = unpack_from(buffer, intra)
            record_end = intra + header + length
            if record_end > limit:
                break
            out.append(buffer[intra + header : record_end])
            intra = record_end
        self._pos = self._buffer_start + intra
        return out

    def read_available_span(self, stop_type: int) -> tuple[bytes, int, int]:
        """The decoded segment's next records as one framed span; see
        :meth:`RunReader.read_available_span`."""
        if self.exhausted or self._segment_index < 0:
            return b"", 0, 0
        buffer = self._buffer
        start = self._pos - self._buffer_start
        if start < 0 or start >= len(buffer):
            return b"", 0, 0
        stop, count = _scan_span(buffer, start, len(buffer), stop_type)
        self._pos = self._buffer_start + stop
        return buffer[start:stop], count, stop - start - count * _LEN.size

    def _read_bytes(self, count: int) -> bytes:
        if self._pos + count > self._handle.stream_bytes:
            raise RunError(
                f"truncated run {self._handle.run_id}: wanted {count} bytes "
                f"at offset {self._pos}"
            )
        buffer = self._buffer
        intra = self._pos - self._buffer_start
        if (
            self._segment_index >= 0
            and 0 <= intra
            and intra + count <= len(buffer)
        ):
            # Fast path: the whole read lies inside the decoded segment.
            self._pos += count
            return buffer[intra : intra + count]
        parts = []
        remaining = count
        while remaining:
            intra = self._pos - self._buffer_start
            if (
                self._segment_index < 0
                or intra < 0
                or intra >= len(self._buffer)
            ):
                self._load_segment(self._segment_at(self._pos))
                intra = self._pos - self._buffer_start
            take = min(remaining, len(self._buffer) - intra)
            parts.append(self._buffer[intra : intra + take])
            self._pos += take
            remaining -= take
        return b"".join(parts)

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

    def _load_segment(self, index: int) -> None:
        from .compress import decode_records

        segment = self._handle.segments[index]
        block_ids = self._handle.block_ids[
            segment.block_start : segment.block_start + segment.block_count
        ]
        blocks = self._device.read_blocks(
            block_ids, self._category, stream=self._stream
        )
        blob = b"".join(blocks)[: segment.stored_bytes]
        try:
            records = decode_records(blob)
        except RunCodecError as exc:
            raise RunCodecError(
                f"run {self._handle.run_id}: corrupt compressed segment "
                f"at block {block_ids[0]}: {exc}",
                run_id=self._handle.run_id,
                block=block_ids[0],
            ) from exc
        pack = _LEN.pack
        framed = b"".join(
            pack(len(record)) + record for record in records
        )
        if len(framed) != segment.logical_bytes:
            raise RunCodecError(
                f"run {self._handle.run_id}: segment at block "
                f"{block_ids[0]} decoded to {len(framed)} framed bytes, "
                f"expected {segment.logical_bytes}",
                run_id=self._handle.run_id,
                block=block_ids[0],
            )
        self._stats.record_decompression(
            segment.stored_bytes, segment.logical_bytes
        )
        self._buffer = framed
        self._buffer_start = segment.logical_start
        self._segment_index = index
        self._block_index = segment.block_start + segment.block_count - 1
