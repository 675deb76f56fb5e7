"""External-memory stacks with no-prefetch paging (paper Section 3.1).

NEXSORT uses three stacks that can outgrow internal memory: the *data stack*
(elements awaiting sorting), the *path stack* (start locations of the current
element's ancestors), and the *output location stack* (resume points during
the output phase).  The paper implements them "as external-memory data
structures, capable of paging blocks in and out of internal memory as
needed", under a **no-prefetch** policy: a spilled block is only paged back
in when something on it must be popped.

:class:`ExternalStack` implements exactly that.  Records are opaque byte
strings.  The stack keeps its newest records in an internal-memory buffer of
a fixed number of blocks; when the buffer overflows, the *oldest* buffered
records are packed into blocks and written to the device (a page-out).  Pops
that reach below the buffered region page the most recent spilled segment
back in (a page-in).  Every page-in/out is counted on the device under the
stack's accounting category, so Lemmas 4.10, 4.11, and 4.13 can be checked
against real counters.

Stack *locations* are measured in payload bytes pushed (framing overhead
excluded), which is the measure NEXSORT's size test on Line 9 of Figure 4
uses to decide whether a subtree has reached the sort threshold.

A push may carry *fields*: values the caller already derived from the
record's bytes (NEXSORT's scan hands over a start's tag+attributes end,
key atom and position).  Fields live only while their record is buffered:
a page-out drops them and a paged-in record carries none, so bytes that
passed through the device are always parsed again.  They are kept sparse,
by record ordinal, so pushes without fields and page-ins do no extra work.

A caller that moves many records can ask for :attr:`ExternalStack.room`
and hand over every record that fits in one :meth:`ExternalStack.extend`
call: the result is the state a loop of pushes leaves, with no device
access, so the push that pages out still fires at the same record.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate, islice

from ..errors import StackError
from .device import BlockDevice

_COUNT = struct.Struct("<H")
_LEN = struct.Struct("<I")


def _table(count: int) -> struct.Struct:
    """The head of a packed block holding ``count`` records: the count,
    then every record's length.  Built per block, not cached: a cache
    kept for the whole sort pins the allocator memory its entries land
    in, and peak memory rose when one did."""
    return struct.Struct(f"<H{count}I")


class _PackedSegment:
    """One spilled block holding several whole records."""

    __slots__ = ("block_id", "record_count", "payload_bytes")

    def __init__(self, block_id: int, record_count: int, payload_bytes: int):
        self.block_id = block_id
        self.record_count = record_count
        self.payload_bytes = payload_bytes

    blocks = 1


class _BigSegment:
    """One oversized record spilled across several dedicated blocks."""

    __slots__ = ("block_ids", "payload_bytes")

    def __init__(self, block_ids: list[int], payload_bytes: int):
        self.block_ids = block_ids
        self.payload_bytes = payload_bytes

    record_count = 1

    @property
    def blocks(self) -> int:
        return len(self.block_ids)


class ExternalStack:
    """A spillable LIFO stack of byte-string records.

    Args:
        device: the block device used for paging; may also be a
            :class:`~repro.io.bufferpool.BufferPool`, in which case spilled
            blocks are cached write-back - a segment paged out, paged back
            in, and freed while it stays resident never touches the device.
        buffer_blocks: internal-memory blocks this stack may use; the caller
            is responsible for having reserved them from the
            :class:`~repro.io.budget.MemoryBudget`.
        category: accounting category for page-ins (reads) and page-outs
            (writes) on the device.
    """

    def __init__(
        self,
        device: BlockDevice,
        buffer_blocks: int = 1,
        category: str = "stack",
    ):
        if buffer_blocks < 1:
            raise StackError("a stack needs at least one buffer block")
        self._device = device
        self._category = category
        self._capacity_bytes = buffer_blocks * device.block_size
        # Records currently held in internal memory, oldest first.
        self._memory: list[bytes] = []
        self._memory_bytes = 0
        # Spilled segments, oldest first.  Invariant: every spilled record is
        # older than every record in ``_memory``.
        self._segments: list[_PackedSegment | _BigSegment] = []
        self._spilled_bytes = 0
        self._record_count = 0
        # Fields of buffered records that were never paged out: ordinals
        # (records below them on the stack), ascending, and the values.
        self._field_ordinals: list[int] = []
        self._field_values: list = []
        self._page_ins = 0
        self._page_outs = 0

    # -- observers --------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Current stack top location, in payload bytes."""
        return self._spilled_bytes + self._memory_bytes

    @property
    def in_memory_bytes(self) -> int:
        return self._memory_bytes

    @property
    def spilled_bytes(self) -> int:
        return self._spilled_bytes

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def page_ins(self) -> int:
        return self._page_ins

    @property
    def page_outs(self) -> int:
        return self._page_outs

    @property
    def is_empty(self) -> bool:
        return self._record_count == 0

    @property
    def memory_is_full(self) -> bool:
        """True when another push is likely to force a page-out."""
        return self._memory_bytes >= self._capacity_bytes

    @property
    def room(self) -> int:
        """Payload bytes pushable before the next page-out.

        Pushes totalling at most ``room`` bytes stay buffered; a push that
        takes the total past it pages out.
        """
        return self._capacity_bytes - self._memory_bytes

    # -- mutation ----------------------------------------------------------

    def push(self, record: bytes, fields=None) -> int:
        """Push a record; returns its start location (payload offset).

        ``fields`` (anything but None) is kept beside the record while it
        stays buffered and handed back by :meth:`pop_through`.
        """
        location = self._spilled_bytes + self._memory_bytes
        if fields is not None:
            self._field_ordinals.append(self._record_count)
            self._field_values.append(fields)
        self._memory.append(record)
        self._memory_bytes += len(record)
        self._record_count += 1
        if self._memory_bytes > self._capacity_bytes:
            self._spill()
        return location

    def extend(self, records: list[bytes], fields: list | None = None) -> None:
        """Push ``records`` (oldest first) without paging out.

        Leaves the state one :meth:`push` per record would leave, provided
        the records fit in :attr:`room`; records that would not fit raise
        :class:`~repro.errors.StackError` and push nothing.  ``fields``,
        when given, is aligned with ``records``: the fields of each record,
        or None for a record pushed without any.
        """
        size = sum(map(len, records))
        if size > self._capacity_bytes - self._memory_bytes:
            raise StackError(
                f"extend of {size} bytes exceeds the stack's room of "
                f"{self._capacity_bytes - self._memory_bytes}"
            )
        base = self._record_count
        count = len(records)
        if fields is not None:
            if len(fields) != count:
                raise StackError(
                    f"{len(fields)} fields for {count} records"
                )
            if None not in fields:
                self._field_ordinals.extend(range(base, base + count))
                self._field_values.extend(fields)
            else:
                for ordinal, value in enumerate(fields, base):
                    if value is not None:
                        self._field_ordinals.append(ordinal)
                        self._field_values.append(value)
        self._memory.extend(records)
        self._memory_bytes += size
        self._record_count += count

    def pop(self) -> bytes:
        """Pop and return the newest record, paging in if necessary."""
        if self._record_count == 0:
            raise StackError("pop from empty stack")
        if not self._memory:
            self._page_in_last_segment()
        record = self._memory.pop()
        self._memory_bytes -= len(record)
        self._record_count -= 1
        ordinals = self._field_ordinals
        if ordinals and ordinals[-1] == self._record_count:
            ordinals.pop()
            self._field_values.pop()
        return record

    def pop_through(
        self, location: int, fields: list | None = None
    ) -> list[bytes]:
        """Pop every record at or above ``location``; oldest first.

        ``location`` must be the exact start location of some pushed record
        (or the current top, yielding an empty list).  This is how NEXSORT
        pops a complete subtree off the data stack (Figure 4, Line 10).

        The buffered records above ``location`` come off as one slice -
        the whole buffer, unwalked, when ``location`` lies at or below
        its oldest record; when the buffer empties first, the last
        spilled segment is paged in and the slicing repeats.  Page-ins
        happen in the same order and number as a loop of :meth:`pop`
        calls, and a ``location`` inside a record raises
        :class:`~repro.errors.StackError` with the stack left where that
        loop would stop.

        ``fields``, when given, is extended with one entry per returned
        record: the fields it was pushed with if it was never paged out,
        else None.
        """
        top = self._spilled_bytes + self._memory_bytes
        if location > top:
            raise StackError(
                f"pop_through({location}) beyond stack top {top}"
            )
        slices: list[list[bytes]] = []
        memory = self._memory
        while top > location:
            if not memory:
                self._page_in_last_segment()
            if location <= self._spilled_bytes:
                # Everything buffered lies above ``location``.
                cut = 0
                top = self._spilled_bytes
            else:
                # Walk down the buffer to the first record that starts at
                # or below ``location``; everything above it is popped.
                cut = len(memory)
                while cut and top > location:
                    cut -= 1
                    top -= len(memory[cut])
            slices.append(memory[cut:])
            del memory[cut:]
            self._memory_bytes = top - self._spilled_bytes
            self._record_count -= len(slices[-1])
        if len(slices) == 1:
            records = slices[0]
        else:
            records = []
            for part in reversed(slices):
                records += part
        self._pop_fields(len(records), fields)
        if top != location:
            raise StackError(
                f"pop_through({location}) did not land on a record "
                f"boundary (stopped at {top})"
            )
        return records

    def _pop_fields(self, popped: int, out: list | None) -> None:
        """Drop the fields of the ``popped`` records just taken off the
        top, extending ``out`` (if given) with one entry per record."""
        base = self._record_count
        ordinals = self._field_ordinals
        if not ordinals or ordinals[-1] < base:
            if out is not None:
                out.extend([None] * popped)
            return
        start = bisect_left(ordinals, base)
        if out is not None:
            values = self._field_values[start:]
            if len(values) == popped:  # every popped record has fields
                out.extend(values)
            else:
                aligned = [None] * popped
                for ordinal, value in zip(ordinals[start:], values):
                    aligned[ordinal - base] = value
                out.extend(aligned)
        del ordinals[start:]
        del self._field_values[start:]

    # -- paging ------------------------------------------------------------

    def _spill(self) -> None:
        """Page out oldest buffered records until the buffer fits again."""
        while self._memory_bytes > self._capacity_bytes and len(
            self._memory
        ) > 1:
            # Never spill the newest record: the top of the stack stays hot.
            self._spill_one_block()
        if self._memory_bytes > self._capacity_bytes:
            # A single record larger than the whole buffer: spill it anyway.
            self._spill_one_block(allow_newest=True)
        ordinals = self._field_ordinals
        if ordinals:
            # Paged-out records lose their fields.
            spilled = self._record_count - len(self._memory)
            if ordinals[0] < spilled:
                drop = bisect_left(ordinals, spilled)
                del ordinals[:drop]
                del self._field_values[:drop]

    def _spill_one_block(self, allow_newest: bool = False) -> None:
        memory = self._memory
        limit = len(memory) if allow_newest else len(memory) - 1
        if limit <= 0:
            return
        size = self._device.block_size
        first = len(memory[0])
        if _COUNT.size + _LEN.size + first > size:
            self._spill_big_record(memory[0])
            return
        # Greedily pack the oldest records into one block: the longest
        # prefix whose count, length table and payloads fit (the block
        # layout: count, then every length, then the payloads).  A record
        # too big for any block stops the prefix as well.
        lengths = [first]
        used = _COUNT.size + _LEN.size + first
        for record in islice(memory, 1, limit):
            length = len(record)
            used += _LEN.size + length
            if used > size:
                break
            lengths.append(length)
        count = len(lengths)
        payload = sum(lengths)
        parts = memory[:count]
        parts.insert(0, _table(count).pack(count, *lengths))
        block_id = self._device.allocate(1, pool=self._category)
        self._device.write_block(block_id, b"".join(parts), self._category)
        self._page_outs += 1
        self._segments.append(_PackedSegment(block_id, count, payload))
        del memory[:count]
        self._memory_bytes -= payload
        self._spilled_bytes += payload

    def _spill_big_record(self, record: bytes) -> None:
        size = self._device.block_size
        nblocks = -(-len(record) // size)
        start = self._device.allocate(nblocks, pool=self._category)
        block_ids = list(range(start, start + nblocks))
        # One vectored write for the whole extent: same accounting as a
        # block-at-a-time loop, one Python/OS call.
        self._device.write_blocks(
            block_ids,
            [
                record[index * size : (index + 1) * size]
                for index in range(nblocks)
            ],
            self._category,
        )
        self._page_outs += nblocks
        self._segments.append(_BigSegment(block_ids, len(record)))
        del self._memory[0]
        self._memory_bytes -= len(record)
        self._spilled_bytes += len(record)

    def _page_in_last_segment(self) -> None:
        if not self._segments:
            raise StackError("no spilled segment to page in")
        segment = self._segments.pop()
        if isinstance(segment, _PackedSegment):
            data = self._device.read_block(segment.block_id, self._category)
            self._page_ins += 1
            self._device.free_blocks([segment.block_id])
            records = self._unpack_block(
                data, segment.record_count, segment.payload_bytes
            )
        else:
            chunks = self._device.read_blocks(
                segment.block_ids, self._category
            )
            self._page_ins += len(segment.block_ids)
            self._device.free_blocks(segment.block_ids)
            record = b"".join(chunks)[: segment.payload_bytes]
            if len(record) != segment.payload_bytes:
                raise StackError(
                    f"corrupt stack extent: expected "
                    f"{segment.payload_bytes} bytes, found {len(record)}"
                )
            records = [record]
        # Paged-in records are older than everything currently buffered.
        self._memory[:0] = records
        self._memory_bytes += segment.payload_bytes
        self._spilled_bytes -= segment.payload_bytes

    @staticmethod
    def _unpack_block(
        data: bytes, expected: int, payload_bytes: int
    ) -> list[bytes]:
        """The records of one packed block; any framing that disagrees
        with the segment (count, lengths, payload) raises
        :class:`~repro.errors.StackError`."""
        size = len(data)
        if size < _COUNT.size:
            raise StackError("corrupt stack block: no record count")
        (count,) = _COUNT.unpack_from(data, 0)
        if count != expected:
            raise StackError(
                f"corrupt stack block: expected {expected} records, "
                f"found {count}"
            )
        table = _table(count)
        if table.size > size:
            raise StackError("corrupt stack block: truncated length table")
        lengths = table.unpack_from(data, 0)[1:]
        found = sum(lengths)
        if table.size + found > size:
            raise StackError(
                f"corrupt stack block: {found} payload bytes overrun the "
                f"block"
            )
        if found != payload_bytes:
            raise StackError(
                f"corrupt stack block: expected {payload_bytes} payload "
                f"bytes, found {found}"
            )
        offsets = list(accumulate(lengths, initial=table.size))
        return list(map(data.__getitem__, map(slice, offsets, offsets[1:])))

    def __len__(self) -> int:
        return self._record_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExternalStack({self._category!r}, records={self._record_count},"
            f" bytes={self.total_bytes}, spilled={self._spilled_bytes})"
        )
