"""Unit and property tests for the external-memory stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.io import BlockDevice, ExternalStack
from repro.io.stacks import _COUNT, _LEN, _PackedSegment


def make_stack(buffer_blocks: int = 1, block_size: int = 256):
    device = BlockDevice(block_size=block_size)
    return device, ExternalStack(device, buffer_blocks, "test")


class TestBasicOperations:
    def test_push_returns_locations(self):
        _, stack = make_stack()
        assert stack.push(b"aaa") == 0
        assert stack.push(b"bb") == 3
        assert stack.push(b"c") == 5
        assert stack.total_bytes == 6

    def test_lifo_order(self):
        _, stack = make_stack()
        stack.push(b"first")
        stack.push(b"second")
        assert stack.pop() == b"second"
        assert stack.pop() == b"first"

    def test_pop_empty_raises(self):
        _, stack = make_stack()
        with pytest.raises(StackError):
            stack.pop()

    def test_len_and_is_empty(self):
        _, stack = make_stack()
        assert stack.is_empty
        stack.push(b"x")
        assert len(stack) == 1
        stack.pop()
        assert stack.is_empty

    def test_pop_through_returns_in_push_order(self):
        _, stack = make_stack()
        locations = [stack.push(bytes([65 + i]) * 4) for i in range(6)]
        popped = stack.pop_through(locations[2])
        assert popped == [bytes([65 + i]) * 4 for i in range(2, 6)]
        assert stack.total_bytes == locations[2]
        assert len(stack) == 2

    def test_pop_through_top_is_empty_list(self):
        _, stack = make_stack()
        stack.push(b"abc")
        assert stack.pop_through(stack.total_bytes) == []

    def test_pop_through_beyond_top_raises(self):
        _, stack = make_stack()
        stack.push(b"abc")
        with pytest.raises(StackError):
            stack.pop_through(99)

    def test_pop_through_misaligned_raises(self):
        _, stack = make_stack()
        stack.push(b"abcd")
        stack.push(b"efgh")
        with pytest.raises(StackError):
            stack.pop_through(2)  # middle of the first record


class TestPaging:
    def test_spill_and_page_in_counted(self):
        device, stack = make_stack(buffer_blocks=1, block_size=256)
        for index in range(40):
            stack.push(bytes([index]) * 32)  # 1280 bytes >> 256 capacity
        assert stack.page_outs > 0
        assert stack.spilled_bytes > 0
        before_ins = stack.page_ins
        while not stack.is_empty:
            stack.pop()
        assert stack.page_ins > before_ins
        counters = device.stats.by_category["test"]
        assert counters.writes == stack.page_outs
        assert counters.reads == stack.page_ins

    def test_no_prefetch_policy(self):
        """Spilled blocks are only read when a pop actually reaches them."""
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        for index in range(40):
            stack.push(bytes([index]) * 32)
        assert stack.page_ins == 0  # pushes never page in
        stack.pop()  # top is in memory: still no page-in
        assert stack.page_ins == 0

    def test_content_survives_paging(self):
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        records = [bytes([i % 251]) * (7 + i % 13) for i in range(200)]
        for record in records:
            stack.push(record)
        for expected in reversed(records):
            assert stack.pop() == expected

    def test_record_larger_than_block_spills_as_big_segment(self):
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        big = bytes(range(256)) * 4  # 1024 bytes > block
        stack.push(big)
        stack.push(b"small" * 60)  # force the big record out
        stack.push(b"tiny")
        assert stack.pop() == b"tiny"
        assert stack.pop() == b"small" * 60
        assert stack.pop() == big

    def test_record_larger_than_whole_buffer(self):
        _, stack = make_stack(buffer_blocks=2, block_size=256)
        giant = b"G" * 2000
        stack.push(giant)
        assert stack.pop() == giant

    def test_total_bytes_tracks_spilled_and_memory(self):
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        total = 0
        for index in range(50):
            record = bytes([index]) * 20
            total += len(record)
            stack.push(record)
            assert stack.total_bytes == total
            assert (
                stack.in_memory_bytes + stack.spilled_bytes
                == stack.total_bytes
            )

    def test_pop_through_pages_spilled_segments(self):
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        locations = [stack.push(bytes([i % 251]) * 25) for i in range(64)]
        popped = stack.pop_through(locations[5])
        assert len(popped) == 59
        assert stack.page_ins > 0
        assert len(stack) == 5

    def test_min_buffer_blocks_enforced(self):
        device = BlockDevice(block_size=256)
        with pytest.raises(StackError):
            ExternalStack(device, 0, "bad")


class TestHypothesisModel:
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                st.binary(min_size=1, max_size=120),  # push payload
                st.just(None),  # pop
            ),
            max_size=300,
        ),
        buffer_blocks=st.integers(min_value=1, max_value=3),
    )
    def test_behaves_like_a_list(self, operations, buffer_blocks):
        """Arbitrary push/pop interleavings match a plain Python list."""
        _, stack = make_stack(buffer_blocks=buffer_blocks, block_size=256)
        model: list[bytes] = []
        for operation in operations:
            if operation is None:
                if model:
                    assert stack.pop() == model.pop()
                else:
                    with pytest.raises(StackError):
                        stack.pop()
            else:
                stack.push(operation)
                model.append(operation)
            assert stack.total_bytes == sum(len(r) for r in model)
            assert len(stack) == len(model)
        while model:
            assert stack.pop() == model.pop()

    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(
            st.binary(min_size=1, max_size=80), min_size=1, max_size=120
        ),
        cut=st.integers(min_value=0, max_value=119),
    )
    def test_pop_through_matches_slicing(self, records, cut):
        cut = min(cut, len(records))
        _, stack = make_stack(buffer_blocks=1, block_size=256)
        locations = [stack.push(record) for record in records]
        target = (
            locations[cut] if cut < len(records) else stack.total_bytes
        )
        popped = stack.pop_through(target)
        assert popped == records[cut:]
        assert len(stack) == cut


def _pop_through_by_pops(stack, location):
    """``pop_through`` as a loop of single pops (the reference)."""
    popped = []
    while stack.total_bytes > location:
        popped.append(stack.pop())
    if stack.total_bytes != location:
        raise StackError("not on a record boundary")
    popped.reverse()
    return popped


def _observed(device, stack):
    return (
        stack.page_ins,
        stack.page_outs,
        stack.total_bytes,
        stack.in_memory_bytes,
        stack.record_count,
        device.stats.snapshot().counter_totals(),
    )


class TestSlicedPopThrough:
    """The sliced ``pop_through`` equals a loop of ``pop()`` calls."""

    @settings(max_examples=120, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                # push: records up to ~2.5 blocks of 64 bytes
                st.binary(min_size=1, max_size=160),
                st.just(None),  # pop
                # pop_through: which record boundary, and whether to aim
                # one byte inside that record instead
                st.tuples(st.floats(0, 1), st.booleans()),
            ),
            max_size=200,
        ),
        buffer_blocks=st.integers(min_value=1, max_value=3),
    )
    def test_matches_a_loop_of_pops(self, operations, buffer_blocks):
        sliced_device, sliced = make_stack(buffer_blocks, block_size=64)
        looped_device, looped = make_stack(buffer_blocks, block_size=64)
        locations: list[int] = []
        for operation in operations:
            if isinstance(operation, bytes):
                locations.append(sliced.push(operation))
                assert looped.push(operation) == locations[-1]
            elif operation is None:
                if locations:
                    assert sliced.pop() == looped.pop()
                    locations.pop()
            else:
                fraction, inside = operation
                index = int(fraction * len(locations))
                if index == len(locations):
                    target = sliced.total_bytes
                    inside = False
                else:
                    target = locations[index]
                end = (
                    locations[index + 1]
                    if index + 1 < len(locations)
                    else sliced.total_bytes
                )
                if inside and end - target > 1:
                    with pytest.raises(StackError):
                        sliced.pop_through(target + 1)
                    with pytest.raises(StackError):
                        _pop_through_by_pops(looped, target + 1)
                    # Both popped the straddled record and stopped.
                    del locations[index:]
                else:
                    assert sliced.pop_through(
                        target
                    ) == _pop_through_by_pops(looped, target)
                    del locations[index:]
            assert _observed(sliced_device, sliced) == _observed(
                looped_device, looped
            )
        assert sliced.pop_through(0) == _pop_through_by_pops(looped, 0)
        assert _observed(sliced_device, sliced) == _observed(
            looped_device, looped
        )

    def test_misaligned_location_raises(self):
        device, stack = make_stack(buffer_blocks=1, block_size=64)
        for size in (10, 90, 20, 30, 40):
            stack.push(b"r" * size)
        with pytest.raises(StackError):
            stack.pop_through(5)
        # The pops stopped below the straddled record, as single pops do.
        assert stack.total_bytes == 0
        assert stack.record_count == 0


def _push_all(stack, records, fields):
    """Push ``records``, each with its entry of ``fields``; locations."""
    return [
        stack.push(record, fields=value)
        for record, value in zip(records, fields)
    ]


def _never_paged_out(stack, locations, resident):
    """Clear ``resident[i]`` for every record now below the spill line."""
    spilled = stack.spilled_bytes
    for index, location in enumerate(locations):
        if location < spilled:
            resident[index] = False


class TestFields:
    """Fields ride with buffered records only."""

    def test_resident_records_return_their_fields(self):
        _, stack = make_stack(buffer_blocks=4)
        records = [bytes([65 + i]) * 5 for i in range(6)]
        fields = [("f", i) if i % 2 else None for i in range(6)]
        locations = _push_all(stack, records, fields)
        out = []
        assert stack.pop_through(locations[1], fields=out) == records[1:]
        assert out == fields[1:]
        out = []
        assert stack.pop_through(0, fields=out) == records[:1]
        assert out == [None]
        assert stack.page_outs == 0

    def test_paged_in_records_return_none(self):
        _, stack = make_stack(buffer_blocks=1, block_size=64)
        records = [bytes([65 + i]) * 20 for i in range(8)]
        locations = _push_all(stack, records, [i for i in range(8)])
        assert stack.page_outs > 0
        spilled = stack.spilled_bytes
        out = []
        assert stack.pop_through(0, fields=out) == records
        assert stack.page_ins > 0
        assert out == [
            None if location < spilled else index
            for index, location in enumerate(locations)
        ]
        assert out[0] is None and out[-1] == 7

    def test_page_in_then_push_starts_fresh(self):
        _, stack = make_stack(buffer_blocks=1, block_size=64)
        locations = _push_all(stack, [b"x" * 20] * 6, range(6))
        stack.pop_through(locations[1])  # pages the spilled records in
        stack.push(b"y" * 20, fields="new")
        out = []
        stack.pop_through(locations[0], fields=out)
        assert out == [None, "new"]

    def test_single_pops_drop_fields(self):
        _, stack = make_stack(buffer_blocks=4)
        stack.push(b"a", fields=1)
        stack.push(b"b", fields=2)
        assert stack.pop() == b"b"
        stack.push(b"c")  # no fields: must not inherit the popped one's
        out = []
        assert stack.pop_through(0, fields=out) == [b"a", b"c"]
        assert out == [1, None]

    def test_misaligned_pop_through_keeps_fields_aligned(self):
        _, stack = make_stack(buffer_blocks=4)
        sizes = (10, 90, 20, 30, 40)
        locations = _push_all(
            stack, [b"r" * size for size in sizes], range(len(sizes))
        )
        with pytest.raises(StackError):
            stack.pop_through(locations[2] + 1)
        # A loop of pops stops below the straddled record.
        assert stack.total_bytes == locations[2]
        stack.push(b"n", fields="n")
        out = []
        assert stack.pop_through(locations[1], fields=out) == [
            b"r" * 90,
            b"n",
        ]
        assert out == [1, "n"]

    def test_pushes_without_fields_return_none(self):
        _, stack = make_stack(buffer_blocks=1, block_size=64)
        for index in range(10):
            stack.push(bytes([index]) * 15)
        out = []
        assert len(stack.pop_through(0, fields=out)) == 10
        assert out == [None] * 10

    @settings(max_examples=120, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                # push a record, with fields or without
                st.tuples(st.binary(min_size=1, max_size=160), st.booleans()),
                st.just(None),  # pop
                # pop_through: which boundary, and whether to aim inside
                st.tuples(st.floats(0, 1), st.booleans()),
            ),
            max_size=200,
        ),
        buffer_blocks=st.integers(min_value=1, max_value=3),
    )
    def test_fields_follow_a_loop_of_pops(self, operations, buffer_blocks):
        """With fields, the stack still matches a fieldless stack popped
        one record at a time, and hands back exactly the fields of the
        records that were never paged out."""
        device, stack = make_stack(buffer_blocks, block_size=64)
        plain_device, plain = make_stack(buffer_blocks, block_size=64)
        locations: list[int] = []
        pushed: list = []
        resident: list[bool] = []
        for step, operation in enumerate(operations):
            if operation is None:
                if locations:
                    assert stack.pop() == plain.pop()
                    del locations[-1], pushed[-1], resident[-1]
            elif isinstance(operation[0], bytes):
                record, with_fields = operation
                value = ("fields", step) if with_fields else None
                locations.append(stack.push(record, fields=value))
                assert plain.push(record) == locations[-1]
                pushed.append(value)
                resident.append(True)
            else:
                fraction, inside = operation
                index = int(fraction * len(locations))
                if index == len(locations):
                    target, inside = stack.total_bytes, False
                else:
                    target = locations[index]
                end = (
                    locations[index + 1]
                    if index + 1 < len(locations)
                    else stack.total_bytes
                )
                out: list = []
                if inside and end - target > 1:
                    with pytest.raises(StackError):
                        stack.pop_through(target + 1, fields=out)
                    with pytest.raises(StackError):
                        _pop_through_by_pops(plain, target + 1)
                    # Records and fields both stopped below the straddled
                    # record.
                    assert out == [
                        value if alive else None
                        for value, alive in zip(
                            pushed[index:], resident[index:]
                        )
                    ]
                else:
                    assert stack.pop_through(
                        target, fields=out
                    ) == _pop_through_by_pops(plain, target)
                    assert out == [
                        value if alive else None
                        for value, alive in zip(
                            pushed[index:], resident[index:]
                        )
                    ]
                del locations[index:], pushed[index:], resident[index:]
            _never_paged_out(stack, locations, resident)
            assert _observed(device, stack) == _observed(plain_device, plain)
        out = []
        assert stack.pop_through(0, fields=out) == _pop_through_by_pops(
            plain, 0
        )
        assert out == [
            value if alive else None for value, alive in zip(pushed, resident)
        ]
        assert _observed(device, stack) == _observed(plain_device, plain)


def _spilled_blocks(records, block_size=64):
    """(block bytes, record count, payload bytes, records) of every packed
    block a one-block stack spills while ``records`` are pushed."""
    device, stack = make_stack(buffer_blocks=1, block_size=block_size)
    for record in records:
        stack.push(record)
    blocks = []
    start = 0
    for segment in stack._segments:
        count = segment.record_count
        blocks.append(
            (
                device._blocks[segment.block_id],
                count,
                segment.payload_bytes,
                records[start : start + count],
            )
        )
        start += count
    return blocks


_FUZZ_BLOCKS = _spilled_blocks(
    [bytes([33 + i % 90]) * (1 + (7 * i) % 17) for i in range(40)]
)


def _block(records) -> bytes:
    """A packed block: the count, the table of lengths, the payloads."""
    return b"".join(
        [_COUNT.pack(len(records))]
        + [_LEN.pack(len(record)) for record in records]
        + list(records)
    )


class TestBlockDecoder:
    """A spilled block that disagrees with its segment fails typed."""

    def test_length_past_the_block_is_typed(self):
        data = _COUNT.pack(2) + _LEN.pack(1000) + _LEN.pack(3) + b"abc"
        with pytest.raises(StackError):
            ExternalStack._unpack_block(data, 2, 3)

    def test_short_record_is_typed(self):
        data = _COUNT.pack(1) + _LEN.pack(10) + b"abc"
        with pytest.raises(StackError):
            ExternalStack._unpack_block(data, 1, 10)

    def test_truncated_length_table_is_typed(self):
        data = _COUNT.pack(3) + _LEN.pack(1) + _LEN.pack(1) + b"ab"
        with pytest.raises(StackError):
            ExternalStack._unpack_block(data, 3, 2)

    def test_payload_mismatch_is_typed(self):
        data = _COUNT.pack(1) + _LEN.pack(3) + b"abc"
        assert ExternalStack._unpack_block(data, 1, 3) == [b"abc"]
        with pytest.raises(StackError):
            ExternalStack._unpack_block(data, 1, 4)

    def test_table_precedes_payloads(self):
        data = _block([b"ab", b"", b"cde"])
        assert data[:14] == (
            _COUNT.pack(3) + _LEN.pack(2) + _LEN.pack(0) + _LEN.pack(3)
        )
        assert ExternalStack._unpack_block(data, 3, 5) == [
            b"ab", b"", b"cde",
        ]

    def test_empty_block_is_typed(self):
        with pytest.raises(StackError):
            ExternalStack._unpack_block(b"\x01", 1, 1)

    def test_corrupt_block_surfaces_on_pop(self):
        device, stack = make_stack(buffer_blocks=1, block_size=64)
        for index in range(8):
            stack.push(bytes([65 + index]) * 20)
        segment = stack._segments[-1]
        data = device._blocks[segment.block_id]
        device._blocks[segment.block_id] = data[:-1]
        with pytest.raises(StackError):
            stack.pop_through(0)

    def test_short_big_record_extent_is_typed(self):
        device, stack = make_stack(buffer_blocks=1, block_size=64)
        stack.push(b"b" * 150)  # spilled as a three-block extent
        stack.push(b"top")
        last = stack._segments[-1].block_ids[-1]
        device._blocks[last] = b""
        assert stack.pop() == b"top"
        with pytest.raises(StackError):
            stack.pop()

    def test_fuzz_blocks_round_trip(self):
        assert len(_FUZZ_BLOCKS) > 3
        for data, count, payload, records in _FUZZ_BLOCKS:
            assert data == _block(records)
            assert ExternalStack._unpack_block(data, count, payload) == records

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        block=st.sampled_from(_FUZZ_BLOCKS),
        op=st.sampled_from(["replace", "delete", "insert", "cut"]),
    )
    def test_mutated_block_is_typed_or_exact(self, data, block, op):
        blob, count, payload, records = block
        out = bytearray(blob)
        index = data.draw(st.integers(0, len(out) - 1))
        if op == "replace":
            out[index] = data.draw(st.integers(0, 255))
        elif op == "delete":
            del out[index]
        elif op == "insert":
            out.insert(index, data.draw(st.integers(0, 255)))
        else:
            del out[index:]
        try:
            decoded = ExternalStack._unpack_block(bytes(out), count, payload)
        except StackError:
            return
        framing = _framing_offsets(blob)
        if all(f < len(out) and out[f] == blob[f] for f in framing):
            # Plain stack blocks carry no checksum (fail-stop device): an
            # edit that leaves every count and length byte in place can
            # change record bytes, never the framing.
            assert [len(r) for r in decoded] == [len(r) for r in records]
        else:
            assert decoded == records


def _framing_offsets(blob: bytes) -> list[int]:
    """Offsets of the count and length bytes of a packed block: its head,
    the count and one length per record."""
    (count,) = _COUNT.unpack_from(blob, 0)
    return list(range(_COUNT.size + count * _LEN.size))


class _PerRecordStack(ExternalStack):
    """The reference packing: a per-record loop that adds the oldest
    record to the block while the count, its length and its payload still
    fit, with the pre-table layout (each length before its payload)."""

    def _spill_one_block(self, allow_newest: bool = False) -> None:
        limit = len(self._memory) if allow_newest else len(self._memory) - 1
        if limit <= 0:
            return
        size = self._device.block_size
        max_record = size - _COUNT.size - _LEN.size
        if len(self._memory[0]) > max_record:
            self._spill_big_record(self._memory[0])
            return
        parts = []
        used = _COUNT.size
        count = 0
        while count < limit:
            record = self._memory[count]
            need = _LEN.size + len(record)
            if used + need > size or len(record) > max_record:
                break
            parts += [_LEN.pack(len(record)), record]
            used += need
            count += 1
        payload = sum(map(len, self._memory[:count]))
        block_id = self._device.allocate(1, pool=self._category)
        self._device.write_block(
            block_id, _COUNT.pack(count) + b"".join(parts), self._category
        )
        self._page_outs += 1
        self._segments.append(_PackedSegment(block_id, count, payload))
        del self._memory[:count]
        self._memory_bytes -= payload
        self._spilled_bytes += payload

    @staticmethod
    def _unpack_block(data, expected, payload_bytes):
        records = []
        pos = _COUNT.size
        for _ in range(expected):
            (length,) = _LEN.unpack_from(data, pos)
            records.append(data[pos + _LEN.size : pos + _LEN.size + length])
            pos += _LEN.size + length
        return records


def _segment_shapes(stack):
    return [
        (
            type(segment).__name__,
            segment.record_count,
            segment.payload_bytes,
            segment.blocks,
        )
        for segment in stack._segments
    ]


class TestBlockLayout:
    """Whole-block packing spills the records a per-record loop spills."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 150), min_size=1, max_size=80),
        block_size=st.sampled_from([64, 96, 128]),
        buffer_blocks=st.integers(1, 3),
        pops=st.lists(st.floats(0, 1), max_size=4),
    )
    def test_pack_matches_a_per_record_loop(
        self, sizes, block_size, buffer_blocks, pops
    ):
        """Records over the packed maximum (a big extent) and a newest
        record that alone overflows the buffer (the ``allow_newest``
        spill) included."""
        records = [bytes([65 + i % 26]) * size for i, size in enumerate(sizes)]
        device = BlockDevice(block_size=block_size)
        stack = ExternalStack(device, buffer_blocks, "test")
        ref_device = BlockDevice(block_size=block_size)
        reference = _PerRecordStack(ref_device, buffer_blocks, "test")
        locations = []
        for record in records:
            locations.append(stack.push(record))
            reference.push(record)
            assert _segment_shapes(stack) == _segment_shapes(reference)
            assert stack.page_outs == reference.page_outs
        for segment in stack._segments:
            if isinstance(segment, _PackedSegment):
                data = device._blocks[segment.block_id]
                packed = ExternalStack._unpack_block(
                    data, segment.record_count, segment.payload_bytes
                )
                assert data == _block(packed)
        for fraction in sorted(pops, reverse=True) + [0.0]:
            index = min(int(fraction * len(locations)), len(locations))
            target = locations[index] if index < len(locations) else (
                stack.total_bytes
            )
            assert stack.pop_through(target) == reference.pop_through(
                target
            ) == records[index:]
            del locations[index:], records[index:]
            assert (stack.page_ins, stack.page_outs) == (
                reference.page_ins, reference.page_outs,
            )
        assert _observed(device, stack) == _observed(ref_device, reference)


class TestExtend:
    """``extend`` within ``room`` leaves what one push per record leaves."""

    def test_room_counts_down_to_the_page_out(self):
        _, stack = make_stack(buffer_blocks=1, block_size=64)
        assert stack.room == 64
        stack.push(b"x" * 60)
        assert stack.room == 4
        stack.extend([b"y" * 3, b"z"])
        assert stack.room == 0 and stack.page_outs == 0
        stack.push(b"w")
        assert stack.page_outs == 1

    def test_extend_past_room_raises_and_pushes_nothing(self):
        device, stack = make_stack(buffer_blocks=1, block_size=64)
        stack.push(b"a" * 40)
        with pytest.raises(StackError):
            stack.extend([b"b" * 20, b"c" * 5], [1, 2])
        assert (stack.total_bytes, stack.record_count, stack.room) == (
            40, 1, 24,
        )
        stack.extend([b"b" * 20, b"c" * 4], [1, None])
        assert stack.room == 0 and stack.page_outs == 0
        out = []
        assert stack.pop_through(0, fields=out) == [
            b"a" * 40, b"b" * 20, b"c" * 4,
        ]
        assert out == [None, 1, None]
        assert device.stats.total_ios == 0

    def test_misaligned_fields_raise(self):
        _, stack = make_stack()
        with pytest.raises(StackError):
            stack.extend([b"a", b"b"], [1])
        assert stack.is_empty

    @settings(max_examples=150, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                # extend: the longest prefix that fits in room
                st.lists(
                    st.tuples(
                        st.binary(min_size=1, max_size=40), st.booleans()
                    ),
                    min_size=1,
                    max_size=8,
                ),
                # push a record, with fields or without
                st.tuples(st.binary(min_size=1, max_size=160), st.booleans()),
                st.just(None),  # pop
                st.floats(0, 1),  # pop_through a record boundary
            ),
            max_size=120,
        ),
        buffer_blocks=st.integers(min_value=1, max_value=3),
        with_fields=st.booleans(),
    )
    def test_matches_one_push_per_record(
        self, operations, buffer_blocks, with_fields
    ):
        device, stack = make_stack(buffer_blocks, block_size=64)
        ref_device, ref = make_stack(buffer_blocks, block_size=64)
        locations: list[int] = []
        for step, operation in enumerate(operations):
            if operation is None:
                if locations:
                    assert stack.pop() == ref.pop()
                    locations.pop()
            elif isinstance(operation, float):
                index = int(operation * len(locations))
                target = (
                    locations[index]
                    if index < len(locations)
                    else stack.total_bytes
                )
                got: list = []
                want: list = []
                assert stack.pop_through(target, fields=got) == (
                    ref.pop_through(target, fields=want)
                )
                assert got == want
                del locations[index:]
            else:
                batch = (
                    operation if isinstance(operation, list) else [operation]
                )
                values = [
                    (step, index) if with_fields and keep else None
                    for index, (_record, keep) in enumerate(batch)
                ]
                records = [record for record, _keep in batch]
                if isinstance(operation, list):
                    fit = 0
                    room = stack.room
                    while fit < len(records) and len(records[fit]) <= room:
                        room -= len(records[fit])
                        fit += 1
                    if fit < len(records):
                        with pytest.raises(StackError):
                            stack.extend(
                                records[: fit + 1],
                                values[: fit + 1] if with_fields else None,
                            )
                    records, values = records[:fit], values[:fit]
                    top = stack.total_bytes
                    stack.extend(records, values if with_fields else None)
                    assert stack.page_outs == ref.page_outs
                    for record in records:
                        locations.append(top)
                        top += len(record)
                else:
                    locations.append(stack.push(records[0], values[0]))
                for record, value in zip(records, values):
                    ref.push(record, value)
            assert _observed(device, stack) == _observed(ref_device, ref)
        got = []
        want = []
        assert stack.pop_through(0, fields=got) == ref.pop_through(
            0, fields=want
        )
        assert got == want
        assert _observed(device, stack) == _observed(ref_device, ref)
