"""Unit and property tests for the external-memory stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.io import BlockDevice, ExternalStack


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
