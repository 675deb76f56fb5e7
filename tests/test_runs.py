"""Unit and property tests for sorted runs (writer/reader/store)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RunError
from repro.io import BlockDevice, CompressionConfig, RunStore


def make_store(block_size: int = 256):
    device = BlockDevice(block_size=block_size)
    return device, RunStore(device)


class TestWriterReader:
    def test_round_trip(self):
        _, store = make_store()
        writer = store.create_writer()
        records = [b"alpha", b"beta", b"gamma" * 30]
        writer.write_records(records)
        handle = writer.finish()
        assert handle.record_count == 3
        assert list(store.open_reader(handle)) == records

    def test_records_span_blocks(self):
        _, store = make_store(block_size=128)
        writer = store.create_writer()
        big = bytes(range(256)) * 3  # 768 bytes across many 128B blocks
        writer.write_record(big)
        writer.write_record(b"after")
        handle = writer.finish()
        reader = store.open_reader(handle)
        assert reader.read_record() == big
        assert reader.read_record() == b"after"
        assert reader.read_record() is None

    def test_empty_records_allowed(self):
        _, store = make_store()
        writer = store.create_writer()
        writer.write_record(b"")
        writer.write_record(b"x")
        handle = writer.finish()
        assert list(store.open_reader(handle)) == [b"", b"x"]

    def test_finish_twice_fails(self):
        _, store = make_store()
        writer = store.create_writer()
        writer.write_record(b"x")
        writer.finish()
        with pytest.raises(RunError):
            writer.finish()

    def test_write_after_finish_fails(self):
        _, store = make_store()
        writer = store.create_writer()
        writer.finish()
        with pytest.raises(RunError):
            writer.write_record(b"x")

    def test_handle_block_count_matches_stream(self):
        device, store = make_store(block_size=128)
        writer = store.create_writer()
        for index in range(50):
            writer.write_record(bytes([index]) * 20)
        handle = writer.finish()
        expected_blocks = -(-handle.stream_bytes // device.block_size)
        assert handle.block_count == expected_blocks

    def test_empty_run(self):
        _, store = make_store()
        handle = store.create_writer().finish()
        assert handle.record_count == 0
        assert list(store.open_reader(handle)) == []


class TestResume:
    def test_tell_and_resume_mid_run(self):
        _, store = make_store(block_size=128)
        writer = store.create_writer()
        records = [bytes([i]) * 40 for i in range(10)]
        writer.write_records(records)
        handle = writer.finish()

        reader = store.open_reader(handle)
        for _ in range(4):
            reader.read_record()
        offset = reader.tell()
        resumed = store.open_reader(handle, offset=offset)
        assert list(resumed) == records[4:]

    def test_resume_rereads_the_block(self):
        """Lemma 4.12's access pattern: resuming costs one block read."""
        device, store = make_store(block_size=128)
        writer = store.create_writer()
        writer.write_records([bytes([i]) * 40 for i in range(10)])
        handle = writer.finish()

        reader = store.open_reader(handle, category="probe")
        reader.read_record()
        offset = reader.tell()
        before = device.stats.by_category["probe"].reads
        resumed = store.open_reader(handle, offset=offset, category="probe")
        resumed.read_record()
        after = device.stats.by_category["probe"].reads
        assert after == before + 1  # the resume block was read again

    def test_bad_offset_rejected(self):
        _, store = make_store()
        writer = store.create_writer()
        writer.write_record(b"x")
        handle = writer.finish()
        with pytest.raises(RunError):
            store.open_reader(handle, offset=handle.stream_bytes + 1)


class TestStore:
    def test_get_unknown_run_fails(self):
        _, store = make_store()
        with pytest.raises(RunError):
            store.get(99)

    def test_free_releases_blocks(self):
        device, store = make_store()
        writer = store.create_writer()
        writer.write_record(b"x" * 200)
        handle = writer.finish()
        occupied = device.occupied_blocks
        store.free(handle)
        assert device.occupied_blocks < occupied
        with pytest.raises(RunError):
            store.get(handle.run_id)

    def test_total_run_blocks(self):
        _, store = make_store(block_size=128)
        handles = []
        for size in (1, 5, 9):
            writer = store.create_writer()
            for index in range(size):
                writer.write_record(bytes([index]) * 60)
            handles.append(writer.finish())
        assert store.total_run_blocks() == sum(
            handle.block_count for handle in handles
        )

    def test_reads_counted_under_category(self):
        device, store = make_store()
        writer = store.create_writer("my_write")
        writer.write_record(b"x" * 300)
        handle = writer.finish()
        list(store.open_reader(handle, category="my_read"))
        assert device.stats.by_category["my_write"].writes == 2
        assert device.stats.by_category["my_read"].reads == 2


class TestReadaheadClamp:
    """Adaptive readahead never charges reads past end-of-run."""

    def _make_run(self, nrecords=8):
        device, store = make_store(block_size=128)
        writer = store.create_writer()
        # 60-byte payloads frame to 64 bytes: 2 records per 128B block.
        writer.write_records(bytes([i]) * 60 for i in range(nrecords))
        handle = writer.finish()
        return device, store, handle

    def _attach_pool(self, device, store, capacity=8):
        from repro.io import BufferPool

        store.attach_pool(BufferPool(device, capacity))

    def test_readahead_clamped_at_construction(self):
        device, store, handle = self._make_run()
        self._attach_pool(device, store)
        reader = store.open_reader(handle, readahead=100)
        assert reader._readahead == handle.block_count

    def test_oversized_readahead_charges_exactly_block_count(self):
        device, store, handle = self._make_run()
        self._attach_pool(device, store)
        before = device.stats.snapshot()
        records = list(store.open_reader(handle, readahead=100))
        assert len(records) == 8
        delta = device.stats.since(before)
        # One read per run block, not one per readahead slot: the extent
        # is clamped at the run's end, so nothing past it is touched.
        assert delta.total_reads == handle.block_count

    def test_tail_resume_reads_only_remaining_blocks(self):
        device, store, handle = self._make_run()
        # Probe unpooled so the pool starts cold for the resumed reader.
        probe = store.open_reader(handle, readahead=0)
        for _ in range(5):
            probe.read_record()
        offset = probe.tell()  # inside block 2 of 4
        self._attach_pool(device, store)
        before = device.stats.snapshot()
        rest = list(store.open_reader(handle, offset=offset, readahead=100))
        assert len(rest) == 3
        delta = device.stats.since(before)
        assert delta.total_reads == 2  # blocks 2 and 3, nothing beyond


class _CountingDevice(BlockDevice):
    """Counts device write calls (a vectored write is one call)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.write_calls = 0

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        self.write_calls += 1
        super().write_blocks(block_ids, datas, category, stream)


class TestWriterRoom:
    """``room`` is exactly the framed bytes before the next device write:
    a block for a plain writer, a segment for a compressed one."""

    @pytest.fixture(params=[("plain", 256), ("compressed", 512)])
    def setup(self, request):
        kind, initial_room = request.param
        device = _CountingDevice(block_size=256)
        store = RunStore(device)
        if kind == "compressed":
            store.compression = CompressionConfig(segment_blocks=2)
        return store.create_writer("run_write"), device, initial_room

    def test_room_starts_at_a_block_or_segment(self, setup):
        writer, _device, initial_room = setup
        assert writer.room == initial_room
        writer.write_record(b"x" * 6)  # 10 framed bytes
        assert writer.room == initial_room - 10

    @pytest.mark.parametrize("head", [0, 1, 37])
    def test_fewer_bytes_than_room_write_nothing(self, setup, head):
        writer, device, _ = setup
        if head:
            writer.write_record(b"h" * head)
        room = writer.room
        # Two records framing to room - 1 bytes (a 4-byte header each).
        writer.write_records([b"a" * 10, b"b" * (room - 1 - 8 - 10)])
        assert device.write_calls == 0
        assert writer.room == 1

    @pytest.mark.parametrize("head", [0, 1, 37])
    def test_exactly_room_bytes_write_once(self, setup, head):
        writer, device, initial_room = setup
        if head:
            writer.write_record(b"h" * head)
        room = writer.room
        writer.write_records([b"a" * 10, b"b" * (room - 8 - 10)])
        assert device.write_calls == 1
        assert writer.room == initial_room


class TestHypothesisRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        records=st.lists(st.binary(max_size=300), max_size=80),
        block_size=st.sampled_from([64, 128, 256]),
        resume_at=st.integers(min_value=0, max_value=80),
    )
    def test_round_trip_and_resume(self, records, block_size, resume_at):
        _, store = make_store(block_size=block_size)
        writer = store.create_writer()
        writer.write_records(records)
        handle = writer.finish()
        assert list(store.open_reader(handle)) == records

        resume_at = min(resume_at, len(records))
        reader = store.open_reader(handle)
        for _ in range(resume_at):
            reader.read_record()
        offset = reader.tell()
        assert list(store.open_reader(handle, offset=offset)) == records[
            resume_at:
        ]
