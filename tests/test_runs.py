"""Unit and property tests for sorted runs (writer/reader/store)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, RunError
from repro.io import BlockDevice, CompressionConfig, RunStore
from repro.io.runs import FRAME_HEADER, RunReader, unpack_frame_header


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

    @pytest.mark.parametrize("extra", [1, 70, 200])
    @pytest.mark.parametrize("count, size", [(5, 9), (8, 12)])
    def test_stream_past_its_blocks_is_typed(self, count, size, extra):
        # A handle claiming more stream bytes than its blocks hold: the
        # reader stops at the bytes it loaded and names the run, whether
        # its last block is partial (5 x 13 framed bytes) or full (8 x 16).
        device, store = make_store(block_size=64)
        writer = store.create_writer()
        writer.write_records([bytes([65 + i]) * size for i in range(count)])
        handle = writer.finish()
        bad = dataclasses.replace(
            handle, stream_bytes=handle.stream_bytes + extra
        )
        for read in (list, lambda reader: list(reader.batches())):
            with pytest.raises(RunError, match=f"run {handle.run_id}"):
                read(RunReader(device, bad))

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

    def test_consume_stays_inside_the_loaded_span(self):
        """``consume_to`` moves only forward, and no further than the
        loaded buffer: before any load the span is empty."""
        _, store = make_store(block_size=128)
        writer = store.create_writer()
        writer.write_records([bytes([i]) * 40 for i in range(10)])
        reader = store.open_reader(writer.finish())
        buffer, offset, limit = reader.loaded()
        assert offset == limit == 0
        reader.read_record()
        buffer, offset, limit = reader.loaded()
        assert (offset, limit) == (44, 128)
        for bad in (offset - 1, limit + 1):
            with pytest.raises(RunError):
                reader.consume_to(bad)
        reader.consume_to(offset + 44)
        assert reader.tell() == 88
        assert reader.read_record() == bytes([2]) * 40


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


#: The type byte the span walks stop at (a run pointer's).
_STOP = 4


def _span_walk(reader, writer):
    """Copy a run with ``read_available_span`` + ``write_framed``,
    stopping at every ``_STOP`` record: (offsets past each stop record,
    error type or None, reader offset at the end or error)."""
    stops = []
    try:
        while True:
            span, count, payload = reader.read_available_span(_STOP)
            if count:
                writer.write_framed(span, count, payload)
                continue
            record = reader.read_record()
            if record is None:
                return stops, None, reader.tell()
            if not record:
                raise RunError("empty record")
            if record[0] == _STOP:
                stops.append(reader.tell())
            else:
                writer.write_record(record)
    except ReproError as exc:
        return stops, type(exc), reader.tell()


class _EmptyRecord(RunError):
    """An empty record met inside a drained chunk."""


def _records_walk(reader, writer):
    """The same copy from ``read_available_records`` + ``write_records``,
    record by record within each drained chunk."""
    stops = []
    offset = reader.tell()
    try:
        while True:
            chunk = reader.read_available_records()
            if not chunk:
                record = reader.read_record()
                if record is None:
                    return stops, None, reader.tell()
                chunk = [record]
            offset = reader.tell() - sum(4 + len(r) for r in chunk)
            pending = []
            for record in chunk:
                offset += 4 + len(record)
                if not record:
                    writer.write_records(pending)
                    raise _EmptyRecord("empty record")
                if record[0] == _STOP:
                    writer.write_records(pending)
                    pending = []
                    stops.append(offset)
                else:
                    pending.append(record)
            writer.write_records(pending)
    except _EmptyRecord:
        # Found in a drained chunk: the reader is already past it.
        return stops, RunError, offset
    except ReproError as exc:
        return stops, type(exc), reader.tell()


def _copy(records, block_size, compressed, corrupt, walk):
    """Write ``records`` as a run, apply ``corrupt``, copy it with
    ``walk``; everything the copy observed and produced."""
    device = BlockDevice(block_size=block_size)
    store = RunStore(device)
    if compressed:
        store.compression = CompressionConfig(segment_blocks=2)
    writer = store.create_writer("run_write")
    writer.write_records(records)
    run = writer.finish()
    if corrupt is not None and run.block_ids:
        which, at, value = corrupt
        block_id = run.block_ids[int(which * len(run.block_ids))]
        data = bytearray(device._blocks[block_id])
        data[int(at * len(data))] = value
        device._blocks[block_id] = bytes(data)
    before = device.stats.snapshot()
    out = store.create_writer("run_write")
    stops, error, position = walk(store.open_reader(run), out)
    copied = out.finish()
    return (
        stops,
        error,
        position,
        list(store.open_reader(copied)),
        (copied.stream_bytes, copied.payload_bytes, copied.record_count),
        device.stats.since(before).counter_totals(),
    )


class _AccessLoggingDevice(BlockDevice):
    """Logs every device access - kind, category, block ids (and the
    bytes of a write) - with the counters accumulated before it since the
    last :meth:`mark`."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.mark()

    def mark(self) -> None:
        """Start a fresh log, with fresh sequentiality judgments."""
        self.log: list = []
        self._base = self.stats.snapshot()
        self._last_by_category.clear()

    def _counters(self) -> dict:
        return self.stats.since(self._base).counter_totals()

    def read_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        self.log.append(("read", category, block_ids, self._counters()))
        return super().read_blocks(block_ids, category, stream)

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        block_ids, datas = list(block_ids), list(datas)
        self.log.append(
            ("write", category, block_ids, datas, self._counters())
        )
        super().write_blocks(block_ids, datas, category, stream)


#: Records for the parity draws: empty records, stop-type records, and
#: records longer than the smallest block.
_PARITY_RECORDS = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=40),
        st.binary(min_size=60, max_size=300),
        st.binary(max_size=12).map(lambda tail: b"\x04" + tail),
        st.just(b""),
    ),
    max_size=40,
)


def _framed(records):
    return b"".join(len(r).to_bytes(4, "little") + r for r in records)


def _write_run(records, block_size, compressed, writes=None):
    """A run of ``records`` written on a fresh logging device: one
    ``write_records`` call, or the ``writes`` mix of (method, record
    count) calls, the tail through ``write_records``."""
    device = _AccessLoggingDevice(block_size=block_size)
    store = RunStore(device)
    if compressed:
        store.compression = CompressionConfig(segment_blocks=2)
    writer = store.create_writer("run_write")
    at = 0
    for method, count in writes or ():
        chunk = records[at : at + count]
        at += len(chunk)
        if method == "record":
            for record in chunk:
                writer.write_record(record)
        elif method == "records":
            writer.write_records(chunk)
        else:
            writer.write_framed(
                _framed(chunk), len(chunk), sum(map(len, chunk))
            )
    writer.write_records(records[at:])
    return device, store, writer.finish()


def _offsets(records):
    """Framed-stream offset of every record, and of the end."""
    offsets = [0]
    for record in records:
        offsets.append(offsets[-1] + 4 + len(record))
    return offsets


def _unframe(span, count, payload):
    assert len(span) == 4 * count + payload
    records, at = [], 0
    for _ in range(count):
        length = int.from_bytes(span[at : at + 4], "little")
        records.append(span[at + 4 : at + 4 + length])
        at += 4 + length
    return records


def _walk_loaded(reader) -> list[bytes]:
    """The complete records of the loaded span, walked in place as the
    record writer walks them, then consumed."""
    buffer, at, limit = reader.loaded()
    out = []
    while at + FRAME_HEADER <= limit:
        (length,) = unpack_frame_header(buffer, at)
        end = at + FRAME_HEADER + length
        if end > limit:
            break
        out.append(buffer[at + FRAME_HEADER : end])
        at = end
    reader.consume_to(at)
    return out


def _drain(reader, ops):
    """Read ``reader`` to its end (or first error) cycling through
    ``ops``, a ``read_record`` after any drain that served nothing:
    (records read, ``tell()`` after each step and at the end, error
    type)."""
    out: list[bytes] = []
    tells: list[int] = []
    batches = reader.batches()
    step = 0
    try:
        while True:
            op = ops[step % len(ops)] if ops else "record"
            step += 1
            if op == "batch":
                got = next(batches, None)
                if got is None:
                    break
                assert got
            elif op == "available":
                got = reader.read_available_records()
            elif op == "span":
                got = _unframe(*reader.read_available_span(_STOP))
            elif op == "walk":
                got = _walk_loaded(reader)
            else:
                got = []
            if not got:
                record = reader.read_record()
                if record is None:
                    break
                got = [record]
            out.extend(got)
            tells.append(reader.tell())
    except RunError as exc:
        tells.append(reader.tell())
        return out, tells, type(exc)
    tells.append(reader.tell())
    return out, tells, None


class TestFramedSpans:
    """``read_available_span`` + ``write_framed`` copy a run exactly as
    ``read_available_records`` + ``write_records`` do: same output
    stream, stop offsets, device counters and error types.  Writers of
    either flush variant lay out the same blocks and segments whatever
    mix of write calls fed them, and readers of either load variant
    serve the same records, offsets, errors and device accesses whatever
    mix of read calls drains them."""

    @settings(max_examples=120, deadline=None)
    @given(
        records=_PARITY_RECORDS,
        block_size=st.sampled_from([64, 128, 256]),
        compressed=st.booleans(),
        writes=st.lists(
            st.tuples(
                st.sampled_from(["record", "records", "framed"]),
                st.integers(0, 6),
            ),
            max_size=12,
        ),
    )
    def test_write_mix_matches_one_write_records(
        self, records, block_size, compressed, writes
    ):
        device, _, handle = _write_run(records, block_size, compressed)
        mixed_device, _, mixed = _write_run(
            records, block_size, compressed, writes
        )
        assert mixed == dataclasses.replace(handle, run_id=mixed.run_id)
        assert mixed_device.log == device.log
        assert (handle.codec is not None) == compressed
        if not compressed:
            assert handle.block_count == -(-handle.stream_bytes // block_size)
            assert not handle.segments
            return
        # Each segment ends with the record that reaches two blocks.
        expected, start = [], 0
        for end in _offsets(records)[1:]:
            if end - start >= 2 * block_size or end == handle.stream_bytes:
                expected.append((start, end - start))
                start = end
        assert [
            (segment.logical_start, segment.logical_bytes)
            for segment in handle.segments
        ] == expected

    @settings(max_examples=120, deadline=None)
    @given(
        records=_PARITY_RECORDS,
        block_size=st.sampled_from([64, 128, 256]),
        compressed=st.booleans(),
        ops=st.lists(
            st.sampled_from(
                ["record", "available", "span", "batch", "walk"]
            ),
            max_size=8,
        ),
        cut=st.none() | st.floats(0, 0.999),
    )
    def test_read_mix_matches_a_read_record_loop(
        self, records, block_size, compressed, ops, cut
    ):
        device, store, handle = _write_run(records, block_size, compressed)
        offsets = _offsets(records)
        if cut is not None:
            # A truncated stream: it ends inside (or at) some record.
            handle = dataclasses.replace(
                handle, stream_bytes=int(cut * handle.stream_bytes)
            )
        whole = [
            record
            for record, end in zip(records, offsets[1:])
            if end <= handle.stream_bytes
        ]
        for index, offset in enumerate(offsets):
            if offset > handle.stream_bytes:
                break
            device.mark()
            reference = _drain(store.open_reader(handle, offset), [])
            reference_log = device.log
            device.mark()
            out, tells, error = _drain(
                store.open_reader(handle, offset), ops
            )
            assert out == reference[0] == whole[index:]
            assert tells[-1] == reference[1][-1]
            assert error is reference[2]
            assert error is (
                None if offsets[len(whole)] == handle.stream_bytes
                else RunError
            )
            assert set(tells[:-1]) <= set(offsets)
            assert device.log == reference_log

    @settings(max_examples=60, deadline=None)
    @given(
        records=_PARITY_RECORDS,
        block_size=st.sampled_from([64, 128, 256]),
        compressed=st.booleans(),
    )
    def test_batches_load_where_read_record_does(
        self, records, block_size, compressed
    ):
        device, store, handle = _write_run(records, block_size, compressed)
        for offset in _offsets(records):
            device.mark()
            looped = list(store.open_reader(handle, offset))
            loop_log = device.log
            device.mark()
            reader = store.open_reader(handle, offset)
            batches = []
            for batch in reader.batches():
                # Nothing loads between two batches.
                before = len(device.log)
                batches.append(batch)
                assert len(device.log) == before
            assert [r for batch in batches for r in batch] == looped
            assert all(batches)
            assert device.log == loop_log

    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(
            st.one_of(
                st.binary(min_size=1, max_size=120),
                st.binary(max_size=12).map(lambda tail: b"\x04" + tail),
                st.just(b""),
            ),
            max_size=60,
        ),
        block_size=st.sampled_from([64, 128, 256]),
        compressed=st.booleans(),
        corrupt=st.none()
        | st.tuples(
            st.floats(0, 0.999), st.floats(0, 0.999), st.integers(0, 255)
        ),
    )
    def test_matches_records_walk(
        self, records, block_size, compressed, corrupt
    ):
        assert _copy(
            records, block_size, compressed, corrupt, _span_walk
        ) == _copy(records, block_size, compressed, corrupt, _records_walk)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_span_stops_before_the_stop_record(self, compressed):
        _, store = make_store(block_size=256)
        if compressed:
            store.compression = CompressionConfig(segment_blocks=2)
        writer = store.create_writer("run_write")
        writer.write_records([b"\x01a", b"\x02bc", b"\x04p", b"\x03d"])
        reader = store.open_reader(writer.finish())
        assert reader.read_available_span(_STOP) == (b"", 0, 0)
        assert reader.read_record() == b"\x01a"  # loads the block
        span, count, payload = reader.read_available_span(_STOP)
        assert (span, count, payload) == (b"\x03\x00\x00\x00\x02bc", 1, 3)
        assert reader.tell() == 6 + 7
        assert reader.read_available_span(_STOP) == (b"", 0, 0)
        assert reader.read_record() == b"\x04p"
        assert reader.read_available_span(_STOP)[1:] == (1, 2)
        assert reader.exhausted

    def test_write_framed_equals_write_records(self):
        records = [bytes([i % 7 + 1]) * (i * 13 % 90 + 1) for i in range(40)]
        _, framed_store = make_store(block_size=64)
        _, plain_store = make_store(block_size=64)
        framed = framed_store.create_writer()
        framed.write_framed(
            b"".join(len(r).to_bytes(4, "little") + r for r in records),
            len(records),
            sum(map(len, records)),
        )
        plain = plain_store.create_writer()
        plain.write_records(records)
        a, b = framed.finish(), plain.finish()
        assert (a.stream_bytes, a.payload_bytes, a.record_count) == (
            b.stream_bytes, b.payload_bytes, b.record_count
        )
        assert list(framed_store.open_reader(a)) == records

    def test_compressed_write_framed_checks_the_span(self):
        _, store = make_store()
        store.compression = CompressionConfig(segment_blocks=2)
        writer = store.create_writer("run_write")
        with pytest.raises(RunError):
            writer.write_framed(b"\x02\x00\x00\x00ab", 1, 3)

    def test_write_framed_after_finish_fails(self):
        _, store = make_store()
        writer = store.create_writer()
        writer.finish()
        with pytest.raises(RunError):
            writer.write_framed(b"\x01\x00\x00\x00a", 1, 1)
