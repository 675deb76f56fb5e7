"""Unit tests for the simulated block device and its accounting."""

import dataclasses

import pytest

from repro.errors import DeviceError
from repro.faults import FaultInjector, FaultPlan, RetryingDevice
from repro.io import BlockDevice, BufferPool, CostModel, StripedDevice
from repro.io.file_device import FileBackedBlockDevice
from repro.io.parallel import supports_prefetch
from repro.io.stats import IOStats, StatsSnapshot


class TestAllocation:
    def test_allocate_returns_consecutive_extents(self):
        device = BlockDevice(block_size=256)
        first = device.allocate(3)
        second = device.allocate(2)
        assert first == 0
        assert second == 3  # same pool: consecutive within the extent
        assert device.allocated_blocks >= 5

    def test_pools_keep_streams_contiguous(self):
        """Two streams allocating alternately each get consecutive ids."""
        device = BlockDevice(block_size=256)
        a_blocks = []
        b_blocks = []
        for _ in range(10):
            a_blocks.append(device.allocate(1, pool="a"))
            b_blocks.append(device.allocate(1, pool="b"))
        assert a_blocks == list(range(a_blocks[0], a_blocks[0] + 10))
        assert b_blocks == list(range(b_blocks[0], b_blocks[0] + 10))

    def test_large_allocation_gets_dedicated_extent(self):
        from repro.io.device import ALLOCATION_CHUNK

        device = BlockDevice(block_size=256)
        start = device.allocate(ALLOCATION_CHUNK + 5, pool="big")
        follow = device.allocate(1, pool="big")
        assert follow >= start + ALLOCATION_CHUNK + 5

    def test_allocate_zero_rejected(self):
        device = BlockDevice(block_size=256)
        with pytest.raises(DeviceError):
            device.allocate(0)

    def test_chunk_sized_request_gets_dedicated_extent(self):
        """count == ALLOCATION_CHUNK bypasses the pool cursor entirely."""
        from repro.io.device import ALLOCATION_CHUNK

        device = BlockDevice(block_size=256)
        small = device.allocate(1, pool="p")
        big = device.allocate(ALLOCATION_CHUNK, pool="p")
        after = device.allocate(1, pool="p")
        # The dedicated extent starts past every block handed out so far…
        assert big >= small + 1
        # …and the pool's own extent is untouched by it: the next small
        # allocation continues right after the first one.
        assert after == small + 1

    def test_dedicated_extent_is_contiguous(self):
        from repro.io.device import ALLOCATION_CHUNK

        device = BlockDevice(block_size=256)
        count = ALLOCATION_CHUNK + 7
        start = device.allocate(count, pool="big")
        # Every id in [start, start+count) is usable and distinct from
        # anything a later allocation returns.
        device.write_block(start + count - 1, b"end")
        other = device.allocate(1, pool="big")
        assert other >= start + count

    def test_interleaved_pools_refill_independently(self):
        """Pool extents refill without perturbing other pools' cursors."""
        from repro.io.device import ALLOCATION_CHUNK

        device = BlockDevice(block_size=256)
        a_blocks = [device.allocate(1, pool="a")]
        # Exhaust pool a's first extent while pool b allocates in between.
        b_blocks = []
        for _ in range(ALLOCATION_CHUNK):
            b_blocks.append(device.allocate(1, pool="b"))
            a_blocks.append(device.allocate(1, pool="a"))
        # a crossed an extent boundary exactly once: its ids form two
        # contiguous stretches.
        breaks = [
            i
            for i in range(1, len(a_blocks))
            if a_blocks[i] != a_blocks[i - 1] + 1
        ]
        assert len(breaks) == 1
        # b stayed within one extent: fully contiguous.
        assert b_blocks == list(range(b_blocks[0], b_blocks[0] + len(b_blocks)))

    def test_multi_block_request_spanning_refill_stays_contiguous(self):
        from repro.io.device import ALLOCATION_CHUNK

        device = BlockDevice(block_size=256)
        device.allocate(ALLOCATION_CHUNK - 1, pool="p")
        # 2 blocks no longer fit in the current extent: the request must
        # come back contiguous from a fresh extent, not straddle two.
        start = device.allocate(2, pool="p")
        follow = device.allocate(1, pool="p")
        assert follow == start + 2

    def test_tiny_block_size_rejected(self):
        with pytest.raises(DeviceError):
            BlockDevice(block_size=16)


class TestReadWrite:
    def test_round_trip(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        device.write_block(block, b"hello")
        assert device.read_block(block) == b"hello"

    def test_write_is_copied(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        data = bytearray(b"abc")
        device.write_block(block, data)
        data[0] = ord("z")
        assert device.read_block(block) == b"abc"

    def test_read_unallocated_block_fails(self):
        device = BlockDevice(block_size=256)
        with pytest.raises(DeviceError):
            device.read_block(0)

    def test_read_never_written_block_fails(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        with pytest.raises(DeviceError):
            device.read_block(block)

    def test_oversized_write_fails(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        with pytest.raises(DeviceError):
            device.write_block(block, b"x" * 257)

    def test_full_block_write_allowed(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        device.write_block(block, b"x" * 256)
        assert len(device.read_block(block)) == 256

    def test_freed_block_unreadable(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        device.write_block(block, b"data")
        device.free_blocks([block])
        with pytest.raises(DeviceError):
            device.read_block(block)

    def test_free_is_not_counted_io(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        device.write_block(block, b"data")
        before = device.stats.total_ios
        device.free_blocks([block])
        assert device.stats.total_ios == before

    def test_free_forgets_category_last_access(self):
        """A category whose last access was freed restarts its stream."""
        device = BlockDevice(block_size=256)
        start = device.allocate(3)
        device.write_block(start, b"a", "s")
        device.write_block(start + 1, b"b", "s")
        device.free_blocks([start + 1])
        # Without the purge this backward access would be judged against
        # the dead block and charged as random; after it the stream
        # restarts and the first access counts sequential.
        device.write_block(start, b"c", "s")
        counters = device.stats.by_category["s"]
        assert counters.writes == 3
        assert counters.seq_writes == 3

    def test_free_keeps_other_categories_last_access(self):
        device = BlockDevice(block_size=256)
        start = device.allocate(4)
        device.write_block(start, b"a", "keep")
        device.write_block(start + 2, b"b", "drop")
        device.free_blocks([start + 2])
        # "keep" still remembers start: start+1 follows it sequentially.
        device.write_block(start + 1, b"c", "keep")
        # "drop" forgot: a backward access still counts sequential
        # because the stream restarted.
        device.write_block(start, b"d", "drop")
        assert device.stats.by_category["keep"].seq_writes == 2
        assert device.stats.by_category["drop"].seq_writes == 2


class TestVectoredIO:
    def _loop_equivalent(self, make_ops):
        """Run the same accesses vectored and looped; compare counters."""
        results = []
        for vectored in (False, True):
            device = BlockDevice(block_size=256)
            make_ops(device, vectored)
            counters = device.stats.by_category["v"]
            results.append(
                (
                    counters.reads,
                    counters.writes,
                    counters.seq_reads,
                    counters.seq_writes,
                )
            )
        assert results[0] == results[1]
        return results[0]

    def test_contiguous_write_read_matches_loop(self):
        def ops(device, vectored):
            start = device.allocate(4)
            ids = [start + i for i in range(4)]
            datas = [bytes([i]) for i in range(4)]
            if vectored:
                device.write_blocks(ids, datas, "v")
                assert device.read_blocks(ids, "v") == datas
            else:
                for i, d in zip(ids, datas):
                    device.write_block(i, d, "v")
                for i, d in zip(ids, datas):
                    assert device.read_block(i, "v") == d

        reads, writes, seq_reads, seq_writes = self._loop_equivalent(ops)
        assert (reads, writes) == (4, 4)
        assert seq_writes == 4
        # Re-reading block `start` right after writing start+3 is a jump.
        assert seq_reads == 3

    def test_scattered_ids_match_loop(self):
        def ops(device, vectored):
            start = device.allocate(6)
            ids = [start + 4, start, start + 1, start + 5]
            datas = [b"w", b"x", b"y", b"z"]
            if vectored:
                device.write_blocks(ids, datas, "v")
                device.read_blocks(ids, "v")
            else:
                for i, d in zip(ids, datas):
                    device.write_block(i, d, "v")
                for i in ids:
                    device.read_block(i, "v")

        reads, writes, seq_reads, seq_writes = self._loop_equivalent(ops)
        assert (reads, writes) == (4, 4)
        # First write opens the stream (sequential); start -> start+1 is
        # the only other adjacent step.
        assert seq_writes == 2

    def test_empty_vectored_calls_are_free(self):
        device = BlockDevice(block_size=256)
        assert device.read_blocks([], "v") == []
        device.write_blocks([], [], "v")
        assert device.stats.total_ios == 0

    def test_mismatched_payload_count_rejected(self):
        device = BlockDevice(block_size=256)
        start = device.allocate(2)
        with pytest.raises(DeviceError):
            device.write_blocks([start, start + 1], [b"only-one"], "v")

    def test_vectored_read_of_unwritten_block_fails(self):
        device = BlockDevice(block_size=256)
        start = device.allocate(2)
        device.write_block(start, b"x")
        with pytest.raises(DeviceError):
            device.read_blocks([start, start + 1], "v")


class TestAccounting:
    def test_reads_and_writes_counted_by_category(self):
        device = BlockDevice(block_size=256)
        a = device.allocate(2)
        device.write_block(a, b"1", "alpha")
        device.write_block(a + 1, b"2", "alpha")
        device.read_block(a, "beta")
        summary = device.stats.summary()
        assert summary["alpha"]["writes"] == 2
        assert summary["alpha"]["reads"] == 0
        assert summary["beta"]["reads"] == 1

    def test_sequential_detection_within_category(self):
        device = BlockDevice(block_size=256)
        start = device.allocate(4)
        for offset in range(4):
            device.write_block(start + offset, b"x", "stream")
        counters = device.stats.by_category["stream"]
        # First access of a category counts as sequential.
        assert counters.seq_writes == 4

    def test_interleaved_categories_stay_sequential(self):
        """Two sequential streams must not charge each other seeks."""
        device = BlockDevice(block_size=256)
        a = device.allocate(3)
        b = device.allocate(3)
        for offset in range(3):
            device.write_block(a + offset, b"x", "one")
            device.write_block(b + offset, b"y", "two")
        assert device.stats.by_category["one"].seq_writes == 3
        assert device.stats.by_category["two"].seq_writes == 3

    def test_backward_access_is_random(self):
        device = BlockDevice(block_size=256)
        start = device.allocate(3)
        for offset in range(3):
            device.write_block(start + offset, b"x", "s")
        device.read_block(start + 2, "s")  # jump: not previous + 1
        device.read_block(start, "s")  # backward: random
        counters = device.stats.by_category["s"]
        assert counters.seq_reads == 0
        assert counters.reads == 2

    def test_snapshot_differencing(self):
        device = BlockDevice(block_size=256)
        block = device.allocate(2)
        device.write_block(block, b"x", "phase1")
        snapshot = device.stats.snapshot()
        device.write_block(block + 1, b"y", "phase2")
        delta = device.stats.since(snapshot)
        assert delta.total_ios == 1
        assert delta.category_total("phase2") == 1
        assert delta.category_total("phase1") == 0

    @staticmethod
    def _every_counter(stats, scale: int = 1) -> None:
        """Record a distinct nonzero value into every counter of ``stats``.

        Floats are dyadic, so sums and differences are exact.
        """
        stats.record_reads("alpha", 3 * scale, 2 * scale)
        stats.record_writes("alpha", 5 * scale, 4 * scale)
        stats.record_reads("beta", 7 * scale, 1 * scale)
        stats.record_writes("beta", 11 * scale, 6 * scale)
        for category, count in (("alpha", 1), ("beta", 2)):
            stats.record_cache_hit(category, (count + 12) * scale)
            stats.record_cache_miss(category, (count + 14) * scale)
            stats.record_cache_eviction(category, (count + 16) * scale)
        stats.record_comparisons(19 * scale)
        stats.record_merge_comparisons(23 * scale)
        stats.record_tokens(29 * scale)
        stats.record_compression(31 * scale, 37 * scale)
        stats.record_decompression(41 * scale, 43 * scale)
        stats.record_penalty(0.5 * scale)
        stats.record_disk_busy(0, 0.25 * scale)
        stats.record_disk_busy(1, 0.125 * scale)
        stats.record_stall(0.0625 * scale)

    def test_every_counter_through_snapshot_minus_plus(self):
        """Each counter survives snapshot, differencing and summing."""
        names = [f.name for f in dataclasses.fields(StatsSnapshot)]
        stats = IOStats()
        self._every_counter(stats)
        frozen = stats.snapshot()
        for name in names:
            assert getattr(frozen, name) == getattr(stats, name), name
        for name in ("by_category", "disk_busy"):
            assert getattr(frozen, name), name
        alpha = dataclasses.asdict(frozen.by_category["alpha"])
        assert all(alpha.values()), alpha

        # The snapshot holds copies: recording more leaves it unchanged.
        before = dataclasses.asdict(frozen)
        self._every_counter(stats, scale=2)
        assert dataclasses.asdict(frozen) == before

        empty = stats.since(stats.snapshot())
        assert empty.by_category == {}
        assert empty.disk_busy == {}
        for name in names:
            if name not in ("by_category", "disk_busy", "cost_model"):
                assert getattr(empty, name) == 0, name
        assert empty.total_ios == 0

        later = stats.snapshot()
        delta = later.minus(frozen)
        assert delta.by_category["alpha"].reads == 6
        assert delta.disk_busy == {0: 0.5, 1: 0.25}
        roundtrip = later.plus(frozen).minus(frozen)
        for name in names:
            assert getattr(roundtrip, name) == getattr(later, name), name

    def test_live_stats_compare_by_identity(self):
        one, two = IOStats(), IOStats()
        assert one == one and one != two
        assert len({one, two, one}) == 2
        assert hash(one) == hash(one)

    def test_bytes_to_blocks(self):
        device = BlockDevice(block_size=256)
        assert device.bytes_to_blocks(0) == 0
        assert device.bytes_to_blocks(1) == 1
        assert device.bytes_to_blocks(256) == 1
        assert device.bytes_to_blocks(257) == 2


class TestCostModel:
    def test_io_seconds_charges_seeks_for_random(self):
        model = CostModel(seek_seconds=0.01, transfer_seconds=0.001)
        sequential_only = model.io_seconds(sequential=10, random=0)
        with_seeks = model.io_seconds(sequential=0, random=10)
        assert with_seeks > sequential_only
        assert sequential_only == pytest.approx(0.010)
        assert with_seeks == pytest.approx(0.110)

    def test_cpu_seconds(self):
        model = CostModel(compare_seconds=1e-6, token_seconds=1e-7)
        assert model.cpu_seconds(1000, 0) == pytest.approx(1e-3)
        assert model.cpu_seconds(0, 1000) == pytest.approx(1e-4)

    def test_elapsed_combines_io_and_cpu(self):
        device = BlockDevice(block_size=256)
        block = device.allocate()
        device.write_block(block, b"x", "w")
        device.stats.record_comparisons(1000)
        assert device.stats.elapsed_seconds() == pytest.approx(
            device.stats.io_seconds() + device.stats.cpu_seconds()
        )

    def test_simulated_time_monotone_in_ios(self):
        device = BlockDevice(block_size=256)
        blocks = device.allocate(10)
        times = []
        for offset in range(10):
            device.write_block(blocks + offset, b"x", "w")
            times.append(device.stats.elapsed_seconds())
        assert times == sorted(times)
        assert times[0] > 0


#: The device layers, each built over an inner device.
LAYERS = {
    "pool": lambda device: BufferPool(device, 0),
    "injector": lambda device: FaultInjector(device, FaultPlan()),
    "retrier": lambda device: RetryingDevice(
        FaultInjector(device, FaultPlan())
    ),
}

#: The devices a layer can sit on, all serial and 64-byte blocked.
BASES = {
    "block": lambda tmp_path: BlockDevice(block_size=64),
    "file": lambda tmp_path: FileBackedBlockDevice(
        str(tmp_path / "device.bin"), block_size=64
    ),
    "striped": lambda tmp_path: StripedDevice(disks=1, block_size=64),
}


def _mixed_script(device) -> list[bytes]:
    """Single-block, vectored, write-behind and held-free traffic."""
    full = [bytes([i]) * 64 for i in range(5)]  # no file-device padding
    start = device.allocate(5, "s")
    device.write_block(start, full[0], "w")
    device.write_blocks([start + 1, start + 2], full[1:3], "w", "w-stream")
    device.write_block_behind(start + 3, full[3], "w")
    device.write_block(start + 4, full[4], "w")
    out = [device.read_block(start + 4, "r")]
    out += device.read_blocks([start, start + 1, start + 2], "r", "r-stream")
    device.push_hold()
    device.free_blocks([start + 1, start + 2])
    device.pop_hold(restore=True)
    out += device.read_blocks([start + 2, start + 1], "r")
    out.append(device.read_block(start + 3, "r"))
    return out


def _refusals(device) -> list[str]:
    """The error of each bad call; none may move a counter."""
    start = device.allocate(2, "s")
    device.write_block(start, bytes(64), "w")
    far = start + 1000  # past every allocated extent
    calls = [
        lambda: device.read_block(far, "r"),
        lambda: device.read_block(-1, "r"),
        lambda: device.read_block(start + 1, "r"),
        lambda: device.read_blocks([start, start + 1, far], "r"),
        lambda: device.read_blocks([start, far, start + 1], "r"),
        lambda: device.write_block(far, b"x", "w"),
        lambda: device.write_block(start + 1, bytes(65), "w"),
        lambda: device.write_blocks([start, start + 1], [b"x"], "w"),
        lambda: device.write_blocks([far, start], [b"x", bytes(65)], "w"),
        lambda: device.write_blocks([start, far], [bytes(65), b"x"], "w"),
        lambda: device.store_block_raw(far, b"x"),
        lambda: device.store_block_raw(start, bytes(65)),
    ]
    before = device.stats.summary()
    messages = []
    for call in calls:
        with pytest.raises(DeviceError) as info:
            call()
        messages.append(str(info.value))
    assert device.stats.summary() == before
    assert device.read_block(start, "r") == bytes(64)
    return messages


def _raw_and_held(device) -> list[bytes]:
    """Raw stores and stashes under holds: uncounted, then readable."""
    full = [bytes([i]) * 64 for i in range(4)]  # no file-device padding
    start = device.allocate(4, "s")
    device.write_blocks(range(start, start + 3), full[:3], "w")
    before = device.stats.summary()
    device.store_block_raw(start, full[3])
    device.store_block_raw(start + 3, full[0])
    device.push_hold()
    device.stash_block(start + 1, full[2])
    device.free_blocks([start, start + 1, start + 1])
    assert device.occupied_blocks == 2
    device.pop_hold(restore=True)
    device.push_hold()
    device.free_blocks([start + 2])
    device.pop_hold(restore=False)
    assert device.stats.summary() == before
    with pytest.raises(DeviceError, match="never-written"):
        device.read_block(start + 2, "r")
    return device.read_blocks([start, start + 1, start + 3], "r")


class TestDeviceParity:
    """Every device takes the one access path: the same refusals, raw
    stores and holds, whatever stores the blocks."""

    @pytest.mark.parametrize("base", sorted(BASES))
    def test_bad_calls_raise_the_same_errors(self, base, tmp_path):
        device = BASES[base](tmp_path)
        try:
            assert _refusals(device) == [
                "read of unallocated block 1000",
                "read of unallocated block -1",
                "read of never-written block 1",
                "read of never-written block 1",
                "read of unallocated block 1000",
                "write of unallocated block 1000",
                "write of 65 bytes exceeds block size 64",
                "write_blocks got 2 ids but 1 payloads",
                "write of unallocated block 1000",
                "write of 65 bytes exceeds block size 64",
                "raw store to unallocated block 1000",
                "raw store of 65 bytes exceeds block size 64",
            ]
        finally:
            if base == "file":
                device.close()

    @pytest.mark.parametrize("base", sorted(BASES))
    def test_raw_stores_and_holds_match(self, base, tmp_path):
        bare = BlockDevice(block_size=64)
        expected = _raw_and_held(bare)
        device = BASES[base](tmp_path)
        try:
            assert _raw_and_held(device) == expected
            assert expected == [bytes([3]) * 64, bytes([2]) * 64, bytes(64)]
            assert device.stats.summary() == bare.stats.summary()
        finally:
            if base == "file":
                device.close()

    @pytest.mark.parametrize("base", sorted(BASES))
    def test_pooled_reads_are_refused_like_the_device(self, base, tmp_path):
        """Through a caching pool every bad call raises the device's
        error and moves no counter: a vectored read that holds a cached
        block and a refused one counts no cache hit."""
        device = BASES[base](tmp_path)
        try:
            pool = BufferPool(device, 4)
            assert _refusals(pool) == _refusals(BlockDevice(block_size=64))
            start = pool.allocate(2, "s")
            pool.write_block(start, bytes(64), "w")
            before = pool.stats.summary()
            for bad in ([start, start + 1], [start, start + 1000]):
                with pytest.raises(DeviceError):
                    pool.read_blocks(bad, "r")
            assert pool.stats.summary() == before
        finally:
            if base == "file":
                device.close()

    def test_pool_refuses_writes_like_the_device(self):
        """A caching pool takes the devices' write check: the whole
        write is refused before any block of it is cached."""
        pool = BufferPool(BlockDevice(block_size=64), 4)
        start = pool.allocate(2, "s")
        far = start + 1000
        calls = {
            "write of unallocated block 1000": [
                lambda: pool.write_block(far, bytes(65), "w"),
                lambda: pool.write_blocks([start, far], [b"x", b"x"], "w"),
                lambda: pool.write_block_behind(far, b"x", "w"),
            ],
            "write of 65 bytes exceeds block size 64": [
                lambda: pool.write_blocks(
                    [start, start + 1], [b"x", bytes(65)], "w"
                ),
            ],
            "write_blocks got 2 ids but 1 payloads": [
                lambda: pool.write_blocks([start, start + 1], [b"x"], "w"),
            ],
        }
        for message, bad_calls in calls.items():
            for call in bad_calls:
                with pytest.raises(DeviceError) as info:
                    call()
                assert str(info.value) == message
        assert pool.cached_blocks == 0
        assert pool.stats.summary() == BlockDevice(64).stats.summary()


class TestDeviceLayer:
    @pytest.mark.parametrize("base", sorted(BASES))
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_layer_matches_bare_device(self, layer, base, tmp_path):
        bare = BlockDevice(block_size=64)
        expected = _mixed_script(bare)
        inner = BASES[base](tmp_path)
        try:
            assert _mixed_script(LAYERS[layer](inner)) == expected
            assert inner.stats.summary() == bare.stats.summary()
        finally:
            if base == "file":
                inner.close()

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_layer_forwards_device_surface(self, layer):
        device = StripedDevice(
            disks=2, block_size=64, prefetch_depth=2,
            prefetch_policy="round-robin",
        )
        wrapped = LAYERS[layer](device)
        assert wrapped.block_size == 64
        assert wrapped.stats is device.stats
        assert wrapped.bytes_to_blocks(65) == 2
        assert wrapped.disks == 2
        assert wrapped.prefetch_depth == 2
        assert wrapped.prefetch_policy == "round-robin"
        assert supports_prefetch(wrapped)
        start = wrapped.allocate(4)
        assert wrapped.allocated_blocks == device.allocated_blocks
        assert [wrapped.disk_of(start + i) for i in range(4)] == [
            device.disk_of(start + i) for i in range(4)
        ]
        wrapped.write_blocks(
            range(start, start + 4), [bytes([i]) for i in range(4)], "w"
        )
        assert wrapped.prefetch_blocks([start], "r") == 1
        assert device.prefetched_blocks == 1
        wrapped.write_block_behind(start + 1, b"z", "w")
        assert device.read_block(start + 1, "r") == b"z"
        wrapped.free_blocks([start + 3])
        assert wrapped.occupied_blocks == device.occupied_blocks == 3
