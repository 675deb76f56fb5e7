"""Tests for the LRU buffer pool and its end-to-end fidelity guarantees."""

import pytest

from repro.errors import DeviceError, MemoryBudgetExceeded
from repro.io import BlockDevice, BufferPool, MemoryBudget, RunStore
from repro.bench.harness import run_config
from repro.core import nexsort
from repro.generators import level_fanout_events
from repro.keys import ByAttribute, SortSpec
from repro.plan import PlanConfig
from repro.xml.document import Document


def make_device(nblocks=32, block_size=256):
    device = BlockDevice(block_size=block_size)
    start = device.allocate(nblocks)
    for i in range(nblocks):
        device.write_block(start + i, bytes([i]) * 8, "setup")
    return device, start


class TestCaching:
    def test_hit_costs_no_device_io(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        pool.read_block(start, "s")
        before = device.stats.total_ios
        assert pool.read_block(start, "s") == bytes([0]) * 8
        assert device.stats.total_ios == before
        assert device.stats.cache_hits == 1
        assert device.stats.cache_misses == 1

    def test_lru_eviction_order(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        pool.read_block(start + 1, "s")
        # Touch block 0 so block 1 becomes least recently used.
        pool.read_block(start, "s")
        pool.read_block(start + 2, "s")  # evicts start+1
        assert pool.is_cached(start)
        assert not pool.is_cached(start + 1)
        assert pool.is_cached(start + 2)
        assert device.stats.cache_evictions == 1

    def test_capacity_zero_is_pure_passthrough(self):
        device, start = make_device()
        pool = BufferPool(device, 0)
        baseline = BlockDevice(block_size=256)
        b_start = baseline.allocate(4)
        for i in range(4):
            baseline.write_block(b_start + i, bytes([i]) * 8, "setup")
        for d, s in ((pool, start), (baseline, b_start)):
            d.read_block(s, "s")
            d.read_block(s, "s")
            d.write_block(s + 1, b"x", "s")
        assert device.stats.cache_hits == 0
        assert device.stats.cache_misses == 0
        assert device.stats.cache_evictions == 0
        assert (
            device.stats.by_category["s"].reads
            == baseline.stats.by_category["s"].reads
        )
        assert (
            device.stats.by_category["s"].writes
            == baseline.stats.by_category["s"].writes
        )

    def test_vectored_read_mixes_hits_and_misses(self):
        device, start = make_device()
        pool = BufferPool(device, 8)
        pool.read_block(start + 1, "s")
        before = device.stats.by_category["s"].reads
        out = pool.read_blocks([start, start + 1, start + 2], "s")
        assert out == [bytes([i]) * 8 for i in range(3)]
        # Only the two misses touched the device.
        assert device.stats.by_category["s"].reads == before + 2
        assert device.stats.by_category["s"].cache_hits == 1
        assert device.stats.by_category["s"].cache_misses == 3

    def test_stats_are_per_category(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        pool.read_block(start, "alpha")
        pool.read_block(start, "beta")
        assert device.stats.by_category["alpha"].cache_misses == 1
        assert device.stats.by_category["beta"].cache_hits == 1

    def test_readahead_default_scales_with_capacity(self):
        device, _ = make_device()
        assert BufferPool(device, 16).readahead == 8
        assert BufferPool(device, 8).readahead == 4
        assert BufferPool(device, 2).readahead == 1
        assert BufferPool(device, 0).readahead == 0
        assert BufferPool(device, 16, readahead=3).readahead == 3

    def test_negative_capacity_rejected(self):
        device, _ = make_device()
        with pytest.raises(DeviceError):
            BufferPool(device, -1)


class TestWriteBack:
    def test_write_is_deferred_until_eviction(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        before = device.stats.total_writes
        pool.write_block(start, b"new", "s")
        assert device.stats.total_writes == before
        assert pool.dirty_blocks == 1
        # Fill the pool past capacity: the dirty block is written back.
        pool.read_block(start + 1, "s")
        pool.read_block(start + 2, "s")
        assert device.stats.total_writes == before + 1
        assert device.read_block(start) == b"new"

    def test_read_after_write_sees_cached_data(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        pool.write_block(start, b"fresh", "s")
        assert pool.read_block(start, "s") == b"fresh"
        # The device copy is still stale: write-back, not write-through.
        assert device._blocks[start] != b"fresh"

    def test_flush_writes_dirty_blocks_in_order(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        # Dirty out of order; flush must write back in block-id order so
        # the device sees a sequential stream.
        pool.write_block(start + 2, b"c", "s")
        pool.write_block(start, b"a", "s")
        pool.write_block(start + 1, b"b", "s")
        writes_before = device.stats.by_category["s"].writes
        pool.flush()
        counters = device.stats.by_category["s"]
        assert counters.writes == writes_before + 3
        assert device.read_block(start) == b"a"
        assert device.read_block(start + 1) == b"b"
        assert device.read_block(start + 2) == b"c"
        # Flushing again is free: nothing is dirty any more.
        pool.flush()
        assert device.stats.by_category["s"].writes == writes_before + 3

    def test_flush_writes_under_original_stream(self):
        device, start = make_device()
        pool = BufferPool(device, 8)
        # Interleave two streams writing their own sequential extents.
        pool.write_block(start, b"a0", "s", stream="w1")
        pool.write_block(start + 4, b"b0", "s", stream="w2")
        pool.write_block(start + 1, b"a1", "s", stream="w1")
        pool.write_block(start + 5, b"b1", "s", stream="w2")
        pool.flush()
        # Each stream's flush is judged against its own last access, so
        # all four writes land sequential - exactly as they would have
        # unpooled.  Before the fix the stream was dropped on the cached
        # path and the flush interleaved both extents into one stream.
        baseline = BlockDevice(block_size=256)
        b_start = baseline.allocate(8)
        baseline.write_block(b_start, b"a0", "s", stream="w1")
        baseline.write_block(b_start + 4, b"b0", "s", stream="w2")
        baseline.write_block(b_start + 1, b"a1", "s", stream="w1")
        baseline.write_block(b_start + 5, b"b1", "s", stream="w2")
        assert (
            device.stats.by_category["s"].seq_writes
            == baseline.stats.by_category["s"].seq_writes
        )

    def test_eviction_writes_under_original_stream(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.write_block(start + 8, b"x", "s", stream="w1")
        pool.write_block(start + 9, b"y", "s", stream="w1")
        # Unrelated traffic under the bare category moves its cursor.
        device.write_block(start, b"z", "s")
        # Evict both dirty blocks: their write-backs must be judged under
        # stream w1 (sequential), not the category cursor at start.
        seq_before = device.stats.by_category["s"].seq_writes
        pool.read_block(start + 2, "s")
        pool.read_block(start + 3, "s")
        assert device.stats.by_category["s"].seq_writes == seq_before + 2

    def test_vectored_write_threads_stream(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        assert pool.pin(start)
        pool.read_block(start + 1, "s")
        assert pool.pin(start + 1)
        # Fully pinned pool: write_blocks falls through block by block,
        # and the stream must survive the trip.
        pool.write_blocks(
            [start + 4, start + 5], [b"a", b"b"], "s", stream="w"
        )
        assert device.stats.by_category["s"].seq_writes >= 2

    def test_freed_dirty_block_never_written(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        before = device.stats.total_writes
        pool.write_block(start, b"doomed", "s")
        pool.free_blocks([start])
        pool.flush()
        assert device.stats.total_writes == before
        with pytest.raises(DeviceError):
            device.read_block(start)

    def test_close_flushes_and_clears(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        pool.write_block(start, b"kept", "s")
        pool.close()
        assert device.read_block(start) == b"kept"
        assert pool.cached_blocks == 0
        pool.close()  # idempotent

    def test_context_manager_flushes(self):
        device, start = make_device()
        with BufferPool(device, 4) as pool:
            pool.write_block(start, b"ctx", "s")
        assert device.read_block(start) == b"ctx"

    def test_oversized_write_rejected(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        with pytest.raises(DeviceError):
            pool.write_block(start, b"x" * 257, "s")

    def test_write_of_unallocated_block_rejected(self):
        device, _ = make_device(nblocks=4)
        pool = BufferPool(device, 4)
        with pytest.raises(DeviceError):
            pool.write_block(9999, b"x", "s")


class TestPinning:
    def test_pinned_block_survives_eviction_pressure(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        assert pool.pin(start)
        for i in range(1, 6):
            pool.read_block(start + i, "s")
        assert pool.is_cached(start)
        assert pool.pinned_blocks == 1
        pool.unpin(start)
        pool.read_block(start + 6, "s")
        pool.read_block(start + 7, "s")
        assert not pool.is_cached(start)

    def test_pin_fails_for_non_resident_block(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        assert not pool.pin(start)

    def test_pinning_every_entry_succeeds(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        pool.read_block(start + 1, "s")
        assert pool.pin(start)
        # Pinning the last unpinned entry is allowed; the pool degrades
        # to pass-through rather than refusing the pin.
        assert pool.pin(start + 1)
        assert pool.pinned_blocks == 2

    def test_pins_nest(self):
        device, start = make_device()
        pool = BufferPool(device, 4)
        pool.read_block(start, "s")
        assert pool.pin(start)
        assert pool.pin(start)
        pool.unpin(start)
        assert pool.pinned_blocks == 1
        pool.unpin(start)
        assert pool.pinned_blocks == 0

    def test_capacity_one_pool_can_pin(self):
        device, start = make_device()
        pool = BufferPool(device, 1)
        pool.read_block(start, "s")
        assert pool.pin(start)
        assert pool.is_cached(start)
        # The pinned block stays resident and readable as a hit.
        before = device.stats.total_reads
        pool.read_block(start, "s")
        assert device.stats.total_reads == before

    def test_all_pinned_write_falls_through(self):
        device, start = make_device()
        pool = BufferPool(device, 1)
        pool.read_block(start, "s")
        assert pool.pin(start)
        # Nothing evictable: the new write goes straight to the device.
        before = device.stats.total_writes
        pool.write_block(start + 1, b"thru", "s")
        assert device.stats.total_writes == before + 1
        assert device.read_block(start + 1).startswith(b"thru")
        assert not pool.is_cached(start + 1)

    def test_all_pinned_write_through_keeps_stream(self):
        device, start = make_device()
        pool = BufferPool(device, 1)
        pool.read_block(start, "s")
        assert pool.pin(start)
        # Sequential writes under one stream stay sequential even on the
        # write-through path.
        pool.write_block(start + 1, b"a", "s", stream="w")
        pool.write_block(start + 2, b"b", "s", stream="w")
        assert device.stats.by_category["s"].seq_writes == 2

    def test_unpin_of_non_resident_block_raises(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        with pytest.raises(DeviceError):
            pool.unpin(start)

    def test_unpin_of_unpinned_block_raises(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        with pytest.raises(DeviceError):
            pool.unpin(start)

    def test_free_of_pinned_block_raises(self):
        device, start = make_device()
        pool = BufferPool(device, 2)
        pool.read_block(start, "s")
        assert pool.pin(start)
        with pytest.raises(DeviceError):
            pool.free_blocks([start])
        # The pin (and the entry) survive the refused free.
        assert pool.is_cached(start)
        pool.unpin(start)
        pool.free_blocks([start])
        assert not pool.is_cached(start)


class TestBudgetCharging:
    def test_capacity_reserved_from_budget(self):
        device, _ = make_device()
        budget = MemoryBudget(10)
        pool = BufferPool(device, 4, budget=budget)
        assert budget.available_blocks == 6
        pool.close()
        assert budget.available_blocks == 10

    def test_over_provisioning_raises(self):
        device, _ = make_device()
        budget = MemoryBudget(10)
        budget.reserve(8, "algorithms")
        with pytest.raises(MemoryBudgetExceeded):
            BufferPool(device, 4, budget=budget)

    def test_nexsort_rejects_cache_eating_the_minimum(self):
        from repro.errors import SortSpecError

        device = BlockDevice(block_size=256)
        store = RunStore(device)
        spec = SortSpec(default=ByAttribute("name"))
        document = Document.from_string(store, "<r><a name='x'/></r>")
        with pytest.raises(SortSpecError):
            nexsort(document, spec, memory_blocks=8, cache_blocks=4)


SPEC = SortSpec(default=ByAttribute("name"))

#: Figure-5 I/O totals of the unpooled seed implementation, captured before
#: the buffer pool existed: memory blocks -> (nexsort, merge sort) total
#: I/Os on level_fanout_events([11, 11, 11, 5], seed=5, pad_bytes=24) at
#: 512-byte blocks.  cache_blocks=0 must reproduce these exactly.
SEED_GOLDEN = {
    16: (4281, 7708),
    24: (4275, 7762),
    48: (4275, 4862),
    96: (4275, 4830),
}


def fig5_events():
    return level_fanout_events([11, 11, 11, 5], seed=5, pad_bytes=24)


class TestEndToEndFidelity:
    @pytest.mark.parametrize("memory", sorted(SEED_GOLDEN))
    def test_cache_zero_matches_seed_io_counts(self, memory):
        expected_nexsort, expected_merge = SEED_GOLDEN[memory]
        n = run_config(fig5_events, PlanConfig(memory_blocks=memory))
        m = run_config(
            fig5_events,
            PlanConfig(algorithm="merge_sort", memory_blocks=memory),
        )
        assert n.total_ios == expected_nexsort
        assert m.total_ios == expected_merge
        assert n.detail["cache_hits"] == 0
        assert n.detail["cache_misses"] == 0

    def test_cached_sort_output_identical_to_uncached(self):
        def sort_with(cache):
            device = BlockDevice(block_size=512)
            store = RunStore(device)
            document = Document.from_events(
                store, level_fanout_events([4, 4, 4], seed=2, pad_bytes=24)
            )
            memory = 16 + cache
            result, _report = nexsort(
                document, SPEC, memory_blocks=memory, cache_blocks=cache
            )
            return result.to_string()

        assert sort_with(0) == sort_with(4)

    def test_spare_cache_cuts_output_phase_reads(self):
        """M/4 spare blocks of cache drop output-phase reads >= 20%.

        The cached run gets M + M/4 blocks with M/4 of them spent on the
        pool, so the sorting phase sees the same effective memory and
        produces the same run tree; the read savings are purely the
        Lemma 4.12 resume re-reads turning into cache hits.
        """

        def deep_events():
            return level_fanout_events(
                [4, 4, 4, 4, 4], seed=7, pad_bytes=24
            )

        memory = 64
        spare = memory // 4
        base = run_config(deep_events, PlanConfig(memory_blocks=memory))
        cached = run_config(
            deep_events,
            PlanConfig(memory_blocks=memory + spare, cache_blocks=spare),
        )
        base_reads = base.detail["output_reads"]
        cached_reads = cached.detail["output_reads"]
        assert cached_reads <= 0.8 * base_reads
        assert cached.detail["cache_hits"] > 0
        assert cached.detail["cache_misses"] > 0
        assert cached.detail["cache_evictions"] > 0
        # The cache never makes the total worse either.
        assert cached.total_ios < base.total_ios

    def test_report_snapshot_includes_flushed_writebacks(self):
        """Deferred write-backs are flushed before the report snapshot:
        both runs moved the same data, so total writes stay comparable."""
        base = run_config(fig5_events, PlanConfig(memory_blocks=24))
        cached = run_config(
            fig5_events, PlanConfig(memory_blocks=30, cache_blocks=6)
        )
        # Every block the sort produced must eventually be written: the
        # pool can only save re-writes of freed scratch blocks.
        assert cached.detail["cache_hits"] > 0
        assert 0 < cached.total_ios <= base.total_ios


class TestPooledRunStore:
    def test_attach_detach_roundtrip(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        pool = BufferPool(device, 4)
        store.attach_pool(pool)
        assert store.pool is pool
        assert store.io_target is pool
        store.detach_pool()
        assert store.pool is None
        assert store.io_target is device
        store.detach_pool()  # idempotent

    def test_double_attach_rejected(self):
        from repro.errors import RunError

        device = BlockDevice(block_size=256)
        store = RunStore(device)
        store.attach_pool(BufferPool(device, 4))
        with pytest.raises(RunError):
            store.attach_pool(BufferPool(device, 4))

    def test_pooled_rereads_are_hits(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        writer = store.create_writer("run_write")
        for i in range(20):
            writer.write_record(b"r%03d" % i)
        run = writer.finish()
        store.attach_pool(BufferPool(device, run.block_count + 1))
        def scan():
            reader = store.open_reader(run)
            count = 0
            while reader.read_record() is not None:
                count += 1
            return count

        # First scan: all misses.  Second scan: all hits, no device I/O.
        assert scan() == 20
        reads_after_first = device.stats.total_reads
        assert scan() == 20
        assert device.stats.total_reads == reads_after_first
        assert device.stats.cache_hits >= run.block_count

    def test_reader_readahead_prefetches_in_extents(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        writer = store.create_writer("run_write")
        for i in range(40):
            writer.write_record(b"x" * 64)
        run = writer.finish()
        assert run.block_count > 4
        store.attach_pool(
            BufferPool(device, run.block_count + 2, readahead=4)
        )
        reader = store.open_reader(run)
        while reader.read_record() is not None:
            pass
        # The whole run was read once, despite arriving 4 blocks at a time.
        assert device.stats.by_category["run_read"].reads == run.block_count
        assert (
            device.stats.by_category["run_read"].seq_reads
            == run.block_count
        )
