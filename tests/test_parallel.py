"""Tests for parallel-disk striping, the overlapped pipeline, and prefetch.

The load-bearing invariant throughout: the pipeline changes *when* work
happens, never *how much*.  A 1-disk stripe (and prefetch off) must be
bit-identical to the serial :class:`BlockDevice` in every counter and
simulated second; striping and prefetching only redistribute the same
charges across disk clocks and reduce consumer stall.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import BENCH_SPEC, load_document, run_config
from repro.errors import DeviceError, DeviceFault, FaultPlanError
from repro.faults import FaultInjector, FaultPlan
from repro.generators import level_fanout_events
from repro.io import BlockDevice, BufferPool, RunStore, StripedDevice
from repro.io.parallel import MergePrefetcher, supports_prefetch
from repro.plan import PlanConfig, run_plan

BLOCK = 256


def make_striped(disks=4, nblocks=16, **kwargs):
    device = StripedDevice(disks=disks, block_size=BLOCK, **kwargs)
    start = device.allocate(nblocks)
    for i in range(nblocks):
        device.write_block(start + i, bytes([i]) * 8, "setup")
    return device, start


def _totals(device) -> dict:
    return device.stats.snapshot().counter_totals()


def _strip_parallel(totals: dict) -> dict:
    """Drop the striping-only keys so totals compare against serial."""
    return {
        key: value
        for key, value in totals.items()
        if key
        not in ("disk_busy", "disk_seconds", "overlap_seconds",
                "stall_seconds")
    }


class TestLayout:
    def test_round_robin_mapping(self):
        device = StripedDevice(disks=4, block_size=BLOCK)
        assert [device.disk_of(g) for g in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]
        assert device._locate(9) == (1, 2)

    def test_constructor_validation(self):
        with pytest.raises(DeviceError):
            StripedDevice(disks=0)
        with pytest.raises(DeviceError):
            StripedDevice(disks=2, prefetch_depth=-1)
        with pytest.raises(DeviceError):
            StripedDevice(disks=2, prefetch_policy="psychic")

    def test_allocation_spans_shards(self):
        device = StripedDevice(disks=3, block_size=BLOCK)
        start = device.allocate(7)
        assert start == 0
        assert device.allocated_blocks >= 7
        # Globals 0..6 live as locals 0,0,0,1,1,1,2 across the 3 shards.
        for g in range(7):
            disk, local = device._locate(g)
            assert disk == g % 3 and local == g // 3
            device.write_block(g, b"x", "setup")
        assert device.occupied_blocks == 7

    def test_bounds_errors_use_global_ids(self):
        device, start = make_striped(disks=2, nblocks=4)
        with pytest.raises(DeviceError, match="unallocated"):
            device.read_block(start + 10_000)
        extra = device.allocate(1)
        with pytest.raises(DeviceError, match=f"never-written block {extra}"):
            device.read_block(extra)
        with pytest.raises(DeviceError, match="unallocated"):
            device.write_block(start + 10_000, b"x")
        with pytest.raises(DeviceError, match="exceeds block size"):
            device.write_block(start, b"x" * (BLOCK + 1))

    def test_data_round_trips_across_disks(self):
        device, start = make_striped(disks=3, nblocks=9)
        for i in range(9):
            assert device.read_block(start + i, "check") == bytes([i]) * 8
        datas = device.read_blocks(range(start, start + 9), "vec")
        assert datas == [bytes([i]) * 8 for i in range(9)]


class TestSerialIdentity:
    def _drive(self, device):
        """One interleaved-stream workload, identical on any device."""
        start = device.allocate(12)
        for i in range(12):
            device.write_block(start + i, bytes([i]), "run_write",
                              stream=f"w{i % 2}")
        for i in (0, 2, 4, 1, 3, 5):
            device.read_block(start + i, "run_read", stream="r")
        device.read_blocks(range(start + 6, start + 12), "merge_read")
        device.write_blocks(
            [start + 1, start + 3], [b"a", b"b"], "other"
        )
        device.stats.record_comparisons(100)
        device.stats.record_tokens(40)
        return start

    def test_one_disk_stripe_matches_serial(self):
        serial = BlockDevice(block_size=BLOCK)
        striped = StripedDevice(disks=1, block_size=BLOCK)
        self._drive(serial)
        self._drive(striped)
        serial_totals = _totals(serial)
        striped_totals = _totals(striped)
        assert _strip_parallel(striped_totals) == serial_totals
        assert striped.stats.elapsed_seconds() == pytest.approx(
            serial.stats.elapsed_seconds()
        )
        assert striped.stats.io_seconds() == pytest.approx(
            serial.stats.io_seconds()
        )
        # One disk cannot overlap with itself.
        assert striped.stats.overlap_seconds() == pytest.approx(0.0)

    def test_one_disk_write_behind_matches_serial(self):
        serial = BlockDevice(block_size=BLOCK)
        striped = StripedDevice(disks=1, block_size=BLOCK)
        for device in (serial, striped):
            start = device.allocate(6)
            for i in range(6):
                device.write_block_behind(
                    start + i, bytes([i]), "run_write"
                )
        assert _strip_parallel(_totals(striped)) == (
            _totals(serial)
        )

    def test_full_sort_identity_at_one_disk(self):
        factory = lambda: level_fanout_events([6, 5, 4], seed=3,
                                              pad_bytes=24)
        config = PlanConfig(memory_blocks=12)
        _, plain = run_plan(load_document(factory()), BENCH_SPEC, config)
        _, striped = run_plan(
            load_document(factory(), disks=1), BENCH_SPEC, config
        )
        assert striped.total_ios == plain.total_ios
        assert striped.simulated_seconds == plain.simulated_seconds
        assert striped.io_breakdown() == plain.io_breakdown()

    def test_serial_counter_totals_gain_no_keys(self):
        # Golden safety: a serial device's totals (and hence every trace
        # byte) must not grow parallel keys.
        device = BlockDevice(block_size=BLOCK)
        start = device.allocate(1)
        device.write_block(start, b"x", "w")
        assert "disk_busy" not in _totals(device)


class TestPerDiskStats:
    def test_shard_stats_sum_to_aggregate(self):
        device, start = make_striped(disks=3, nblocks=12)
        for i in range(12):
            device.read_block(start + i, "run_read")
        shards = device.shards
        assert sum(s.stats.total_reads for s in shards) == (
            device.stats.total_reads
        )
        assert sum(s.stats.total_writes for s in shards) == (
            device.stats.total_writes
        )
        for disk, shard in enumerate(shards):
            assert device.stats.disk_busy[disk] == pytest.approx(
                shard.stats.io_seconds()
            )

    def test_disk_time_falls_with_more_disks(self):
        def drive(disks):
            device = StripedDevice(disks=disks, block_size=BLOCK)
            start = device.allocate(24)
            for i in range(24):
                device.write_block(start + i, b"x", "w")
            for i in range(24):
                device.read_block(start + i, "r")
            return device.stats

        serial, two, four = drive(1), drive(2), drive(4)
        assert serial.io_seconds() == pytest.approx(two.io_seconds())
        assert two.io_seconds() == pytest.approx(four.io_seconds())
        assert two.disk_seconds() < serial.disk_seconds()
        assert four.disk_seconds() < two.disk_seconds()
        assert four.overlap_seconds() > two.overlap_seconds()

    def test_utilization_normalized_to_busiest(self):
        device, start = make_striped(disks=2, nblocks=8)
        # Hammer disk 0 (even globals) harder.
        for _ in range(5):
            for i in (0, 2, 4, 6):
                device.read_block(start + i, "hot")
        utilization = device.disk_utilization()
        assert max(utilization) == pytest.approx(1.0)
        assert all(0.0 <= u <= 1.0 for u in utilization)
        mapping = device.stats.disk_utilization()
        assert set(mapping) <= {0, 1}
        assert max(mapping.values()) == pytest.approx(1.0)


class TestPipeline:
    def test_synchronous_io_stalls_full_service(self):
        # All-demand access: every I/O waits out its own service time, so
        # total stall equals serial I/O time (nothing was overlapped).
        device, start = make_striped(disks=2, nblocks=6)
        for i in range(6):
            device.read_block(start + i, "r")
        assert device.stats.stall_seconds == pytest.approx(
            device.stats.io_seconds()
        )

    def test_write_behind_within_buffers_never_stalls(self):
        device = StripedDevice(disks=1, block_size=BLOCK)
        start = device.allocate(2)
        device.write_block_behind(start, b"a", "w")
        device.write_block_behind(start + 1, b"b", "w")
        assert device.stats.stall_seconds == 0.0

    def test_write_behind_backpressure_stalls_third_write(self):
        device = StripedDevice(disks=1, block_size=BLOCK)
        start = device.allocate(3)
        for i in range(3):
            device.write_block_behind(start + i, b"x", "w")
        assert device.stats.stall_seconds > 0.0
        # ...but far less than waiting out every write.
        assert device.stats.stall_seconds < device.stats.io_seconds()

    def test_pipeline_seconds_covers_in_flight_writes(self):
        device = StripedDevice(disks=2, block_size=BLOCK)
        start = device.allocate(2)
        device.write_block_behind(start, b"a", "w")
        assert device.pipeline_seconds > 0.0
        assert device.pipeline_seconds >= device.stats.stall_seconds


class TestPrefetch:
    def test_window_bounded_by_depth(self):
        device, start = make_striped(disks=2, nblocks=8, prefetch_depth=2)
        issued = device.prefetch_blocks(range(start, start + 5), "r")
        assert issued == 2
        assert device.prefetched_blocks == 2

    def test_prefetch_disabled_issues_nothing(self):
        device, start = make_striped(disks=2, nblocks=4)
        assert device.prefetch_blocks([start], "r") == 0
        serial = BlockDevice(block_size=BLOCK)
        serial.allocate(1)
        assert serial.prefetch_blocks([0], "r") == 0

    def test_prefetched_read_charges_no_new_counters(self):
        device, start = make_striped(disks=2, nblocks=4, prefetch_depth=4)
        device.prefetch_blocks([start, start + 1], "r", stream="s")
        before = _strip_parallel(_totals(device))
        assert device.read_block(start, "r", stream="s") == bytes([0]) * 8
        assert device.read_block(start + 1, "r", stream="s") == (
            bytes([1]) * 8
        )
        after = _strip_parallel(_totals(device))
        assert after == before
        assert device.prefetched_blocks == 0

    def test_prefetch_then_demand_equals_pure_demand(self):
        def consume(prefetch):
            device, start = make_striped(
                disks=2, nblocks=8, prefetch_depth=4
            )
            baseline = device.stats.snapshot()
            for i in range(8):
                if prefetch:
                    device.prefetch_blocks(
                        range(start + i, start + 8), "r", stream="s"
                    )
                device.read_block(start + i, "r", stream="s")
            return device.stats.since(baseline)

        demand = consume(prefetch=False)
        prefetched = consume(prefetch=True)
        assert prefetched.total_reads == demand.total_reads
        assert prefetched.io_seconds() == pytest.approx(
            demand.io_seconds()
        )
        assert prefetched.disk_seconds() == pytest.approx(
            demand.disk_seconds()
        )
        # The point of prefetching: strictly less consumer waiting.
        assert prefetched.stall_seconds < demand.stall_seconds

    def test_write_invalidates_prefetched_block(self):
        device, start = make_striped(disks=2, nblocks=4, prefetch_depth=4)
        device.prefetch_blocks([start], "r")
        device.write_block(start, b"fresh", "w")
        assert device.prefetched_blocks == 0
        assert device.read_block(start, "r") == b"fresh"

    def test_vectored_read_consumes_prefetched(self):
        device, start = make_striped(disks=2, nblocks=6, prefetch_depth=4)
        device.prefetch_blocks([start, start + 1], "r", stream="s")
        before = device.stats.total_reads
        datas = device.read_blocks(range(start, start + 4), "r", stream="s")
        assert datas == [bytes([i]) * 8 for i in range(4)]
        # Only the two unprefetched blocks were newly charged.
        assert device.stats.total_reads == before + 2
        assert device.prefetched_blocks == 0


class TestFreeAndRecovery:
    def test_free_forgets_and_hold_restores(self):
        device, start = make_striped(disks=3, nblocks=6)
        device.push_hold()
        device.free_blocks(range(start, start + 6))
        assert device.occupied_blocks == 0
        with pytest.raises(DeviceError):
            device.read_block(start)
        device.pop_hold(restore=True)
        assert device.occupied_blocks == 6
        for i in range(6):
            assert device.read_block(start + i, "r") == bytes([i]) * 8

    def test_free_drops_prefetched_entries(self):
        device, start = make_striped(disks=2, nblocks=4, prefetch_depth=4)
        device.prefetch_blocks([start], "r")
        device.free_blocks([start])
        assert device.prefetched_blocks == 0
        with pytest.raises(DeviceError):
            device.read_block(start)

    def test_run_store_free_and_live_ids_on_striped(self):
        device = StripedDevice(disks=4, block_size=BLOCK)
        store = RunStore(device)
        handles = []
        for batch in range(3):
            writer = store.create_writer()
            writer.write_records(
                bytes([batch]) * 40 for _ in range(20)
            )
            handles.append(writer.finish())
        assert store.live_run_ids() == {h.run_id for h in handles}
        assert store.total_run_blocks() == sum(
            h.block_count for h in handles
        )
        occupied = device.occupied_blocks
        store.free(handles[1])
        assert store.live_run_ids() == {
            handles[0].run_id, handles[2].run_id,
        }
        assert device.occupied_blocks == occupied - handles[1].block_count
        with pytest.raises(DeviceError):
            device.read_block(handles[1].block_ids[0])
        # Survivors still read back intact across the stripe.
        assert all(
            record == bytes([2]) * 40
            for record in store.open_reader(handles[2])
        )


class TestFaultDiskScoping:
    def test_parse_and_describe_round_trip(self):
        (rule,) = FaultPlan.parse("read@4:disk=2").rules
        assert rule.op == "read" and rule.nth == 4 and rule.disk == 2
        plan = FaultPlan.parse("read@4:run_read:disk=2")
        (scoped,) = plan.rules
        assert scoped.category == "run_read" and scoped.disk == 2
        assert "disk=2" in plan.describe()
        reparsed = FaultPlan.parse(plan.describe())
        assert reparsed.rules == plan.rules

    def test_parse_rejects_bad_disk_clauses(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("read@4:disk=2:disk=3")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("read@4:disk=nope")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("read@4:disk=-1")

    def test_disk_scoped_rule_counts_only_that_disk(self):
        device, start = make_striped(disks=4, nblocks=12)
        faulty = FaultInjector(device, FaultPlan.parse("read@2:disk=1"))
        # Disk 1 holds globals 1, 5, 9.  Reads elsewhere never advance
        # the scoped counter.
        faulty.read_block(start + 0, "r")
        faulty.read_block(start + 2, "r")
        faulty.read_block(start + 1, "r")  # disk-1 attempt #1
        with pytest.raises(DeviceFault) as excinfo:
            faulty.read_block(start + 5, "r")  # disk-1 attempt #2
        assert excinfo.value.disk == 1
        assert excinfo.value.transient
        # Transient: the retried read succeeds and is charged normally.
        assert faulty.read_block(start + 5, "r") == bytes([5]) * 8

    def test_device_wide_and_disk_scoped_counters_coexist(self):
        device, start = make_striped(disks=2, nblocks=8)
        faulty = FaultInjector(
            device, FaultPlan.parse("read@3;read@2:disk=1")
        )
        faulty.read_block(start + 1, "r")  # wide #1, disk-1 #1
        with pytest.raises(DeviceFault) as excinfo:
            faulty.read_block(start + 3, "r")  # wide #2, disk-1 #2 fires
        assert excinfo.value.disk == 1
        # The retry is wide attempt #3, so the device-wide rule fires
        # now - the two counters advanced independently all along.
        with pytest.raises(DeviceFault) as excinfo:
            faulty.read_block(start + 3, "r")
        assert excinfo.value.disk is None
        assert faulty.read_block(start + 3, "r") == bytes([3]) * 8

    def test_prefetch_path_is_fault_checked(self):
        device, start = make_striped(disks=2, nblocks=4, prefetch_depth=2)
        faulty = FaultInjector(device, FaultPlan.parse("read@1"))
        with pytest.raises(DeviceFault):
            faulty.prefetch_blocks([start], "r")


class TestStripedThroughPool:
    def test_pool_eviction_and_stat_aggregation(self):
        device = StripedDevice(disks=2, block_size=BLOCK)
        start = device.allocate(8)
        pool = BufferPool(device, 2)
        for i in range(8):
            pool.write_block(start + i, bytes([i]), "w")
        for i in range(8):
            assert pool.read_block(start + i, "r") == bytes([i])
        pool.close()
        assert device.stats.cache_evictions > 0
        assert sum(
            s.stats.total_ios for s in device.shards
        ) == device.stats.total_ios

    def test_pool_prefetch_reports_cached_as_satisfied(self):
        device = StripedDevice(disks=2, block_size=BLOCK, prefetch_depth=4)
        start = device.allocate(4)
        for i in range(4):
            device.write_block(start + i, bytes([i]), "setup")
        pool = BufferPool(device, 4)
        pool.read_block(start, "r")  # now cached in the pool
        # A cache-resident block must count as satisfied, or the merge
        # prefetcher would mistake a hit for a full device window.
        assert pool.prefetch_blocks([start, start + 1], "r") == 2
        assert device.prefetched_blocks == 1


class _FakeReader:
    def __init__(self):
        self.block_index = -1


class _FakeRun:
    def __init__(self, run_id, nblocks):
        self.run_id = run_id
        self.block_ids = tuple(
            100 * run_id + i for i in range(nblocks)
        )


class _FakeTarget:
    """Records prefetch order; declines after ``budget`` issues."""

    prefetch_depth = 8
    prefetch_policy = None

    def __init__(self, budget=100):
        self.budget = budget
        self.issued = []

    def prefetch_blocks(self, block_ids, category, stream=None):
        count = 0
        for block_id in block_ids:
            if self.budget <= 0:
                break
            self.budget -= 1
            self.issued.append(block_id)
            count += 1
        return count


class TestMergePrefetcher:
    def _setup(self, policy, budget=100, nruns=3):
        target = _FakeTarget(budget)
        runs = [_FakeRun(i, 4) for i in range(nruns)]
        readers = [_FakeReader() for _ in range(nruns)]
        prefetcher = MergePrefetcher(
            target, runs, readers,
            category="merge_read",
            streams=[f"merge_read:run{i}" for i in range(nruns)],
            policy=policy,
        )
        return target, runs, readers, prefetcher

    def test_forecast_serves_smallest_head_first(self):
        target, runs, _readers, prefetcher = self._setup(
            "forecast", budget=3
        )
        prefetcher.note_head(0, b"mango")
        prefetcher.note_head(1, b"apple")
        prefetcher.note_head(2, b"fig")
        prefetcher.pump()
        # One block per run (lookahead is 1), smallest head key first.
        assert target.issued == [
            runs[1].block_ids[0],
            runs[2].block_ids[0],
            runs[0].block_ids[0],
        ]

    def test_unknown_head_outranks_forecast(self):
        target, runs, _readers, prefetcher = self._setup(
            "forecast", budget=1
        )
        prefetcher.note_head(0, b"aaa")
        # Run 2 has not been pulled yet: it is demanded next, so it wins
        # the only slot even against the smallest known key.
        prefetcher.pump()
        assert target.issued == [runs[1].block_ids[0]]

    def test_round_robin_cycles(self):
        target, runs, _readers, prefetcher = self._setup(
            "round-robin", budget=3
        )
        for index in range(3):
            prefetcher.note_head(index, b"zzz")
        prefetcher.pump()
        assert target.issued == [
            runs[0].block_ids[0],
            runs[1].block_ids[0],
            runs[2].block_ids[0],
        ]

    def test_exhausted_runs_are_skipped(self):
        target, runs, _readers, prefetcher = self._setup(
            "forecast", budget=10
        )
        for index in range(3):
            prefetcher.note_head(index, bytes([index]))
        prefetcher.exhausted(1)
        prefetcher.pump()
        assert runs[1].block_ids[0] not in target.issued

    def test_lookahead_limited_to_one_block(self):
        target, runs, readers, prefetcher = self._setup(
            "forecast", budget=100
        )
        for index in range(3):
            prefetcher.note_head(index, bytes([index]))
        prefetcher.pump()
        prefetcher.pump()  # no reader progress: nothing more to issue
        assert len(target.issued) == 3
        readers[0].block_index = 0  # run 0 advanced one block
        prefetcher.pump()
        assert target.issued.count(runs[0].block_ids[1]) == 1
        assert len(target.issued) == 4

    def test_supports_prefetch(self):
        assert not supports_prefetch(BlockDevice(block_size=BLOCK))
        assert not supports_prefetch(
            StripedDevice(disks=2, block_size=BLOCK)
        )
        assert supports_prefetch(
            StripedDevice(disks=2, block_size=BLOCK, prefetch_depth=1)
        )


class TestEndToEndMergePrefetch:
    def test_counters_identical_and_stall_reduced(self):
        factory = lambda: level_fanout_events([9, 8, 7], seed=5,
                                              pad_bytes=24)
        config = PlanConfig(
            algorithm="merge_sort", memory_blocks=12,
            merge_kernel="loser-tree", disks=4,
        )
        off = run_config(factory, config)
        forecast = run_config(factory, replace(config, prefetch_depth=8))
        assert forecast.total_ios == off.total_ios
        assert forecast.detail["breakdown"] == off.detail["breakdown"]
        assert forecast.simulated_seconds == off.simulated_seconds
        assert forecast.detail["stall_seconds"] < (
            off.detail["stall_seconds"]
        )

    def test_bench_rows_carry_parallel_columns(self):
        factory = lambda: level_fanout_events([6, 5, 4], seed=3,
                                              pad_bytes=24)
        serial = run_config(factory, PlanConfig(memory_blocks=12))
        assert serial.detail["disks"] == 1
        assert serial.detail["prefetch_depth"] == 0
        assert serial.detail["stall_seconds"] == 0.0
        assert serial.detail["disk_utilization"] == {}
        striped = run_config(factory, PlanConfig(memory_blocks=12, disks=2))
        assert striped.detail["disks"] == 2
        assert striped.detail["disk_seconds"] < serial.detail[
            "disk_seconds"
        ]
        assert striped.detail["overlap_seconds"] > 0
        assert set(striped.detail["disk_utilization"]) == {"0", "1"}
