"""Lease lifecycle tests: carving, release edge cases, bit-identity.

The :class:`~repro.io.lease.ResourceLease` refactor replaces the ambient
``MemoryBudget``/``BlockDevice`` handles a sorter used to own with a
slice carved from one shared :class:`~repro.io.lease.ResourcePool`.
These tests pin the lifecycle edges (double release, release with
pinned cache blocks, exhaustion mid-phase) and the refactor's central
promise: a single job run on a lease is bit-identical - counters and
trace - to the same job on the old ambient handles.
"""

import pytest

from repro.baselines import external_merge_sort
from repro.core import nexsort
from repro.errors import (
    DeviceError,
    MemoryBudgetExceeded,
    SortSpecError,
)
from repro.generators import level_fanout_events
from repro.io import BlockDevice, BufferPool, ResourcePool, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.obs import Tracer
from repro.xml.document import Document

SPEC = SortSpec(default=ByAttribute("name"))
BLOCK_SIZE = 512


def make_document(store, seed=3):
    return Document.from_events(
        store, level_fanout_events([4, 4, 4], seed=seed)
    )


class TestCarving:
    def test_lease_carves_from_the_pool(self):
        pool = ResourcePool(20, block_size=BLOCK_SIZE)
        lease = pool.lease(8, tenant="a")
        assert pool.available_blocks == 12
        assert lease.budget.total_blocks == 8
        lease.release()
        assert pool.available_blocks == 20

    def test_lease_exhaustion(self):
        pool = ResourcePool(10, block_size=BLOCK_SIZE)
        pool.lease(8, tenant="a")
        with pytest.raises(MemoryBudgetExceeded, match="lease:a"):
            pool.lease(4, tenant="b")

    def test_empty_lease_rejected(self):
        pool = ResourcePool(10, block_size=BLOCK_SIZE)
        with pytest.raises(MemoryBudgetExceeded):
            pool.lease(0, tenant="a")

    def test_context_manager_releases(self):
        pool = ResourcePool(10, block_size=BLOCK_SIZE)
        with pool.lease(6, tenant="a"):
            assert pool.available_blocks == 4
        assert pool.available_blocks == 10


class TestReleaseEdges:
    def test_double_release_is_a_noop(self):
        pool = ResourcePool(10, block_size=BLOCK_SIZE)
        lease = pool.lease(6, tenant="a")
        lease.release()
        lease.release()
        assert lease.released
        assert pool.available_blocks == 10

    def test_release_with_pinned_blocks_raises(self):
        pool = ResourcePool(12, block_size=BLOCK_SIZE)
        lease = pool.lease(8, tenant="a")
        start = lease.device.allocate(4)
        lease.device.write_block(start, b"payload", "setup")
        cache = BufferPool(
            lease.device, 2, budget=lease.budget, owner="cache"
        )
        lease.store.attach_pool(cache)
        cache.read_block(start, "setup")
        assert cache.pin(start)
        with pytest.raises(DeviceError, match="pinned"):
            lease.release()
        # Unpinning makes the release legal and returns everything.
        cache.unpin(start)
        lease.release()
        assert pool.available_blocks == 12

    def test_exhaustion_mid_phase(self):
        # A squatter reservation inside the lease leaves the sorter too
        # little memory mid-run; the failure is the budget's, loud, not
        # a silent overdraw of the shared pool.
        pool = ResourcePool(24, block_size=BLOCK_SIZE)
        lease = pool.lease(24, tenant="a")
        lease.budget.reserve(22, "squatter")
        document = make_document(lease.store)
        with pytest.raises(MemoryBudgetExceeded):
            nexsort(document, SPEC, memory_blocks=24, lease=lease)
        lease.release()
        assert pool.available_blocks == 24

    def test_grant_must_match_sorter_config(self):
        pool = ResourcePool(24, block_size=BLOCK_SIZE)
        lease = pool.lease(12, tenant="a")
        document = make_document(lease.store)
        with pytest.raises(SortSpecError, match="lease grants 12"):
            nexsort(document, SPEC, memory_blocks=24, lease=lease)
        with pytest.raises(SortSpecError, match="lease grants 12"):
            external_merge_sort(document, SPEC, memory_blocks=24, lease=lease)
        assert lease.store.pool is None


class TestBitIdentity:
    def test_leased_run_matches_ambient_run(self):
        # Ambient: the pre-lease world - private device, private budget.
        device = BlockDevice(block_size=BLOCK_SIZE)
        tracer = Tracer(device.stats)
        store = RunStore(device)
        document = make_document(store)
        output, report = nexsort(
            document, SPEC, memory_blocks=16, tracer=tracer
        )
        ambient_text = output.to_string()
        ambient_counters = device.stats.snapshot().counter_totals()
        ambient_phases = tracer.finish().phase_breakdown()

        # Leased: same job, same grant, carved from a shared pool.
        pool = ResourcePool(32, block_size=BLOCK_SIZE)
        lease = pool.lease(16, tenant="a")
        leased_doc = make_document(lease.store)
        leased_out, _ = nexsort(
            leased_doc, SPEC, memory_blocks=16,
            tracer=lease.tracer, lease=lease,
        )
        assert leased_out.to_string() == ambient_text
        assert lease.snapshot().counter_totals() == ambient_counters
        assert lease.tracer.finish().phase_breakdown() == ambient_phases

    def test_tenant_counters_tile_to_pool_totals(self):
        pool = ResourcePool(40, block_size=BLOCK_SIZE)
        snapshots = []
        for index, tenant in enumerate(["a", "b"]):
            lease = pool.lease(16, tenant=tenant, trace=False)
            document = make_document(lease.store, seed=index)
            nexsort(document, SPEC, memory_blocks=16, lease=lease)
            snapshots.append(lease.snapshot())
            lease.release()
        total = snapshots[0].plus(snapshots[1])
        assert total.counter_totals() == (
            pool.stats.snapshot().counter_totals()
        )

    def test_events_cover_the_leases_elapsed_time(self):
        pool = ResourcePool(16, block_size=BLOCK_SIZE)
        lease = pool.lease(16, tenant="a", trace=False)
        document = make_document(lease.store)
        nexsort(document, SPEC, memory_blocks=16, lease=lease)
        replayed = sum(seconds for _kind, seconds in lease.events)
        assert replayed == pytest.approx(
            lease.snapshot().elapsed_seconds(), abs=1e-9
        )
