"""Per-job resource leases carved from one shared pool.

The single-job engine treats its :class:`~repro.io.budget.MemoryBudget`,
:class:`~repro.io.bufferpool.BufferPool`, and device as ambient handles it
owns outright.  The service layer (:mod:`repro.service`) runs *many* jobs
against one machine, so those handles become a :class:`ResourceLease`:
a slice of the global :class:`ResourcePool` that a job holds from
admission to completion.

Design constraints, in order:

1. **Bit-identity.**  A job run under a lease must produce output, I/O
   counters, comparison counts, and traces bit-identical to the same job
   run solo with the same geometry.  Each lease therefore gets a *private*
   serial :class:`~repro.io.device.BlockDevice` (its own block-address
   space, so another tenant's allocations can never perturb this job's
   sequential/random classification), and contention is modeled at
   schedule time by replaying the lease's recorded cost events over the
   shared disks (:class:`~repro.io.parallel.DiskTimeline`).
2. **Exact tiling.**  The lease's :class:`TeeIOStats` mirrors every
   recorded counter into the pool's global :class:`IOStats`, so summing
   per-tenant snapshots reproduces the global totals componentwise.
3. **Safety.**  Memory comes from :meth:`MemoryBudget.carve`, so two
   leases can never claim the same block; releasing a lease with pinned
   buffer-pool blocks raises instead of silently dropping dirty data;
   releasing twice is a no-op, like :class:`~repro.io.budget.Reservation`.
"""

from __future__ import annotations

from ..errors import DeviceError
from .budget import CarvedBudget, MemoryBudget
from .device import BlockDevice
from .runs import RunStore
from .stats import CostModel, IOStats, StatsSnapshot


class TeeIOStats(IOStats):
    """IOStats that mirrors every record into a global accumulator.

    The tee also reports each recorded cost to an optional *listener* as
    ``(kind, seconds)`` events - ``kind`` is ``"io"`` (one block access,
    seconds = its seek+transfer service time) or ``"cpu"`` (comparisons,
    token work, or fault penalties).  The scheduler replays exactly these
    events over the shared disks; consecutive CPU events are coalesced by
    the listener side, not here.
    """

    def __init__(
        self,
        mirror: IOStats,
        cost_model: CostModel | None = None,
        listener=None,
    ):
        super().__init__(cost_model or mirror.cost_model)
        self.mirror = mirror
        self.listener = listener

    # -- event helpers ---------------------------------------------------

    def _io_events(self, count: int, sequential_count: int) -> None:
        if self.listener is None or count == 0:
            return
        seq = self.cost_model.access_seconds(True)
        rnd = self.cost_model.access_seconds(False)
        for _ in range(sequential_count):
            self.listener("io", seq)
        for _ in range(count - sequential_count):
            self.listener("io", rnd)

    def _cpu_event(self, seconds: float) -> None:
        if self.listener is not None and seconds:
            self.listener("cpu", seconds)

    # -- mirrored recording ---------------------------------------------

    def record_reads(
        self, category: str, count: int, sequential_count: int
    ) -> None:
        super().record_reads(category, count, sequential_count)
        self.mirror.record_reads(category, count, sequential_count)
        self._io_events(count, sequential_count)

    def record_writes(
        self, category: str, count: int, sequential_count: int
    ) -> None:
        super().record_writes(category, count, sequential_count)
        self.mirror.record_writes(category, count, sequential_count)
        self._io_events(count, sequential_count)

    def record_cache_hit(self, category: str, count: int = 1) -> None:
        super().record_cache_hit(category, count)
        self.mirror.record_cache_hit(category, count)

    def record_cache_miss(self, category: str, count: int = 1) -> None:
        super().record_cache_miss(category, count)
        self.mirror.record_cache_miss(category, count)

    def record_cache_eviction(self, category: str, count: int = 1) -> None:
        super().record_cache_eviction(category, count)
        self.mirror.record_cache_eviction(category, count)

    def record_comparisons(self, count: int) -> None:
        super().record_comparisons(count)
        self.mirror.record_comparisons(count)
        self._cpu_event(count * self.cost_model.compare_seconds)

    def record_merge_comparisons(self, count: int) -> None:
        super().record_merge_comparisons(count)
        self.mirror.record_merge_comparisons(count)
        self._cpu_event(count * self.cost_model.compare_seconds)

    def record_tokens(self, count: int) -> None:
        super().record_tokens(count)
        self.mirror.record_tokens(count)
        self._cpu_event(count * self.cost_model.token_seconds)

    def record_penalty(self, seconds: float) -> None:
        super().record_penalty(seconds)
        self.mirror.record_penalty(seconds)
        self._cpu_event(seconds)

    def record_compression(self, raw_bytes: int, stored_bytes: int) -> None:
        super().record_compression(raw_bytes, stored_bytes)
        self.mirror.record_compression(raw_bytes, stored_bytes)
        self._cpu_event(self.cost_model.compress_seconds(raw_bytes, 0))

    def record_decompression(
        self, stored_bytes: int, raw_bytes: int
    ) -> None:
        super().record_decompression(stored_bytes, raw_bytes)
        self.mirror.record_decompression(stored_bytes, raw_bytes)
        self._cpu_event(self.cost_model.compress_seconds(0, raw_bytes))

    def record_disk_busy(self, disk: int, seconds: float) -> None:
        super().record_disk_busy(disk, seconds)
        self.mirror.record_disk_busy(disk, seconds)

    def record_stall(self, seconds: float) -> None:
        super().record_stall(seconds)
        self.mirror.record_stall(seconds)


class ResourceLease:
    """One job's slice of the shared pool: memory, device, stats, store.

    Built by :meth:`ResourcePool.lease`.  The lease owns a
    :class:`CarvedBudget` of ``memory_blocks`` blocks (cache included -
    the sorters reserve their buffer pool out of it, exactly as they
    reserve from a private budget today) and a private serial device whose
    :class:`TeeIOStats` mirrors into the pool's global stats.

    ``events`` accumulates the job's cost events - ``["io", seconds]`` per
    block access and coalesced ``["cpu", seconds]`` entries - in exactly
    the order they were charged; the scheduler replays them over the
    shared disks to interleave jobs at block granularity.
    """

    def __init__(
        self,
        pool: "ResourcePool",
        memory_blocks: int,
        tenant: str = "tenant",
        fault_plan=None,
        retries: int = 0,
        trace: bool = True,
    ):
        self.pool = pool
        self.tenant = tenant
        self.memory_blocks = memory_blocks
        self.budget: CarvedBudget = pool.budget.carve(
            memory_blocks, owner=f"lease:{tenant}"
        )
        self.events: list[list] = []
        self.stats = TeeIOStats(
            pool.stats, cost_model=pool.cost_model,
            listener=self._record_event,
        )
        base = BlockDevice(
            block_size=pool.block_size, cost_model=pool.cost_model
        )
        base.stats = self.stats
        self.base_device = base
        if trace:
            from ..obs.tracer import Tracer

            self.tracer = Tracer(self.stats)
        else:
            self.tracer = None
        if fault_plan is not None:
            from ..faults import build_faulty_device

            top, self.injector, self.retrier = build_faulty_device(
                base, fault_plan, retries=retries, tracer=self.tracer
            )
        else:
            top, self.injector, self.retrier = base, None, None
        self.device = top
        self.store = RunStore(top)
        self._released = False

    def _record_event(self, kind: str, seconds: float) -> None:
        if kind == "cpu" and self.events and self.events[-1][0] == "cpu":
            self.events[-1][1] += seconds
        else:
            self.events.append([kind, seconds])

    @property
    def released(self) -> bool:
        return self._released

    def snapshot(self) -> StatsSnapshot:
        """The tenant's own counters (a slice of the global totals)."""
        return self.stats.snapshot()

    def release(self) -> None:
        """Hand the carved memory back to the pool (idempotent).

        Raises :class:`~repro.errors.DeviceError` if a buffer pool is
        still attached to the lease's store with pinned blocks - a pinned
        block is in active use, so releasing the memory under it would be
        a correctness bug, not a cleanup.
        """
        if self._released:
            return
        attached = self.store.pool
        if attached is not None:
            attached.assert_releasable()
            self.store.detach_pool()
        self.budget.close()
        self._released = True

    def __enter__(self) -> "ResourceLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "held"
        return (
            f"ResourceLease({self.tenant!r}, {self.memory_blocks} blocks, "
            f"{state})"
        )


class ResourcePool:
    """The machine: one global memory budget, stats ledger, and disk farm.

    Leases are carved from here.  ``stats`` accumulates the mirrored
    counters of every tenant, so ``pool.stats`` totals always equal the
    componentwise sum of the tenants' :meth:`ResourceLease.snapshot`
    values - the per-tenant isolation invariant the service tests pin.
    """

    def __init__(
        self,
        memory_blocks: int,
        block_size: int = 4096,
        disks: int = 1,
        cost_model: CostModel | None = None,
    ):
        if disks < 1:
            raise DeviceError(f"need at least one disk, got {disks}")
        self.budget = MemoryBudget(memory_blocks)
        self.cost_model = cost_model or CostModel()
        self.stats = IOStats(self.cost_model)
        self.block_size = block_size
        self.disks = disks

    @property
    def total_blocks(self) -> int:
        return self.budget.total_blocks

    @property
    def available_blocks(self) -> int:
        return self.budget.available_blocks

    def lease(
        self,
        memory_blocks: int,
        tenant: str = "tenant",
        fault_plan=None,
        retries: int = 0,
        trace: bool = True,
    ) -> ResourceLease:
        """Carve a lease; raises MemoryBudgetExceeded if it cannot fit."""
        return ResourceLease(
            self,
            memory_blocks,
            tenant=tenant,
            fault_plan=fault_plan,
            retries=retries,
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResourcePool(memory={self.budget.reserved_blocks}"
            f"/{self.total_blocks} blocks, disks={self.disks})"
        )
