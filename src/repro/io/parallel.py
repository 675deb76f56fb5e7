"""Parallel-disk striping with an overlapped I/O pipeline in simulated time.

NEXSORT's analysis (and :class:`~repro.io.device.BlockDevice`) models a
single serial disk: every access costs seek + transfer on one clock, and a
phase's simulated time is the *sum* of its I/O and CPU charges.  This module
grows the simulated hardware a parallelism dimension, after the classic
parallel-disk model (PDM): a :class:`StripedDevice` round-robin-stripes the
global block space over ``D`` inner :class:`~repro.io.device.BlockDevice`
shards (block ``g`` lives on disk ``g % D`` at local offset ``g // D``),
each with its own seek/transfer clock and :class:`~repro.io.stats.IOStats`.

On top of the striping sits an asynchronous scheduler in simulated time:

* every disk has a *free-at* clock; requests queue behind whatever the disk
  is already servicing,
* demand reads stall the consumer until the block's completion time,
* :meth:`StripedDevice.write_block_behind` queues writes and only stalls
  when more than :data:`WRITE_BUFFERS` writes are still in flight for the
  same stream (double-buffered write-behind - the run writers use this so
  run output overlaps with compute and reads),
* :meth:`StripedDevice.prefetch_blocks` issues reads ahead of demand into a
  bounded window of ``prefetch_depth`` slots; a later demand read of a
  prefetched block costs *no new counters* (it was charged at issue time)
  and stalls only for whatever service time has not yet elapsed.

Crucially, the pipeline changes *when* work happens, never *how much*:
per-category counters, ``model_seconds``, and traces with ``D=1`` and
prefetch off are bit-identical to the serial device.  Parallelism shows up
in the new additive metrics - per-disk busy seconds (``disk_seconds`` is
the busiest disk, i.e. the phase's disk time under PDM), ``overlap_seconds``
(serial I/O time hidden by striping), and ``stall_seconds`` (time the
consumer actually waited).

:class:`MergePrefetcher` implements the forecast rule for the merge path:
during a k-way merge each run's head merge key - the key the merge
kernel computed for the run's next record - reveals its current head, and
the run with the *smallest* head key is the one that will drain its buffer
soonest - so its next block is fetched first (Knuth's
forecasting, vol. 3 §5.4.9).  A round-robin policy is kept as the naive
baseline the benchmark compares against.
"""

from __future__ import annotations

from collections import deque

from ..errors import DeviceError
from .device import BlockDevice, DEFAULT_BLOCK_SIZE, PREFETCH_POLICIES
from .stats import CostModel, classify_extent

#: Write-behind depth per stream: one block being filled by the writer plus
#: this many in flight before the writer must wait (double buffering).
WRITE_BUFFERS = 2


class StripedDevice(BlockDevice):
    """``D`` disks behind one block address space, with overlapped I/O.

    The device *is a* :class:`~repro.io.device.BlockDevice` - allocation,
    recovery holds, and the whole accounting surface behave identically -
    but storage and service time are distributed over ``disks`` inner
    shard devices.  With ``disks=1`` and ``prefetch_depth=0`` every
    counter, simulated second, and trace byte matches the serial device.

    Args:
        disks: number of member disks ``D``.
        block_size: bytes per block (same meaning as the serial device).
        cost_model: per-disk seek/transfer parameters.
        prefetch_depth: maximum blocks held in the prefetch window; 0
            disables prefetching entirely.
        prefetch_policy: advisory scheduling policy consumed by
            :class:`MergePrefetcher` (``forecast`` or ``round-robin``).
    """

    def __init__(
        self,
        disks: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel | None = None,
        prefetch_depth: int = 0,
        prefetch_policy: str = "forecast",
    ):
        if disks < 1:
            raise DeviceError(f"need at least one disk, got {disks}")
        if prefetch_depth < 0:
            raise DeviceError(
                f"prefetch_depth cannot be negative: {prefetch_depth}"
            )
        if prefetch_policy not in PREFETCH_POLICIES:
            raise DeviceError(
                f"unknown prefetch policy {prefetch_policy!r}; "
                f"expected one of {PREFETCH_POLICIES}"
            )
        super().__init__(block_size=block_size, cost_model=cost_model)
        self.disks = disks
        self.prefetch_depth = prefetch_depth
        self.prefetch_policy = prefetch_policy
        self._shards = [
            BlockDevice(block_size=block_size, cost_model=cost_model)
            for _ in range(disks)
        ]
        # -- simulated-time pipeline state --------------------------------
        # The consumer's clock.  CPU charges recorded on self.stats advance
        # it lazily (_advance_cpu), so compute performed between I/Os
        # genuinely overlaps with in-flight requests.
        self._now = 0.0
        self._cpu_seen = 0.0
        # Per-disk completion time of the last queued request.
        self._free_at = [0.0] * disks
        # Prefetch window: global block id -> (data, completion time).
        self._prefetched: dict[int, tuple[bytes, float]] = {}
        # Write-behind: stream key -> completion times of in-flight writes.
        self._write_queues: dict[str, deque[float]] = {}

    # -- address mapping ---------------------------------------------------

    def disk_of(self, block_id: int) -> int:
        """Member disk holding global block ``block_id``."""
        return block_id % self.disks

    def _locate(self, block_id: int) -> tuple[int, int]:
        """Map a global block id to ``(disk, local block id)``."""
        return block_id % self.disks, block_id // self.disks

    @property
    def shards(self) -> list[BlockDevice]:
        """The member disks (read-only use: per-disk stats inspection)."""
        return list(self._shards)

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        start = super().allocate(count, pool)
        self._sync_shard_bounds()
        return start

    def _sync_shard_bounds(self) -> None:
        # Disk d holds locals for globals d, d+D, d+2D, ... below the
        # global allocation frontier.
        total = self._next_block
        for disk, shard in enumerate(self._shards):
            shard._next_block = max(
                0, (total - disk + self.disks - 1) // self.disks
            )

    @property
    def occupied_blocks(self) -> int:
        return sum(shard.occupied_blocks for shard in self._shards)

    # -- simulated-time pipeline -------------------------------------------

    def _advance_cpu(self) -> None:
        """Fold CPU/penalty charges since the last event into the clock."""
        seen = self.stats.cpu_seconds() + self.stats.penalty_seconds
        if seen > self._cpu_seen:
            self._now += seen - self._cpu_seen
            self._cpu_seen = seen

    def _service(self, disk: int, cost: float) -> float:
        """Queue a request on ``disk``; returns its completion time."""
        start = max(self._free_at[disk], self._now)
        done = start + cost
        self._free_at[disk] = done
        return done

    def _stall_until(self, done: float) -> None:
        """Block the consumer until ``done``; the wait is recorded stall."""
        if done > self._now:
            self.stats.record_stall(done - self._now)
            self._now = done

    def _busy(self, disk: int, count: int, sequential: int) -> float:
        """Charge ``disk`` the service time of one extent; returns it."""
        cost = self.stats.cost_model.io_seconds(
            sequential, count - sequential
        )
        self.stats.record_disk_busy(disk, cost)
        return cost

    @property
    def pipeline_seconds(self) -> float:
        """Simulated time until every queued request has completed."""
        drained = max(self._free_at) if self._free_at else self._now
        for queue in self._write_queues.values():
            if queue:
                drained = max(drained, queue[-1])
        return max(self._now, drained)

    def disk_utilization(self) -> list[float]:
        """Busy fraction of each member disk relative to the busiest."""
        busy = [
            self.stats.disk_busy.get(disk, 0.0)
            for disk in range(self.disks)
        ]
        peak = max(busy)
        if peak <= 0:
            return [0.0] * self.disks
        return [b / peak for b in busy]

    # -- access ------------------------------------------------------------

    def _read_extent(
        self, disk: int, locals_: list[int], category: str, key: str
    ) -> tuple[list[bytes], float]:
        """Queue one disk's share of a read; returns (data, completion)."""
        shard = self._shards[disk]
        sequential, _ = classify_extent(
            locals_, shard._last_by_category.get(key)
        )
        datas = shard.read_blocks(locals_, category, key)
        self.stats.record_reads(category, len(locals_), sequential)
        return datas, self._service(
            disk, self._busy(disk, len(locals_), sequential)
        )

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: per-disk extents are serviced concurrently.

        Counters match the serial device's: each disk judges its
        sub-sequence of the extent against its own last access, so ``D=1``
        is bit-identical to the serial device.  A prefetched block costs
        no new counters and stalls only for its remaining service time.
        The consumer stalls until the last involved disk completes.
        """
        block_ids = list(block_ids)
        if not block_ids:
            return []
        found = self._fetch(block_ids)
        if None in found:
            self._check(block_ids, found, "read")
        key = stream or category
        self._advance_cpu()
        out: list[bytes | None] = [None] * len(block_ids)
        per_disk: dict[int, list[tuple[int, int]]] = {}
        done_times: list[float] = []
        consumed: set[int] = set()
        for position, block_id in enumerate(block_ids):
            if block_id in self._prefetched and block_id not in consumed:
                data, done = self._prefetched.pop(block_id)
                consumed.add(block_id)
                out[position] = data
                done_times.append(done)
                continue
            disk, local = self._locate(block_id)
            per_disk.setdefault(disk, []).append((position, local))
        for disk, entries in per_disk.items():
            datas, done = self._read_extent(
                disk, [local for _, local in entries], category, key
            )
            for (position, _), data in zip(entries, datas):
                out[position] = data
            done_times.append(done)
        self._stall_until(max(done_times))
        return out

    def write_blocks(
        self,
        block_ids,
        datas,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Vectored synchronous write; per-disk extents run concurrently."""
        done_times = self._submit_writes(block_ids, datas, category, stream)
        if done_times:
            self._stall_until(max(done_times))

    def write_block_behind(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Queue a write; wait only when the stream's buffers are full.

        Models double-buffered run output: the writer owns
        :data:`WRITE_BUFFERS` in-flight slots per stream and stalls only
        when submitting a write while all slots are still busy.
        """
        key = stream or category
        queue = self._write_queues.setdefault(key, deque())
        self._advance_cpu()
        while queue and queue[0] <= self._now:
            queue.popleft()
        if len(queue) >= WRITE_BUFFERS:
            self._stall_until(queue.popleft())
            while queue and queue[0] <= self._now:
                queue.popleft()
        (done,) = self._submit_writes((block_id,), (data,), category, stream)
        queue.append(done)

    def _submit_writes(
        self,
        block_ids,
        datas,
        category: str,
        stream: str | None,
    ) -> list[float]:
        """Queue a vectored write per disk; returns completion times."""
        block_ids = list(block_ids)
        datas = list(datas)
        self._check(block_ids, datas, "write")
        if not block_ids:
            return []
        key = stream or category
        self._advance_cpu()
        per_disk: dict[int, tuple[list[int], list[bytes]]] = {}
        for block_id, data in zip(block_ids, datas):
            self._prefetched.pop(block_id, None)
            disk, local = self._locate(block_id)
            locals_, payloads = per_disk.setdefault(disk, ([], []))
            locals_.append(local)
            payloads.append(data)
        done_times = []
        for disk, (locals_, payloads) in per_disk.items():
            shard = self._shards[disk]
            sequential, _ = classify_extent(
                locals_, shard._last_by_category.get(key)
            )
            shard.write_blocks(locals_, payloads, category, key)
            self.stats.record_writes(category, len(locals_), sequential)
            done_times.append(
                self._service(
                    disk, self._busy(disk, len(locals_), sequential)
                )
            )
        return done_times

    # -- prefetch ----------------------------------------------------------

    def prefetch_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> int:
        """Issue asynchronous reads into the prefetch window.

        Blocks are charged (counters and disk busy time) at issue time,
        exactly as a demand read with the same stream key would be - so a
        run consumed through prefetch produces identical counters to one
        consumed by demand reads alone.  Returns how many blocks were
        issued; the window declining (already full, or already prefetched)
        is not an error.
        """
        if not self.prefetch_depth:
            return 0
        key = stream or category
        issued = 0
        for block_id in block_ids:
            if block_id in self._prefetched:
                continue
            if len(self._prefetched) >= self.prefetch_depth:
                break
            found = self._fetch([block_id])
            if None in found:
                self._check([block_id], found, "read")
            disk, local = self._locate(block_id)
            self._advance_cpu()
            (data,), done = self._read_extent(disk, [local], category, key)
            self._prefetched[block_id] = (data, done)
            issued += 1
        return issued

    @property
    def prefetched_blocks(self) -> int:
        """Blocks currently sitting in the prefetch window."""
        return len(self._prefetched)

    # -- storage hooks -----------------------------------------------------
    #
    # Contents live on the shards; a prefetched block is still on its
    # shard, so the shards alone say what a block holds.

    def _fetch(self, block_ids: list) -> list:
        return [
            self._shards[disk]._fetch([local])[0]
            for disk, local in map(self._locate, block_ids)
        ]

    def _store(self, block_ids: list, datas: list) -> None:
        for block_id, data in zip(block_ids, datas):
            self._prefetched.pop(block_id, None)
            disk, local = self._locate(block_id)
            self._shards[disk]._store([local], [data])

    def _drop(self, block_ids: list) -> dict:
        dropped = {}
        per_disk: dict[int, list[int]] = {}
        for block_id in block_ids:
            self._prefetched.pop(block_id, None)
            disk, local = self._locate(block_id)
            (data,) = self._shards[disk]._fetch([local])
            if data is not None:
                dropped.setdefault(block_id, data)
            per_disk.setdefault(disk, []).append(local)
        for disk, locals_ in per_disk.items():
            self._shards[disk].free_blocks(locals_)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StripedDevice(disks={self.disks}, "
            f"block_size={self.block_size}, "
            f"allocated={self._next_block}, "
            f"ios={self.stats.total_ios})"
        )


class MergePrefetcher:
    """Forecast-driven block prefetch for one k-way merge.

    One prefetcher accompanies one merge pass.  The merge kernel reports
    each run's freshly pulled head key (:meth:`note_head`) - the same
    merge key the kernel compares, read from the record or its run's key
    sidecar - and the prefetcher keeps each live run at most one block ahead of its
    reader, choosing *which* runs get the device's limited prefetch slots:

    * ``forecast``: the run with the smallest head key drains first, so it
      is served first (Knuth's forecasting rule).
    * ``round-robin``: runs are served cyclically, ignoring the keys - the
      naive baseline.

    The prefetcher only ever *reorders* reads the merge was about to issue
    with the same stream keys, so counters and simulated model time are
    unchanged; the benefit is measured in reduced consumer stall.
    """

    def __init__(
        self,
        device,
        runs,
        readers,
        category: str,
        streams: list[str],
        policy: str | None = None,
    ):
        policy = policy or device.prefetch_policy
        if policy not in PREFETCH_POLICIES:
            policy = "forecast"
        self._device = device
        self._runs = list(runs)
        self._readers = list(readers)
        self._category = category
        self._streams = list(streams)
        self._policy = policy
        count = len(self._runs)
        self._head_keys: list = [None] * count
        self._alive = [True] * count
        # Highest block index already issued (demand or prefetch), per run.
        self._issued = [0] * count
        self._cycle = 0

    @property
    def policy(self) -> str:
        return self._policy

    def note_head(self, index: int, key) -> None:
        """Record run ``index``'s new head key after a pull."""
        self._head_keys[index] = key

    def exhausted(self, index: int) -> None:
        """Run ``index`` has no records left; stop prefetching for it."""
        self._alive[index] = False

    def _forecast_priority(self, index: int):
        """Sort key for forecast order; smallest head key drains first.

        A run the tree has not pulled from yet (head key still unknown)
        is about to be demanded, so it outranks every forecasted run.
        """
        key = self._head_keys[index]
        if key is None:
            return (0, index)
        return (1, key, index)

    def _needy(self) -> list[int]:
        """Runs whose next block is not yet issued (≤ one block lookahead)."""
        needy = []
        for index, run in enumerate(self._runs):
            if not self._alive[index]:
                continue
            reader = self._readers[index]
            nxt = max(self._issued[index], reader.block_index + 1)
            self._issued[index] = nxt
            if nxt < len(run.block_ids) and nxt <= reader.block_index + 1:
                needy.append(index)
        return needy

    def pump(self) -> int:
        """Issue prefetches while slots are free; returns blocks issued."""
        issued_total = 0
        while True:
            needy = self._needy()
            if not needy:
                return issued_total
            if self._policy == "forecast":
                order = sorted(needy, key=self._forecast_priority)
            else:
                order = sorted(
                    needy,
                    key=lambda i: (i - self._cycle) % len(self._runs),
                )
            progressed = False
            for index in order:
                run = self._runs[index]
                nxt = self._issued[index]
                issued = self._device.prefetch_blocks(
                    [run.block_ids[nxt]],
                    self._category,
                    stream=self._streams[index],
                )
                if not issued:
                    return issued_total
                self._issued[index] = nxt + 1
                issued_total += issued
                progressed = True
                if self._policy == "round-robin":
                    self._cycle = (index + 1) % len(self._runs)
            if not progressed:
                return issued_total


def supports_prefetch(io_target) -> bool:
    """True when ``io_target`` (a device or layer) can prefetch blocks."""
    return io_target.prefetch_depth > 0


class DiskTimeline:
    """Simulated-time ledger of ``D`` shared disks for the service layer.

    The scheduler (:mod:`repro.service.scheduler`) replays each tenant's
    recorded cost events over one of these: every I/O event is placed on
    the *least-loaded* disk (lowest free-at clock, lowest index on ties -
    deterministic), starting no earlier than the job's own clock and no
    earlier than the disk frees up.  CPU events never touch the timeline;
    they advance only the job's clock.

    This is the same PDM arithmetic :class:`StripedDevice` uses for one
    job's own stripes, lifted to *cross-job* contention: with D disks and
    enough concurrent jobs, aggregate I/O time approaches ``serial / D``,
    while a lone job still pays full service time for every access.
    """

    def __init__(self, disks: int = 1):
        if disks < 1:
            raise DeviceError(f"need at least one disk, got {disks}")
        self.disks = disks
        self.free_at = [0.0] * disks
        self.busy_seconds = [0.0] * disks

    def issue(self, now: float, service_seconds: float) -> float:
        """Schedule one access at or after ``now``; return completion time."""
        disk = min(range(self.disks), key=lambda d: (self.free_at[d], d))
        start = max(now, self.free_at[disk])
        end = start + service_seconds
        self.free_at[disk] = end
        self.busy_seconds[disk] += service_seconds
        return end

    @property
    def makespan(self) -> float:
        """Latest completion time scheduled so far."""
        return max(self.free_at)

    def utilization(self) -> dict[int, float]:
        """Per-disk busy time as a fraction of the makespan."""
        horizon = self.makespan
        if horizon <= 0:
            return {}
        return {
            disk: self.busy_seconds[disk] / horizon
            for disk in range(self.disks)
        }
