"""Budget-charged LRU buffer pool between the algorithms and the device.

The paper's experimental substrate (TPIE over Linux) always ran behind a
buffer manager and OS readahead; the pure model in :mod:`repro.io.device`
charges every block access.  :class:`BufferPool` closes that gap without
giving up the model's honesty: the pool's capacity is *reserved from the
same* :class:`~repro.io.budget.MemoryBudget` that grants the stacks and the
subtree sorter their blocks, so cached blocks are never memory the model
does not account for.

The pool is a :class:`~repro.io.device.DeviceLayer`: it overrides the
read/write/prefetch primitives and ``free_blocks`` and forwards the rest of
the device surface, so every component that takes a
:class:`~repro.io.device.BlockDevice` (stacks, run readers and writers)
works unchanged against a pool.

Semantics:

* **read hit**: served from pool memory, *no device I/O*; counted as a
  ``cache_hit`` under the access's category.
* **read miss**: goes to the device exactly as today (one counted read)
  and the block enters the pool; counted as a ``cache_miss``.
* **write**: write-back.  The block is updated (or inserted) in the pool
  and marked dirty; no device I/O happens until the block is evicted,
  flushed, or the pool detaches.  A dirty block freed before eviction is
  never written at all - the stack page-out/page-in/free cycle becomes
  free once it fits in the pool.
* **eviction**: the least-recently-used unpinned block is displaced
  (counted as a ``cache_eviction``); if dirty, its contents go to the
  device as an ordinary counted write under the category that dirtied it.
* **pin**: pinned blocks are never evicted - the output phase pins the
  block holding each saved resume offset so the Lemma 4.12 re-read is a
  guaranteed hit.  Pinning a resident block always succeeds (even in a
  capacity-1 pool); when every entry is pinned, new blocks simply bypass
  the cache (reads go uncached, writes go write-through) instead of the
  pin being refused.  Pins are a strict contract: :meth:`unpin` of a
  block that is not resident or not pinned raises
  :class:`~repro.errors.DeviceError`, as does :meth:`free_blocks` of a
  still-pinned block - silent tolerance here masked real pin leaks.

A pool of capacity 0 is a pure pass-through: every call forwards to the
device and no cache counters move, which keeps the paper's I/O counts
bit-identical to an unpooled run.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import DeviceError
from .budget import MemoryBudget, Reservation
from .device import BlockDevice, DeviceLayer

#: Readahead extent (in blocks) used when ``readahead`` is left automatic:
#: deep enough to amortize per-call overhead, small enough not to thrash
#: small pools.
DEFAULT_READAHEAD = 8


class _Entry:
    """One cached block."""

    __slots__ = ("data", "category", "stream", "dirty", "pins")

    def __init__(
        self,
        data: bytes,
        category: str,
        dirty: bool,
        stream: str | None = None,
    ):
        self.data = data
        self.category = category
        self.stream = stream
        self.dirty = dirty
        self.pins = 0


class BufferPool(DeviceLayer):
    """An LRU, pin-aware, write-back block cache charged to the budget.

    Args:
        device: the underlying block device.
        capacity_blocks: pool size in blocks; 0 disables caching entirely.
        budget: when given, ``capacity_blocks`` are reserved from it (and
            released on :meth:`close`); reserving more than is free raises
            :class:`~repro.errors.MemoryBudgetExceeded`.
        owner: reservation owner name shown in budget errors.
        readahead: blocks a sequential reader should prefetch through this
            pool per extent; ``None`` picks ``DEFAULT_READAHEAD`` capped to
            half the capacity.  Purely advisory - readers consult it.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; write-back
            flushes open a ``pool-flush`` span so deferred device writes
            are attributed to the phase that triggered the flush.
    """

    def __init__(
        self,
        device: BlockDevice,
        capacity_blocks: int,
        budget: MemoryBudget | None = None,
        owner: str = "buffer-pool",
        readahead: int | None = None,
        tracer=None,
    ):
        if capacity_blocks < 0:
            raise DeviceError(
                f"buffer pool capacity cannot be negative: {capacity_blocks}"
            )
        super().__init__(device)
        self.capacity = capacity_blocks
        self._reservation: Reservation | None = None
        if budget is not None:
            self._reservation = budget.reserve(capacity_blocks, owner)
        if readahead is None:
            readahead = min(DEFAULT_READAHEAD, max(1, capacity_blocks // 2))
        self.readahead = readahead if capacity_blocks else 0
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._pinned = 0
        self._closed = False
        self._tracer = tracer

    # -- prefetch and write-behind -----------------------------------------

    def prefetch_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> int:
        """Prefetch through the pool: cached blocks count as already issued.

        A block resident in the pool needs no device prefetch (the demand
        read will be a hit), so it is reported as satisfied rather than
        making the prefetcher believe the device window is full.
        """
        block_ids = list(block_ids)
        if self.capacity:
            uncached = [b for b in block_ids if b not in self._entries]
        else:
            uncached = block_ids
        satisfied = len(block_ids) - len(uncached)
        if not uncached:
            return satisfied
        return satisfied + self._device.prefetch_blocks(
            uncached, category, stream
        )

    def write_block_behind(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Write-behind through the pool.

        With caching on, the pool's write-back already defers the device
        write, which is a stronger form of write-behind; a capacity-0
        (pass-through) pool forwards to the device's pipeline.
        """
        if self.capacity == 0:
            self._device.write_block_behind(block_id, data, category, stream)
            return
        self._check([block_id], [data], "write")
        self._write_cached(block_id, data, category, stream)

    # -- observers ---------------------------------------------------------

    @property
    def cached_blocks(self) -> int:
        return len(self._entries)

    @property
    def dirty_blocks(self) -> int:
        return sum(1 for e in self._entries.values() if e.dirty)

    @property
    def pinned_blocks(self) -> int:
        return self._pinned

    def assert_releasable(self) -> None:
        """Raise unless the pool's memory can be safely taken away.

        A pinned block is in active use by some caller (the pin ledger is
        strict - see :meth:`pin`), so tearing the pool down under it would
        corrupt in-flight work.  Lease release calls this before closing
        the pool.
        """
        if self._pinned:
            raise DeviceError(
                f"buffer pool still has {self._pinned} pinned "
                f"block(s); release them before tearing the pool down"
            )

    def is_cached(self, block_id: int) -> bool:
        return block_id in self._entries

    # -- access ------------------------------------------------------------

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: hits from the pool, misses fetched per extent."""
        block_ids = list(block_ids)
        if self.capacity == 0:
            return self._device.read_blocks(block_ids, category, stream=stream)
        found: dict[int, bytes] = {}
        missing: list[int] = []
        for block_id in block_ids:
            if block_id in found:
                continue
            entry = self._entries.get(block_id)
            if entry is not None:
                found[block_id] = entry.data
            else:
                missing.append(block_id)
        if missing:
            fetched = self._device.read_blocks(missing, category, stream=stream)
        # The device served the misses: only now do the hits count and
        # move up the LRU order, so a refused read moves nothing.
        if found:
            for block_id in found:
                self._entries.move_to_end(block_id)
            self.stats.record_cache_hit(category, len(found))
        if missing:
            self.stats.record_cache_miss(category, len(missing))
            for block_id, data in zip(missing, fetched):
                found[block_id] = data
                self._insert(
                    block_id, data, category, dirty=False, stream=stream
                )
        return [found[block_id] for block_id in block_ids]

    def write_blocks(
        self,
        block_ids,
        datas,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        block_ids = list(block_ids)
        datas = list(datas)
        self._check(block_ids, datas, "write")
        if self.capacity == 0:
            self._device.write_blocks(block_ids, datas, category, stream)
            return
        for block_id, data in zip(block_ids, datas):
            self._write_cached(block_id, data, category, stream)

    def _write_cached(
        self,
        block_id: int,
        data: bytes,
        category: str,
        stream: str | None,
    ) -> None:
        """Cache one checked block, dirty (write-back; see module docs)."""
        data = bytes(data)
        entry = self._entries.get(block_id)
        if entry is not None:
            entry.data = data
            entry.category = category
            entry.stream = stream
            entry.dirty = True
            self._entries.move_to_end(block_id)
            self.stats.record_cache_hit(category)
            return
        self.stats.record_cache_miss(category)
        if not self._insert(block_id, data, category, dirty=True, stream=stream):
            # Nothing evictable (everything pinned): write through, under
            # the caller's stream so sequentiality is judged correctly.
            self._device.write_block(block_id, data, category, stream)

    def free_blocks(self, block_ids) -> None:
        """Drop freed blocks from pool and device; dirty data is discarded
        unwritten (the blocks are dead - this is the write the pool saves).

        Freeing a still-pinned block raises
        :class:`~repro.errors.DeviceError` - the pin says someone still
        needs the block, so the free is a bug, not a cleanup.
        """
        block_ids = list(block_ids)
        for block_id in block_ids:
            entry = self._entries.get(block_id)
            if entry is not None and entry.pins:
                raise DeviceError(
                    f"free of pinned block {block_id} "
                    f"({entry.pins} pin(s) outstanding)"
                )
        holding = self._device.holding
        for block_id in block_ids:
            entry = self._entries.pop(block_id, None)
            if entry is not None and entry.dirty and holding:
                # The device never saw this dirty data (the free elides
                # the write); stash it so a recovery restart can still
                # restore the block's contents.
                self._device.stash_block(block_id, entry.data)
        self._device.free_blocks(block_ids)

    # -- pinning -----------------------------------------------------------

    def pin(self, block_id: int) -> bool:
        """Protect a cached block from eviction; False if not resident.

        Pinning a resident block always succeeds - even in a capacity-1
        pool, and even when it pins the last unpinned entry.  A fully
        pinned pool still makes progress: :meth:`_insert` reports the
        cache as unavailable and accesses fall back to the device (reads
        uncached, writes write-through).
        """
        entry = self._entries.get(block_id)
        if entry is None:
            return False
        if not entry.pins:
            self._pinned += 1
        entry.pins += 1
        return True

    def unpin(self, block_id: int) -> None:
        """Release one pin; raises on a block that is not pinned.

        Unpinning a block that is not resident (or resident but unpinned)
        raises :class:`~repro.errors.DeviceError`: a silently ignored
        unpin means some pin() call leaked, and leaked pins quietly shrink
        the evictable pool.
        """
        entry = self._entries.get(block_id)
        if entry is None:
            raise DeviceError(f"unpin of non-resident block {block_id}")
        if not entry.pins:
            raise DeviceError(f"unpin of unpinned block {block_id}")
        entry.pins -= 1
        if not entry.pins:
            self._pinned -= 1

    # -- write-back --------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty block back to the device.

        Dirty blocks are flushed in block-id order, grouped per
        (category, stream) into vectored writes, so a sequentially
        written run flushes as sequential device I/O judged under the
        stream that originally wrote it.
        """
        dirty = sorted(
            (block_id, entry)
            for block_id, entry in self._entries.items()
            if entry.dirty
        )
        if not dirty:
            return
        if self._tracer is not None and not self._tracer.finished:
            with self._tracer.span("pool-flush", dirty=len(dirty)):
                self._write_back(dirty)
        else:
            self._write_back(dirty)

    def _write_back(self, dirty: list) -> None:
        index = 0
        while index < len(dirty):
            category = dirty[index][1].category
            stream = dirty[index][1].stream
            group_ids: list[int] = []
            group_data: list[bytes] = []
            while (
                index < len(dirty)
                and dirty[index][1].category == category
                and dirty[index][1].stream == stream
            ):
                block_id, entry = dirty[index]
                group_ids.append(block_id)
                group_data.append(entry.data)
                entry.dirty = False
                index += 1
            self._device.write_blocks(
                group_ids, group_data, category, stream=stream
            )

    def close(self) -> None:
        """Flush dirty blocks, drop the cache, release the reservation."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        self._entries.clear()
        self._pinned = 0
        if self._reservation is not None:
            self._reservation.release()

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _insert(
        self,
        block_id: int,
        data: bytes,
        category: str,
        dirty: bool,
        stream: str | None = None,
    ) -> bool:
        """Cache a block, evicting if full; False if nothing was evictable."""
        while len(self._entries) >= self.capacity:
            if not self._evict_one():
                return False
        entry = _Entry(data, category, dirty, stream=stream)
        self._entries[block_id] = entry
        return True

    def _evict_one(self) -> bool:
        for block_id, entry in self._entries.items():
            if entry.pins:
                continue
            del self._entries[block_id]
            self.stats.record_cache_eviction(entry.category)
            if entry.dirty:
                self._device.write_block(
                    block_id, entry.data, entry.category, stream=entry.stream
                )
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(capacity={self.capacity}, "
            f"cached={len(self._entries)}, dirty={self.dirty_blocks}, "
            f"pinned={self._pinned})"
        )
