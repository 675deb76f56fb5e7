"""Simulated block device with exact I/O accounting.

This module stands in for the paper's experimental substrate (TPIE over a
real disk).  Every external-memory structure in the package - stacks, sorted
runs, documents - performs block reads and writes exclusively through a
:class:`BlockDevice`, which counts each access and classifies it as
sequential (block id follows the previously accessed id) or random.  The
classification feeds the seek + transfer disk-time model in
:mod:`repro.io.stats`.

The device is an allocator as well: callers grab fresh block ids with
:meth:`BlockDevice.allocate`.  Allocation is *pooled*: each named pool
(one per stream - a stack, a run writer) draws from its own contiguous
extent, refilled in chunks, the way files on a filesystem grow - so two
streams growing concurrently do not shred each other's on-disk locality,
just as TPIE streams living in separate files do not.  Block contents live
in an in-memory dict; "external memory" here means memory *the algorithms
are not allowed to use for free*, not literally a spinning platter.
"""

from __future__ import annotations

from ..errors import DeviceError
from .stats import CostModel, IOStats, classify_extent

#: Recognized prefetch scheduling policies (``prefetch_policy``; the
#: striped device in :mod:`repro.io.parallel` implements them).
PREFETCH_POLICIES = ("forecast", "round-robin")

DEFAULT_BLOCK_SIZE = 4096

#: Blocks grabbed per pool refill (a filesystem-extent analogue).
ALLOCATION_CHUNK = 64


class BlockDevice:
    """A block-addressable storage device with I/O accounting.

    Args:
        block_size: bytes per block.  The paper used 64 KB blocks on a real
            disk; the default here is 4 KB so that scaled-down experiments
            keep the same ``N/B`` and ``M/B`` ratios.
        cost_model: disk/CPU time parameters for simulated-seconds reporting.
    """

    #: Parallel-disk surface (see :mod:`repro.io.parallel`): a plain
    #: device is one disk with no prefetch pipeline.  Striped devices
    #: shadow these, and everything layered above (device layers, run
    #: writers) can query them without isinstance checks.
    disks = 1
    prefetch_depth = 0
    prefetch_policy: str | None = None

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel | None = None,
    ):
        if block_size < 64:
            raise DeviceError(f"block_size too small: {block_size}")
        self.block_size = block_size
        self.stats = IOStats(cost_model)
        self._blocks: dict[int, bytes] = {}
        self._next_block = 0
        # Per-pool (cursor, extent end) allocation state.
        self._pools: dict[str, tuple[int, int]] = {}
        # Sequentiality is judged per accounting category: each category
        # models one I/O stream (a TPIE stream / an OS file with
        # readahead), so interleaved streams do not turn each other's
        # strictly sequential accesses into charged seeks.
        self._last_by_category: dict[str, int] = {}
        # Recovery holds (a stack): while a hold is open, freed block
        # contents are retained so a restarted unit of work can re-read
        # them.  See push_hold / pop_hold.
        self._holds: list[dict[int, bytes | None]] = []

    # -- allocation --------------------------------------------------------

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        """Reserve ``count`` consecutive block ids; return the first id.

        Ids come from the named pool's current extent, so a stream that
        always allocates from its own pool gets consecutive ids even when
        other streams allocate in between.
        """
        if count < 1:
            raise DeviceError(f"cannot allocate {count} blocks")
        if count >= ALLOCATION_CHUNK:
            # Large requests get a dedicated extent.
            start = self._next_block
            self._next_block += count
            return start
        cursor, end = self._pools.get(pool, (0, 0))
        if cursor + count > end:
            chunk = max(count, ALLOCATION_CHUNK)
            cursor = self._next_block
            end = cursor + chunk
            self._next_block = end
        self._pools[pool] = (cursor + count, end)
        return cursor

    @property
    def allocated_blocks(self) -> int:
        """Total number of block ids handed out so far."""
        return self._next_block

    @property
    def occupied_blocks(self) -> int:
        """Number of blocks that currently hold data."""
        return len(self._blocks)

    # -- access --------------------------------------------------------
    #
    # The device protocol has four primitives: read_blocks, write_blocks,
    # prefetch_blocks and write_block_behind.  The single-block calls are
    # length-1 vectors, defined here once for every device and layer.

    def read_block(
        self,
        block_id: int,
        category: str = "other",
        stream: str | None = None,
    ) -> bytes:
        """Read one block: a length-1 :meth:`read_blocks`."""
        return self.read_blocks((block_id,), category, stream)[0]

    def write_block(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Write one block: a length-1 :meth:`write_blocks`."""
        self.write_blocks((block_id,), (data,), category, stream)

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: fetch several blocks in one call.

        Each block is judged against the one before it (the first against
        the stream's last access), exactly as a loop of single-block reads
        would be, so a contiguous extent costs one sequentiality judgment
        and the rest count sequential.  ``stream`` optionally names a
        finer-grained access stream for that judgment (e.g. one run among
        many being merged); counters still accrue to ``category``.
        """
        block_ids = list(block_ids)
        if not block_ids:
            return []
        out = self._fetch(block_ids)
        if None in out:
            self._check(block_ids, out, "read")
        key = stream or category
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        self.stats.record_reads(category, len(block_ids), sequential)
        self._last_by_category[key] = last
        return out

    def write_blocks(
        self,
        block_ids,
        datas,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Vectored write: store several blocks in one call.

        Accounting mirrors :meth:`read_blocks`: one sequentiality judgment
        per extent, identical counters to a loop of single-block writes.
        """
        block_ids = list(block_ids)
        datas = list(datas)
        self._check(block_ids, datas, "write")
        if not block_ids:
            return
        self._store(block_ids, datas)
        key = stream or category
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        self.stats.record_writes(category, len(block_ids), sequential)
        self._last_by_category[key] = last

    def _check(self, block_ids: list, datas: list, verb: str) -> None:
        """Raise the :class:`DeviceError` a vectored access deserves.

        ``datas`` are a write's payloads, or a read's fetched contents
        with None where a block holds nothing.  Blocks are judged in
        order - allocation, then contents, then size - so a bad id is
        reported before a bad payload that comes after it.
        """
        if len(block_ids) != len(datas):
            raise DeviceError(
                f"write_blocks got {len(block_ids)} ids but "
                f"{len(datas)} payloads"
            )
        allocated = self.allocated_blocks
        size = self.block_size
        for block_id, data in zip(block_ids, datas):
            if not 0 <= block_id < allocated:
                if verb == "raw store":
                    raise DeviceError(
                        f"raw store to unallocated block {block_id}"
                    )
                raise DeviceError(f"{verb} of unallocated block {block_id}")
            if data is None:
                raise DeviceError(f"{verb} of never-written block {block_id}")
            if len(data) > size:
                raise DeviceError(
                    f"{verb} of {len(data)} bytes exceeds block size {size}"
                )

    def free_blocks(self, block_ids) -> None:
        """Drop the contents of blocks that are no longer needed.

        Freeing is bookkeeping only (it lets long experiments release Python
        memory); it performs no accounted I/O and the ids are not reused.
        Categories whose last access was a freed block forget it, so a
        later access in that category starts a fresh stream instead of
        being judged against a dead block.

        While a recovery hold is open (:meth:`push_hold`), the freed
        contents are retained in the hold - accounting is unchanged, but
        :meth:`pop_hold` can restore them if the unit of work restarts.
        """
        block_ids = list(block_ids)
        dropped = self._drop(block_ids)
        if self._holds:
            hold = self._holds[-1]
            for block_id, data in dropped.items():
                hold.setdefault(block_id, data)
        self._forget_last_access(block_ids)

    def _forget_last_access(self, block_ids) -> None:
        freed = set(block_ids)
        if not freed:
            return
        stale = [
            category
            for category, last in self._last_by_category.items()
            if last in freed
        ]
        for category in stale:
            del self._last_by_category[category]

    # -- storage hooks -------------------------------------------------------
    #
    # A storage substrate supplies only these four; the access methods
    # above own every check, the accounting and the recovery holds.

    def _fetch(self, block_ids: list) -> list:
        """Stored contents of each block, None where it holds none."""
        get = self._blocks.get
        out = []
        for block_id in block_ids:
            out.append(get(block_id))
        return out

    def _store(self, block_ids: list, datas: list) -> None:
        """Persist checked payloads (no accounting)."""
        blocks = self._blocks
        for block_id, data in zip(block_ids, datas):
            blocks[block_id] = bytes(data)

    def _drop(self, block_ids: list) -> dict:
        """Discard contents; returns what a recovery hold keeps of them."""
        pop = self._blocks.pop
        dropped = {}
        for block_id in block_ids:
            data = pop(block_id, None)
            if data is not None:
                dropped[block_id] = data
        return dropped

    def _restore_held(self, held: dict) -> None:
        """Make a hold's contents readable again (no accounting)."""
        block_ids = [b for b, data in held.items() if data is not None]
        if block_ids:
            self._store(block_ids, [held[b] for b in block_ids])

    # -- recovery holds ----------------------------------------------------

    @property
    def holding(self) -> bool:
        """True while at least one recovery hold is open."""
        return bool(self._holds)

    def push_hold(self) -> None:
        """Open a recovery hold: retain contents of subsequently freed blocks.

        Holds nest (a stack); frees land in the innermost open hold.
        Accounting is completely unaffected - frees still forget
        last-access state and pop the live block exactly as without a
        hold.  The fault-recovery layer (:mod:`repro.faults`) brackets
        each restartable unit of work with a hold so a restart can
        re-read input runs the failed attempt already drained and freed.
        """
        self._holds.append({})

    def pop_hold(self, restore: bool) -> None:
        """Close the innermost hold.

        With ``restore=True`` the held contents become readable again (the
        restarting unit re-reads them, with those re-reads charged
        normally); with ``restore=False`` they are dropped for good.
        """
        if not self._holds:
            raise DeviceError("pop_hold with no hold open")
        held = self._holds.pop()
        if restore:
            self._restore_held(held)

    def stash_block(self, block_id: int, data: bytes) -> None:
        """Retain ``data`` as ``block_id``'s held contents (uncounted).

        Used by the buffer pool when a *dirty cached* block is freed under
        an open hold: the device never saw the dirty data (that is the
        write the pool elides), so the pool hands it over for safekeeping.
        No-op when no hold is open.
        """
        if self._holds:
            self._holds[-1][block_id] = bytes(data)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        """Store block contents without any accounting.

        This is the fault injector's torn-write primitive: a torn vectored
        write persists a prefix of its payload before failing, and that
        side effect must not charge the model's counters (the retried
        write is charged once, in full, exactly like a fault-free one).
        """
        self._check([block_id], [data], "raw store")
        self._store([block_id], [data])

    # -- parallel-disk surface ---------------------------------------------

    def disk_of(self, block_id: int) -> int:
        """Member disk holding ``block_id``; always 0 on a serial device."""
        return 0

    def prefetch_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> int:
        """Issue asynchronous reads ahead of demand; returns blocks issued.

        A serial device has no prefetch pipeline, so this is a no-op that
        issues nothing - callers fall back to demand reads, keeping
        counters identical to pre-prefetch behaviour.
        """
        return 0

    def write_block_behind(
        self,
        block_id: int,
        data: bytes,
        category: str = "other",
        stream: str | None = None,
    ) -> None:
        """Write-behind: queue a write without waiting for completion.

        On a serial device there is no pipeline to hide the write in, so
        this degenerates to a plain (identically accounted) write.
        """
        self.write_blocks((block_id,), (data,), category, stream)

    # -- convenience -------------------------------------------------------

    def bytes_to_blocks(self, nbytes: int) -> int:
        """Number of blocks needed to hold ``nbytes`` bytes."""
        return -(-nbytes // self.block_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDevice(block_size={self.block_size}, "
            f"allocated={self._next_block}, "
            f"ios={self.stats.total_ios})"
        )


class DeviceLayer:
    """A device-shaped layer over another device; forwards by default.

    Buffer pools and the fault wrappers sit wherever a :class:`BlockDevice`
    can - under a run store, behind a stack, on top of each other.  This
    base forwards the whole device surface to the wrapped device, so a
    layer overrides only what it changes, usually some of the four
    primitives.  The single-block calls are :class:`BlockDevice`'s
    length-1 vectors, so they run through the layer's own primitives.
    """

    def __init__(self, device):
        self._device = device

    @property
    def device(self):
        """The wrapped device (possibly itself a layer)."""
        return self._device

    @property
    def block_size(self) -> int:
        return self._device.block_size

    @property
    def stats(self) -> IOStats:
        return self._device.stats

    # -- allocation --------------------------------------------------------

    @property
    def allocated_blocks(self) -> int:
        return self._device.allocated_blocks

    @property
    def occupied_blocks(self) -> int:
        return self._device.occupied_blocks

    def allocate(self, count: int = 1, pool: str = "default") -> int:
        return self._device.allocate(count, pool)

    def free_blocks(self, block_ids) -> None:
        self._device.free_blocks(block_ids)

    bytes_to_blocks = BlockDevice.bytes_to_blocks

    # -- recovery holds and raw stores ---------------------------------------

    @property
    def holding(self) -> bool:
        return self._device.holding

    def push_hold(self) -> None:
        self._device.push_hold()

    def pop_hold(self, restore: bool) -> None:
        self._device.pop_hold(restore)

    def stash_block(self, block_id: int, data: bytes) -> None:
        self._device.stash_block(block_id, data)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        self._device.store_block_raw(block_id, data)

    # -- parallel-disk surface ---------------------------------------------

    @property
    def disks(self) -> int:
        return self._device.disks

    @property
    def prefetch_depth(self) -> int:
        return self._device.prefetch_depth

    @property
    def prefetch_policy(self) -> str | None:
        return self._device.prefetch_policy

    def disk_of(self, block_id: int) -> int:
        return self._device.disk_of(block_id)

    # -- the four primitives -------------------------------------------------

    def read_blocks(self, block_ids, category="other", stream=None):
        return self._device.read_blocks(block_ids, category, stream)

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        self._device.write_blocks(block_ids, datas, category, stream)

    def prefetch_blocks(self, block_ids, category="other", stream=None):
        return self._device.prefetch_blocks(block_ids, category, stream)

    def write_block_behind(self, block_id, data, category="other",
                           stream=None):
        self._device.write_block_behind(block_id, data, category, stream)

    read_block = BlockDevice.read_block
    write_block = BlockDevice.write_block
    _check = BlockDevice._check
