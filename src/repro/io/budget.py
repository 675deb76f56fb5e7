"""Internal-memory budget for the external-memory model.

The model gives an algorithm exactly ``M`` blocks of internal memory
(Section 4 of the paper: "M: number of internal memory blocks available").
A :class:`MemoryBudget` enforces that accounting: components *reserve* blocks
(the path stack takes two, the data and output-location stacks one each, per
Section 3.1), and the subtree sorter uses whatever remains.  Over-reserving
raises :class:`~repro.errors.MemoryBudgetExceeded` - it would mean the
algorithm is quietly using memory the model does not grant it.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import DeviceFault, MemoryBudgetExceeded, SortSpecError

#: Minimum memory for NEXSORT: 2 path-stack blocks, 1 data-stack block,
#: 1 output-location block, and 2 transfer buffers (run read/write).
MINIMUM_NEXSORT_BLOCKS = 6


class Reservation:
    """A claim on some number of internal-memory blocks.

    Use as a context manager or call :meth:`release` explicitly.  Releasing
    twice is a no-op.
    """

    def __init__(self, budget: "MemoryBudget", blocks: int, owner: str):
        self._budget = budget
        self.blocks = blocks
        self.owner = owner
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._budget._release(self)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "held"
        return f"Reservation({self.blocks} blocks, {self.owner!r}, {state})"


class MemoryBudget:
    """Tracks how the ``M`` internal-memory blocks are divided up.

    Args:
        total_blocks: the model parameter ``M``.
    """

    def __init__(self, total_blocks: int):
        if total_blocks < 1:
            raise MemoryBudgetExceeded(
                f"memory budget must be positive, got {total_blocks}"
            )
        self.total_blocks = total_blocks
        self._reserved = 0
        self._owners: dict[str, int] = {}

    @property
    def reserved_blocks(self) -> int:
        return self._reserved

    @property
    def available_blocks(self) -> int:
        return self.total_blocks - self._reserved

    def reserve(self, blocks: int, owner: str = "anonymous") -> Reservation:
        """Claim ``blocks`` blocks; raises if they are not available."""
        if blocks < 0:
            raise MemoryBudgetExceeded(f"cannot reserve {blocks} blocks")
        if blocks > self.available_blocks:
            raise MemoryBudgetExceeded(
                f"{owner} requested {blocks} blocks but only "
                f"{self.available_blocks} of {self.total_blocks} are free "
                f"(held: {self._owners})"
            )
        self._reserved += blocks
        self._owners[owner] = self._owners.get(owner, 0) + blocks
        return Reservation(self, blocks, owner)

    def reserve_rest(self, owner: str = "anonymous") -> Reservation:
        """Claim every remaining free block."""
        return self.reserve(self.available_blocks, owner)

    def carve(self, blocks: int, owner: str = "lease") -> "CarvedBudget":
        """Split off a sub-budget of ``blocks`` blocks.

        The carved blocks are reserved here (so two leases can never
        claim the same physical block) and handed to the returned
        :class:`CarvedBudget`, which behaves exactly like a fresh
        ``MemoryBudget(blocks)`` toward its user.  Releasing the carved
        budget returns the blocks to this pool.
        """
        if blocks < 1:
            raise MemoryBudgetExceeded(
                f"cannot carve a {blocks}-block budget from {self!r}"
            )
        return CarvedBudget(self.reserve(blocks, owner))

    def _release(self, reservation: Reservation) -> None:
        self._reserved -= reservation.blocks
        remaining = self._owners.get(reservation.owner, 0) - reservation.blocks
        if remaining > 0:
            self._owners[reservation.owner] = remaining
        else:
            self._owners.pop(reservation.owner, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryBudget(total={self.total_blocks}, "
            f"reserved={self._reserved}, owners={self._owners})"
        )


class CarvedBudget(MemoryBudget):
    """A per-job slice of a parent :class:`MemoryBudget`.

    Acts as an independent budget of ``reservation.blocks`` blocks; the
    backing blocks stay reserved in the parent until :meth:`close` (or
    the parent reservation's release) hands them back.  Closing twice is
    a no-op, mirroring :class:`Reservation`.
    """

    def __init__(self, reservation: Reservation):
        super().__init__(reservation.blocks)
        self._parent_reservation = reservation

    @property
    def closed(self) -> bool:
        return self._parent_reservation._released

    def close(self) -> None:
        """Return the carved blocks to the parent budget (idempotent)."""
        self._parent_reservation.release()


@contextmanager
def sort_session(
    store,
    memory_blocks: int,
    cache_blocks: int = 0,
    compress: str | None = None,
    tracer=None,
    recovery=None,
    lease=None,
):
    """Set up one sort's memory and store; yields its :class:`MemoryBudget`.

    The budget is the lease's carved one (which must grant exactly
    ``memory_blocks``) or a fresh ``MemoryBudget(memory_blocks)``.  A
    ``cache_blocks`` buffer pool is reserved from it and attached to
    ``store``, and ``compress`` becomes the store's run codec.  On exit
    the prior compression comes back and the pool is detached - a sort
    detaches it itself before its final snapshot, so this only cleans up
    after a failure.  Under a :class:`~repro.faults.RecoveryContext`, a
    :class:`~repro.errors.DeviceFault` that escaped every retry and
    restartable unit leaves as the context's
    :class:`~repro.errors.SortRecoveryError`.
    """
    if lease is None:
        budget = MemoryBudget(memory_blocks)
    elif lease.budget.total_blocks != memory_blocks:
        raise SortSpecError(
            f"lease grants {lease.budget.total_blocks} blocks but "
            f"the sorter was configured for {memory_blocks}"
        )
    else:
        budget = lease.budget
    if cache_blocks:
        from .bufferpool import BufferPool

        store.attach_pool(
            BufferPool(
                store.device,
                cache_blocks,
                budget=budget,
                owner="buffer-pool",
                tracer=tracer,
            )
        )
    prior_compression = store.compression
    if compress is not None:
        from .compress import CompressionConfig

        store.compression = CompressionConfig(codec=compress)
    try:
        try:
            yield budget
        finally:
            store.compression = prior_compression
            store.detach_pool()
    except DeviceFault as fault:
        if recovery is None:
            raise
        raise recovery.to_error(fault) from fault
