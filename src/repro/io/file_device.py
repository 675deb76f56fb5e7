"""A block device backed by a real file.

:class:`~repro.io.device.BlockDevice` keeps blocks in a dict - "external
memory" as an accounting fiction.  :class:`FileBackedBlockDevice` stores
blocks in an actual file with ``seek``/``read``/``write``, so experiments
can also be run against a filesystem when genuine out-of-core behaviour is
wanted (e.g. documents larger than RAM).  Accounting is identical; only
the storage substrate changes.
"""

from __future__ import annotations

import os

from ..errors import DeviceError
from .device import BlockDevice, DEFAULT_BLOCK_SIZE
from .stats import CostModel, classify_extent


class FileBackedBlockDevice(BlockDevice):
    """Blocks live in one backing file; block id = file offset / size.

    Use as a context manager, or call :meth:`close` when done.  The
    backing file is removed on close unless ``keep_file=True``.
    """

    def __init__(
        self,
        path: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel | None = None,
        keep_file: bool = False,
    ):
        super().__init__(block_size=block_size, cost_model=cost_model)
        self._path = path
        self._keep_file = keep_file
        self._file = open(path, "w+b")
        self._written: set[int] = set()
        # The dict-based storage is not used.
        self._blocks = _RefuseDict()

    # -- storage overrides ---------------------------------------------------

    def read_blocks(
        self,
        block_ids,
        category: str = "other",
        stream: str | None = None,
    ) -> list[bytes]:
        """Vectored read: one ``seek`` + ``read`` per contiguous extent.

        Counters are identical to the in-memory device's; only the number
        of OS calls changes.
        """
        block_ids = list(block_ids)
        if not block_ids:
            return []
        size = self.block_size
        key = stream or category
        for block_id in block_ids:
            if not 0 <= block_id < self._next_block:
                raise DeviceError(f"read of unallocated block {block_id}")
            if block_id not in self._written:
                raise DeviceError(
                    f"read of never-written block {block_id}"
                )
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        out: list[bytes] = []
        for start, length in _contiguous_extents(block_ids):
            self._file.seek(start * size)
            chunk = self._file.read(length * size)
            for index in range(length):
                out.append(chunk[index * size : (index + 1) * size])
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
        """Vectored write: one ``seek`` + ``write`` per contiguous extent."""
        block_ids = list(block_ids)
        datas = list(datas)
        if len(block_ids) != len(datas):
            raise DeviceError(
                f"write_blocks got {len(block_ids)} ids but "
                f"{len(datas)} payloads"
            )
        if not block_ids:
            return
        size = self.block_size
        key = stream or category
        for block_id, data in zip(block_ids, datas):
            if not 0 <= block_id < self._next_block:
                raise DeviceError(f"write of unallocated block {block_id}")
            if len(data) > size:
                raise DeviceError(
                    f"write of {len(data)} bytes exceeds block size {size}"
                )
        sequential, last = classify_extent(
            block_ids, self._last_by_category.get(key)
        )
        cursor = 0
        for start, length in _contiguous_extents(block_ids):
            self._file.seek(start * size)
            padded = b"".join(
                data + b"\x00" * (size - len(data))
                for data in datas[cursor : cursor + length]
            )
            self._file.write(padded)
            cursor += length
        self._written.update(block_ids)
        self.stats.record_writes(category, len(block_ids), sequential)
        self._last_by_category[key] = last

    def free_blocks(self, block_ids) -> None:
        block_ids = list(block_ids)
        if self._holds:
            # The file still holds the bytes; a None marker is enough to
            # make the block readable again on restore.
            hold = self._holds[-1]
            for block_id in block_ids:
                if block_id in self._written and block_id not in hold:
                    hold[block_id] = None
        for block_id in block_ids:
            self._written.discard(block_id)
        self._forget_last_access(block_ids)

    def _restore_held(self, held) -> None:
        for block_id, data in held.items():
            if data is not None:
                # Dirty pool data stashed at free time: put the bytes in
                # the file (uncounted) before marking the block readable.
                self.store_block_raw(block_id, data)
            else:
                self._written.add(block_id)

    def store_block_raw(self, block_id: int, data: bytes) -> None:
        if not 0 <= block_id < self._next_block:
            raise DeviceError(f"raw store to unallocated block {block_id}")
        size = self.block_size
        if len(data) > size:
            raise DeviceError(
                f"raw store of {len(data)} bytes exceeds block size {size}"
            )
        self._file.seek(block_id * size)
        self._file.write(data + b"\x00" * (size - len(data)))
        self._written.add(block_id)

    @property
    def occupied_blocks(self) -> int:
        return len(self._written)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
            if not self._keep_file and os.path.exists(self._path):
                os.unlink(self._path)

    def __enter__(self) -> "FileBackedBlockDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _contiguous_extents(block_ids: list[int]):
    """Yield ``(start, length)`` for each run of consecutive ids."""
    start = block_ids[0]
    length = 1
    for block_id in block_ids[1:]:
        if block_id == start + length:
            length += 1
        else:
            yield start, length
            start = block_id
            length = 1
    yield start, length


class _RefuseDict(dict):
    """Guards against accidental use of the in-memory storage path."""

    def __setitem__(self, key, value):  # pragma: no cover - defensive
        raise DeviceError(
            "file-backed device must not use in-memory block storage"
        )
