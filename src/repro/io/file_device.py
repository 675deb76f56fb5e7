"""A block device backed by a real file.

:class:`~repro.io.device.BlockDevice` keeps blocks in a dict - "external
memory" as an accounting fiction.  :class:`FileBackedBlockDevice` stores
blocks in an actual file with ``seek``/``read``/``write``, so experiments
can also be run against a filesystem when genuine out-of-core behaviour is
wanted (e.g. documents larger than RAM).  Accounting is identical: the
base device's access methods do every check and count, and this class
supplies only the storage hooks.
"""

from __future__ import annotations

import os

from .device import BlockDevice, DEFAULT_BLOCK_SIZE
from .stats import CostModel


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

    # -- storage hooks: one seek + one OS call per contiguous extent ---------

    def _fetch(self, block_ids: list) -> list:
        written = self._written
        if not written.issuperset(block_ids):
            return [
                self._fetch([block_id])[0] if block_id in written else None
                for block_id in block_ids
            ]
        size = self.block_size
        out: list[bytes] = []
        for start, length in _contiguous_extents(block_ids):
            self._file.seek(start * size)
            chunk = self._file.read(length * size)
            for index in range(length):
                out.append(chunk[index * size : (index + 1) * size])
        return out

    def _store(self, block_ids: list, datas: list) -> None:
        size = self.block_size
        cursor = 0
        for start, length in _contiguous_extents(block_ids):
            self._file.seek(start * size)
            self._file.write(
                b"".join(
                    data + b"\x00" * (size - len(data))
                    for data in datas[cursor : cursor + length]
                )
            )
            cursor += length
        self._written.update(block_ids)

    def _drop(self, block_ids: list) -> dict:
        # The file keeps the bytes, so a hold needs only a None marker.
        written = self._written
        dropped = {b: None for b in block_ids if b in written}
        written.difference_update(block_ids)
        return dropped

    def _restore_held(self, held: dict) -> None:
        # Dirty pool data stashed at free time goes into the file first.
        super()._restore_held(held)
        self._written.update(held)

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
