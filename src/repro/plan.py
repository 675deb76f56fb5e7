"""One point of the knob grid, and the one way to run it.

``repro sort``, the benchmark harness, the sort service and the planner
(:mod:`repro.analysis.planner`, which prices configs and is never
imported from here) all describe a run as a :class:`PlanConfig` and run
it with :func:`run_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baselines.merge_sort import external_merge_sort
from .core.nexsort import nexsort
from .errors import ReproError
from .merge.engine import MergeOptions


@dataclass(frozen=True)
class PlanConfig:
    """Every decision of a run that changes counters."""

    algorithm: str = "nexsort"  # 'nexsort' or 'merge_sort'
    memory_blocks: int = 24
    cache_blocks: int = 0
    threshold_bytes: int | None = None  # None: two device blocks
    flat_optimization: bool = False
    run_formation: str = "load-sort"
    merge_kernel: str = "heap"
    disks: int = 1
    prefetch_depth: int = 0
    prefetch_policy: str = "forecast"
    compress: str | None = None
    compress_capacity: bool = False
    depth_limit: int | None = None  # NEXSORT only; root = 1
    #: Section 3.2 storage (``--compact``): name dictionary and end-tag
    #: elimination.
    compact: bool = False

    @property
    def working_blocks(self) -> int:
        """Sort memory after the buffer pool's carve-out."""
        return self.memory_blocks - self.cache_blocks

    def merge_options(self) -> MergeOptions:
        return MergeOptions(
            run_formation=self.run_formation,
            merge_kernel=self.merge_kernel,
            compress=self.compress,
            compress_capacity=self.compress_capacity,
        )

    def compaction_config(self):
        """A fresh :class:`~repro.xml.compact.CompactionConfig` to store
        the document with, or None for plain storage."""
        if not self.compact:
            return None
        from .xml.compact import CompactionConfig

        return CompactionConfig()

    def validate(self) -> None:
        if self.algorithm not in ("nexsort", "merge_sort"):
            raise ReproError(f"unknown algorithm {self.algorithm!r}")
        self.merge_options()  # checks formation, kernel and codec
        if self.cache_blocks < 0 or self.working_blocks < 2:
            raise ReproError(
                f"grant of {self.memory_blocks} blocks with "
                f"{self.cache_blocks} cache leaves no sort memory"
            )
        if self.threshold_bytes is not None and self.threshold_bytes < 1:
            raise ReproError(f"threshold {self.threshold_bytes} < 1 byte")
        if self.disks < 1 or self.prefetch_depth < 0:
            raise ReproError(
                f"bad device shape disks={self.disks} "
                f"prefetch_depth={self.prefetch_depth}"
            )
        if self.prefetch_depth > 0 and self.merge_kernel != "loser-tree":
            raise ReproError(
                f"--prefetch-depth {self.prefetch_depth} needs --merge-kernel "
                f"loser-tree: the heap merge kernel never fetches ahead"
            )
        if self.depth_limit is not None and self.algorithm != "nexsort":
            raise ReproError(
                f"--depth-limit {self.depth_limit} needs nexsort: "
                f"{self.algorithm} always sorts every level"
            )


def run_plan(
    document, spec, config: PlanConfig, *, tracer=None, recovery=None,
    lease=None,
):
    """Sort ``document`` by ``spec`` as ``config`` decides; returns the
    sorter's ``(document, report)``.  Storing the document (with
    ``config.compaction_config()``, on a device of its disk shape) is the
    caller's step."""
    config.validate()
    common = dict(
        cache_blocks=config.cache_blocks,
        merge_options=config.merge_options(),
        tracer=tracer, recovery=recovery, lease=lease,
    )
    if config.algorithm == "merge_sort":
        return external_merge_sort(
            document, spec, config.memory_blocks, **common
        )
    return nexsort(
        document, spec, config.memory_blocks,
        threshold_bytes=config.threshold_bytes,
        depth_limit=config.depth_limit,
        flat_optimization=config.flat_optimization,
        **common,
    )
