"""Experiment runner shared by every benchmark.

One experiment = load a generated document onto a fresh simulated device,
run one sorter (or merger) configuration, and collect the metrics the
paper reports: simulated sort time, total I/Os, pass counts / subtree
sorts, and the per-category breakdown.

The geometry defaults mirror the paper's setup scaled down by the block
size (the paper: 64 KB blocks, ~150-byte elements, 3-32 MB of memory; here
512-byte blocks, ~45-byte elements, 16-96 blocks of memory - the same
``N/B``, ``M/B``, ``k/B`` regimes).  ``REPRO_BENCH_SCALE=large`` doubles
workload sizes for longer, smoother curves.
"""

from __future__ import annotations

import os
import platform as _platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..io.device import BlockDevice
from ..io.parallel import StripedDevice
from ..io.runs import RunStore
from ..keys import ByAttribute, SortSpec
from ..obs.tracer import Tracer
from ..plan import PlanConfig, run_plan
from ..xml.compact import CompactionConfig
from ..xml.document import Document
from ..xml.tokens import Token

#: Default block size for benchmark devices.
BENCH_BLOCK_SIZE = 512

#: The standard benchmark ordering criterion.
BENCH_SPEC = SortSpec(default=ByAttribute("name"))


def bench_scale() -> float:
    """Workload multiplier from the REPRO_BENCH_SCALE env var."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    return {"small": 1.0, "medium": 2.0, "large": 4.0}.get(scale, 1.0)


@dataclass
class SortMetrics:
    """What one sort run measured."""

    algorithm: str
    element_count: int
    input_blocks: int
    memory_blocks: int
    simulated_seconds: float
    total_ios: int
    detail: dict
    wall_seconds: float = 0.0


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unmeasurable.

    Uses :mod:`resource` (POSIX); ``ru_maxrss`` is kilobytes on Linux and
    bytes on macOS.  Returns None on platforms without the module so
    benchmark rows degrade to ``"peak_rss_bytes": null`` instead of
    failing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        return peak
    return peak * 1024


def load_document(
    events: Iterable[Token],
    block_size: int = BENCH_BLOCK_SIZE,
    compaction: CompactionConfig | None = None,
    disks: int | None = None,
    prefetch_depth: int = 0,
    prefetch_policy: str = "forecast",
) -> Document:
    """Put a generated event stream on a fresh device.

    ``disks=None`` (the default) uses the serial :class:`BlockDevice`.
    Any integer - including 1 - builds a :class:`StripedDevice` instead,
    so benchmarks can demonstrate that a 1-disk stripe reproduces the
    serial goldens bit for bit.
    """
    if disks is None:
        device = BlockDevice(block_size=block_size)
    else:
        device = StripedDevice(
            disks=disks,
            block_size=block_size,
            prefetch_depth=prefetch_depth,
            prefetch_policy=prefetch_policy,
        )
    store = RunStore(device)
    return Document.from_events(store, events, compaction=compaction)


def _nexsort_detail(report) -> dict:
    """NEXSORT's own columns of a bench row."""
    return {
        "x": report.x,
        "internal_sorts": report.internal_sorts,
        "external_sorts": report.external_sorts,
        "flat_partial_runs": report.flat_partial_runs,
        "avg_run_length": report.avg_run_length,
        "max_run_length": report.max_run_length,
        "merge_comparisons": report.merge_comparisons,
        "data_stack_page_outs": report.data_stack_page_outs,
        "max_fanout": report.max_fanout,
        "threshold_bytes": report.threshold_bytes,
        "output_reads": report.output_stats.total_reads,
    }


def _merge_sort_detail(report) -> dict:
    """External merge sort's own columns of a bench row."""
    return {
        "initial_runs": report.initial_runs,
        "fan_in": report.fan_in,
        "passes": report.total_passes,
        "avg_run_length": report.avg_run_length,
        "max_run_length": report.max_run_length,
        "merge_comparisons": report.merge_comparisons,
        "comparisons": report.stats.comparisons,
        "cpu_seconds": report.stats.cpu_seconds(),
    }


def run_config(
    events_factory: Callable[[], Iterable[Token]],
    config: PlanConfig,
    spec: SortSpec = BENCH_SPEC,
    block_size: int = BENCH_BLOCK_SIZE,
    striped: bool = False,
) -> SortMetrics:
    """Run one :class:`~repro.plan.PlanConfig` end to end on a fresh device.

    The one experiment runner: every benchmark, and the planner's
    regression tests, hand their configs here.  The document is stored
    with ``config.compaction_config()``.  A 1-disk no-prefetch config
    uses the serial device, so its counters match the recorded serial
    goldens bit for bit; ``striped=True`` builds a
    :class:`StripedDevice` even then.

    Every run is traced (the tracer is read-only, so metrics match an
    untraced run bit for bit) and the root-span phase breakdown lands in
    ``detail["phases"]`` - the per-phase section of every ``BENCH_*.json``.
    """
    striped = striped or config.disks > 1 or config.prefetch_depth > 0
    document = load_document(
        events_factory(), block_size, config.compaction_config(),
        disks=config.disks if striped else None,
        prefetch_depth=config.prefetch_depth,
        prefetch_policy=config.prefetch_policy,
    )
    device = document.store.device
    tracer = Tracer(device.stats)
    wall_start = time.perf_counter()
    _output, report = run_plan(document, spec, config, tracer=tracer)
    wall_seconds = time.perf_counter() - wall_start
    trace = tracer.finish()
    snap = report.stats
    codec = config.compress
    stored = snap.compress_stored_bytes
    detail = (
        _merge_sort_detail(report)
        if config.algorithm == "merge_sort"
        else _nexsort_detail(report)
    )
    return SortMetrics(
        algorithm=config.algorithm,
        element_count=document.element_count,
        input_blocks=document.block_count,
        memory_blocks=config.memory_blocks,
        simulated_seconds=report.simulated_seconds,
        total_ios=report.total_ios,
        detail={
            **detail,
            "breakdown": report.io_breakdown(),
            "phases": trace.phase_breakdown(),
            "cache_hits": snap.cache_hits,
            "cache_misses": snap.cache_misses,
            "cache_evictions": snap.cache_evictions,
            "peak_rss_bytes": peak_rss_bytes(),
            "python_version": _platform.python_version(),
            "platform": _platform.platform(),
            # A serial device reports one disk, no prefetch, zero
            # overlap and stall, and an empty utilization map.
            "disks": device.disks,
            "prefetch_depth": device.prefetch_depth,
            "disk_seconds": snap.disk_seconds(),
            "overlap_seconds": snap.overlap_seconds(),
            "stall_seconds": snap.stall_seconds,
            "disk_utilization": {
                str(disk): round(value, 4)
                for disk, value in sorted(snap.disk_utilization().items())
            },
            # Null when compression is off.
            "codec": codec,
            "compressed_bytes": stored if codec else None,
            "compression_ratio": (
                round(snap.compress_raw_bytes / stored, 4)
                if codec and stored
                else None
            ),
        },
        wall_seconds=wall_seconds,
    )
