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

from ..baselines.merge_sort import external_merge_sort
from ..core.nexsort import nexsort
from ..io.device import BlockDevice
from ..io.parallel import StripedDevice
from ..io.runs import RunStore
from ..keys import ByAttribute, SortSpec
from ..merge.engine import MergeOptions
from ..obs.tracer import Tracer
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


def environment_detail() -> dict:
    """Host-environment columns recorded in every bench row."""
    return {
        "python_version": _platform.python_version(),
        "platform": _platform.platform(),
    }


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


def _parallel_detail(device: BlockDevice, report) -> dict:
    """Parallel-I/O columns recorded in every bench row (ISSUE 5).

    Serial devices report disks=1, no prefetch, zero overlap/stall and an
    empty utilization map, so existing benchmark JSON gains only constant
    columns and stays comparable across configurations.
    """
    snap = report.stats
    return {
        "disks": device.disks,
        "prefetch_depth": device.prefetch_depth,
        "disk_seconds": snap.disk_seconds(),
        "overlap_seconds": snap.overlap_seconds(),
        "stall_seconds": snap.stall_seconds,
        "disk_utilization": {
            str(disk): round(value, 4)
            for disk, value in sorted(snap.disk_utilization().items())
        },
    }


def _compression_detail(report, merge_options) -> dict:
    """Run-compression columns recorded in every bench row (ISSUE 10).

    All three are null when compression is off, so existing benchmark
    JSON gains only constant columns and rows stay diffable across
    codec on/off sweeps.
    """
    snap = report.stats
    codec = getattr(merge_options, "compress", None)
    stored = snap.compress_stored_bytes
    raw = snap.compress_raw_bytes
    return {
        "codec": codec,
        "compressed_bytes": stored if codec else None,
        "compression_ratio": (
            round(raw / stored, 4) if codec and stored else None
        ),
    }


def run_nexsort(
    events_factory: Callable[[], Iterable[Token]],
    memory_blocks: int,
    spec: SortSpec = BENCH_SPEC,
    block_size: int = BENCH_BLOCK_SIZE,
    compaction: CompactionConfig | None = None,
    disks: int | None = None,
    prefetch_depth: int = 0,
    prefetch_policy: str = "forecast",
    **options,
) -> SortMetrics:
    """One NEXSORT experiment on a fresh device.

    Every run is traced (the tracer is read-only, so metrics match an
    untraced run bit for bit) and the root-span phase breakdown lands in
    ``detail["phases"]`` - the per-phase section of every ``BENCH_*.json``.
    """
    document = load_document(
        events_factory(), block_size, compaction,
        disks=disks, prefetch_depth=prefetch_depth,
        prefetch_policy=prefetch_policy,
    )
    tracer = Tracer(document.store.device.stats)
    wall_start = time.perf_counter()
    _output, report = nexsort(
        document, spec, memory_blocks=memory_blocks, tracer=tracer,
        **options,
    )
    wall_seconds = time.perf_counter() - wall_start
    trace = tracer.finish()
    return SortMetrics(
        algorithm="nexsort",
        element_count=document.element_count,
        input_blocks=document.block_count,
        memory_blocks=memory_blocks,
        simulated_seconds=report.simulated_seconds,
        total_ios=report.total_ios,
        detail={
            "x": report.x,
            "internal_sorts": report.internal_sorts,
            "external_sorts": report.external_sorts,
            "flat_partial_runs": report.flat_partial_runs,
            "avg_run_length": report.avg_run_length,
            "max_run_length": report.max_run_length,
            "merge_comparisons": report.merge_comparisons,
            "data_stack_page_outs": report.data_stack_page_outs,
            "breakdown": report.io_breakdown(),
            "phases": trace.phase_breakdown(),
            "max_fanout": report.max_fanout,
            "threshold_bytes": report.threshold_bytes,
            "output_reads": report.output_stats.total_reads,
            "cache_hits": report.stats.cache_hits,
            "cache_misses": report.stats.cache_misses,
            "cache_evictions": report.stats.cache_evictions,
            "peak_rss_bytes": peak_rss_bytes(),
            **environment_detail(),
            **_parallel_detail(document.store.device, report),
            **_compression_detail(report, options.get("merge_options")),
        },
        wall_seconds=wall_seconds,
    )


def run_merge_sort(
    events_factory: Callable[[], Iterable[Token]],
    memory_blocks: int,
    spec: SortSpec = BENCH_SPEC,
    block_size: int = BENCH_BLOCK_SIZE,
    compaction: CompactionConfig | None = None,
    cache_blocks: int = 0,
    merge_options: MergeOptions | None = None,
    disks: int | None = None,
    prefetch_depth: int = 0,
    prefetch_policy: str = "forecast",
) -> SortMetrics:
    """One external merge sort experiment on a fresh device."""
    document = load_document(
        events_factory(), block_size, compaction,
        disks=disks, prefetch_depth=prefetch_depth,
        prefetch_policy=prefetch_policy,
    )
    tracer = Tracer(document.store.device.stats)
    wall_start = time.perf_counter()
    _output, report = external_merge_sort(
        document, spec, memory_blocks=memory_blocks,
        cache_blocks=cache_blocks, merge_options=merge_options,
        tracer=tracer,
    )
    wall_seconds = time.perf_counter() - wall_start
    trace = tracer.finish()
    return SortMetrics(
        algorithm="merge_sort",
        element_count=document.element_count,
        input_blocks=document.block_count,
        memory_blocks=memory_blocks,
        simulated_seconds=report.simulated_seconds,
        total_ios=report.total_ios,
        detail={
            "initial_runs": report.initial_runs,
            "fan_in": report.fan_in,
            "passes": report.total_passes,
            "avg_run_length": report.avg_run_length,
            "max_run_length": report.max_run_length,
            "merge_comparisons": report.merge_comparisons,
            "comparisons": report.stats.comparisons,
            "cpu_seconds": report.stats.cpu_seconds(),
            "breakdown": report.io_breakdown(),
            "phases": trace.phase_breakdown(),
            "cache_hits": report.stats.cache_hits,
            "cache_misses": report.stats.cache_misses,
            "cache_evictions": report.stats.cache_evictions,
            "peak_rss_bytes": peak_rss_bytes(),
            **environment_detail(),
            **_parallel_detail(document.store.device, report),
            **_compression_detail(report, merge_options),
        },
        wall_seconds=wall_seconds,
    )


def run_config(
    events_factory: Callable[[], Iterable[Token]],
    config,
    spec: SortSpec = BENCH_SPEC,
    block_size: int = BENCH_BLOCK_SIZE,
    compaction: CompactionConfig | None = None,
) -> SortMetrics:
    """Run one :class:`~repro.analysis.planner.PlanConfig` end to end.

    The bridge between the planner's knob grid and the measured world:
    ``bench_planner`` and the planner regression tests hand the chosen
    (or every candidate) config here and compare simulated seconds.
    A 1-disk no-prefetch config uses the serial device so its counters
    match the recorded serial goldens bit for bit.
    """
    disks = (
        config.disks
        if (config.disks > 1 or config.prefetch_depth)
        else None
    )
    common = dict(
        spec=spec,
        block_size=block_size,
        compaction=compaction,
        disks=disks,
        prefetch_depth=config.prefetch_depth,
        prefetch_policy=config.prefetch_policy,
    )
    if config.algorithm == "merge_sort":
        return run_merge_sort(
            events_factory,
            config.memory_blocks,
            cache_blocks=config.cache_blocks,
            merge_options=config.merge_options(),
            **common,
        )
    return run_nexsort(
        events_factory,
        config.memory_blocks,
        cache_blocks=config.cache_blocks,
        threshold_bytes=config.threshold_blocks * block_size,
        flat_optimization=config.flat_optimization,
        merge_options=config.merge_options(),
        **common,
    )


def slowdown(baseline: SortMetrics, other: SortMetrics) -> float:
    """other / baseline simulated time, as the paper's percentages."""
    if baseline.simulated_seconds == 0:
        return float("inf")
    return other.simulated_seconds / baseline.simulated_seconds
