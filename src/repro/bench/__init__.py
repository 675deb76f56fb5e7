"""Benchmark harness: experiment runner and result-table reporting."""

from .harness import (
    BENCH_BLOCK_SIZE,
    BENCH_SPEC,
    SortMetrics,
    bench_scale,
    load_document,
    run_config,
)
from .plotting import ascii_chart
from .reporting import BenchReport, drain_reports, record_table

__all__ = [
    "BENCH_BLOCK_SIZE",
    "BENCH_SPEC",
    "BenchReport",
    "SortMetrics",
    "ascii_chart",
    "bench_scale",
    "drain_reports",
    "load_document",
    "record_table",
    "run_config",
]
