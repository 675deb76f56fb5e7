"""Ablation - graceful degeneration into external merge sort (§3.2).

The paper describes this optimization but did not implement it ("Thus, we
expect NEXSORT to perform worse than external merge sort for inputs that
are nearly flat").  We built it, so this ablation quantifies it: on a flat
input, plain NEXSORT wastes its first pass staging the whole document on
the data stack; with the optimization, incomplete sorted runs form as
memory fills - like merge sort's run formation - and the data stack never
pages.
"""

from repro.bench import (
    bench_scale,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

MEMORY_BLOCKS = 24


def _flat_events():
    count = int(3000 * bench_scale())
    return level_fanout_events([count], seed=11, pad_bytes=24)


def _hierarchical_events():
    return level_fanout_events([11, 11, 11], seed=11, pad_bytes=24)


def _run_all():
    plain = PlanConfig(memory_blocks=MEMORY_BLOCKS)
    degenerating = PlanConfig(
        memory_blocks=MEMORY_BLOCKS, flat_optimization=True
    )
    return {
        "flat_plain": run_config(_flat_events, plain),
        "flat_opt": run_config(_flat_events, degenerating),
        "flat_merge": run_config(
            _flat_events,
            PlanConfig(algorithm="merge_sort", memory_blocks=MEMORY_BLOCKS),
        ),
        "hier_plain": run_config(_hierarchical_events, plain),
        "hier_opt": run_config(_hierarchical_events, degenerating),
    }


def test_flat_optimization_ablation(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    def row(label, metrics):
        return [
            label,
            metrics.total_ios,
            metrics.simulated_seconds,
            metrics.detail.get("flat_partial_runs", "-"),
            metrics.detail.get("data_stack_page_outs", "-"),
        ]

    record_table(
        "Graceful degeneration ablation (flat input, height 2)",
        [
            "configuration",
            "I/Os",
            "sim time (s)",
            "partial runs",
            "data-stack page-outs",
        ],
        [
            row("NEXSORT (paper's impl: no optimization)",
                results["flat_plain"]),
            row("NEXSORT + graceful degeneration", results["flat_opt"]),
            row("external merge sort", results["flat_merge"]),
            row("hierarchical input, plain", results["hier_plain"]),
            row("hierarchical input, optimized", results["hier_opt"]),
        ],
        notes=[
            "the optimization removes the wasted staging pass (zero "
            "data-stack page-outs) and closes most of the gap to merge "
            "sort on flat input; hierarchical inputs are unaffected",
        ],
    )

    flat_plain = results["flat_plain"]
    flat_opt = results["flat_opt"]
    flat_merge = results["flat_merge"]
    # The optimization removes data-stack paging entirely...
    assert flat_plain.detail["data_stack_page_outs"] > 0
    assert flat_opt.detail["data_stack_page_outs"] == 0
    # ...and improves flat-input performance.
    assert flat_opt.simulated_seconds < flat_plain.simulated_seconds
    # Merge sort remains the reference point NEXSORT degenerates toward.
    assert flat_merge.simulated_seconds <= flat_opt.simulated_seconds
    # Hierarchical inputs: the optimization changes little.
    hier_ratio = (
        results["hier_opt"].simulated_seconds
        / results["hier_plain"].simulated_seconds
    )
    assert 0.8 <= hier_ratio <= 1.25
