"""Experiment F5 - Figure 5: effect of main memory size.

The paper runs NEXSORT and external merge sort over one hierarchical
document while sweeping main memory (4-32 MB of 64 KB blocks) and finds:
merge sort is 13-27% slower overall; NEXSORT's time "increases only
marginally" as memory shrinks while merge sort's "increases more
dramatically, especially when decreased memory forces additional passes".

Scaled geometry: 512-byte blocks, ~45-byte elements, a four-level document
(fan-outs 11/11/11/5, ~8k elements), memory swept 16-96 blocks - the same
``M/B`` range relative to the document.
"""

from repro.bench import (
    ascii_chart,
    bench_scale,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

MEMORY_SWEEP = [16, 24, 32, 48, 64, 96]


def _events():
    deep = 5 if bench_scale() < 2 else 10
    return level_fanout_events([11, 11, 11, deep], seed=5, pad_bytes=24)


def _sweep():
    rows = []
    for memory in MEMORY_SWEEP:
        nexsort_metrics = run_config(_events, PlanConfig(memory_blocks=memory))
        merge_metrics = run_config(
            _events, PlanConfig(algorithm="merge_sort", memory_blocks=memory)
        )
        rows.append((memory, nexsort_metrics, merge_metrics))
    return rows


def test_fig5_effect_of_main_memory(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    slowdowns = []
    for memory, nexsort_metrics, merge_metrics in rows:
        ratio = (
            merge_metrics.simulated_seconds
            / nexsort_metrics.simulated_seconds
        )
        slowdowns.append(ratio)
        table.append(
            [
                memory,
                nexsort_metrics.simulated_seconds,
                merge_metrics.simulated_seconds,
                f"{(ratio - 1) * 100:+.0f}%",
                nexsort_metrics.total_ios,
                merge_metrics.total_ios,
                merge_metrics.detail["passes"],
            ]
        )

    nexsort_times = [r[1].simulated_seconds for r in rows]
    merge_times = [r[2].simulated_seconds for r in rows]
    nexsort_spread = max(nexsort_times) / min(nexsort_times)
    merge_spread = max(merge_times) / min(merge_times)

    record_table(
        "Figure 5 - effect of main memory size",
        [
            "memory (blocks)",
            "NEXSORT (s)",
            "merge sort (s)",
            "merge vs nexsort",
            "NEXSORT I/Os",
            "merge I/Os",
            "merge passes",
        ],
        table,
        chart=ascii_chart(
            MEMORY_SWEEP,
            {"NeXSort": nexsort_times, "Merge Sort": merge_times},
            y_label="simulated sort time (s) vs memory (blocks)",
        ),
        notes=[
            f"NEXSORT spread over the sweep: {nexsort_spread:.2f}x; "
            f"merge sort spread: {merge_spread:.2f}x "
            "(paper: NEXSORT 'increases only marginally', merge sort "
            "'more dramatically')",
            "paper reports merge sort 13-27% slower across its sweep",
        ],
    )

    # The figure's shape: merge sort more memory-sensitive, and slower
    # at every small-to-moderate memory size.
    assert merge_spread > nexsort_spread
    for memory, nexsort_metrics, merge_metrics in rows[:4]:
        assert (
            merge_metrics.simulated_seconds
            > nexsort_metrics.simulated_seconds
        ), f"merge sort should be slower at {memory} blocks"
