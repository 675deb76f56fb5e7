"""Experiment F6 - Figure 6: effect of input size at constant max fan-out.

The paper fixes the maximum fan-out at 85 ("to ensure that the input
exhibits enough hierarchicalness"), fixes memory at 3 MB, and grows the
input from 33 MB to 7.9 GB: NEXSORT's time grows roughly *linearly*
(its log factor ``log_{M/B}(kt/B)`` is independent of N), while merge
sort grows *superlinearly*, jumping where the sort gains a pass.

Scaled geometry: max fan-out stays 85; document sizes sweep ~700-16k
elements at 16 blocks of memory, crossing merge sort's 2-pass/3-pass
boundary just as the paper's 1M-element input crossed its.
"""

from repro.bench import (
    ascii_chart,
    bench_scale,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

#: Per-size shapes; every shape has maximum fan-out exactly 85, and the
#: paper's property that growing the input does not change the local
#: subtree geometry ("the maximum fan-out is capped ... to ensure that
#: the input exhibits enough hierarchicalness and does not become
#: array-like as it grows in size").
SIZE_SWEEP = [
    [85, 8],
    [85, 20],
    [85, 45],
    [85, 85],
    [6, 85, 24],
    [12, 85, 24],
]

MEMORY_BLOCKS = 24


def _events_factory(fanouts):
    def events():
        return level_fanout_events(fanouts, seed=6, pad_bytes=24)

    return events


def _sweep():
    rows = []
    sizes = list(SIZE_SWEEP)
    if bench_scale() >= 2:
        sizes.append([24, 85, 24])
    for fanouts in sizes:
        factory = _events_factory(fanouts)
        nexsort_metrics = run_config(
            factory, PlanConfig(memory_blocks=MEMORY_BLOCKS)
        )
        merge_metrics = run_config(
            factory,
            PlanConfig(algorithm="merge_sort", memory_blocks=MEMORY_BLOCKS),
        )
        rows.append((nexsort_metrics, merge_metrics))
    return rows


def test_fig6_effect_of_input_size(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    for nexsort_metrics, merge_metrics in rows:
        table.append(
            [
                nexsort_metrics.element_count,
                nexsort_metrics.input_blocks,
                nexsort_metrics.simulated_seconds,
                merge_metrics.simulated_seconds,
                merge_metrics.detail["passes"],
                nexsort_metrics.simulated_seconds
                / nexsort_metrics.element_count
                * 1e3,
            ]
        )

    record_table(
        "Figure 6 - effect of input size (max fan-out fixed at 85)",
        [
            "elements",
            "blocks",
            "NEXSORT (s)",
            "merge sort (s)",
            "merge passes",
            "NEXSORT ms/elem",
        ],
        table,
        chart=ascii_chart(
            [m.element_count for m, _ in rows],
            {
                "NeXSort": [m.simulated_seconds for m, _ in rows],
                "Merge Sort": [
                    mm.simulated_seconds for _m, mm in rows
                ],
            },
            y_label="simulated sort time (s) vs document size (elements)",
        ),
        notes=[
            "paper: NEXSORT grows roughly linearly; merge sort "
            "superlinearly with jumps at pass transitions",
        ],
    )

    # NEXSORT linearity: doubling the input (same local geometry, the
    # last two sweep points) leaves the per-element rate flat.
    rates = [
        m.simulated_seconds / m.element_count for m, _ in rows
    ]
    assert 0.7 <= rates[-1] / rates[-2] <= 1.4, rates

    # Merge sort gains at least one pass across the sweep (the jump).
    passes = [mm.detail["passes"] for _, mm in rows]
    assert passes[-1] > passes[0], passes

    # NEXSORT wins at the largest size, where the extra pass bites.
    final_nexsort, final_merge = rows[-1]
    assert (
        final_nexsort.simulated_seconds < final_merge.simulated_seconds
    )
