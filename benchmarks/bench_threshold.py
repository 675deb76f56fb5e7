"""Experiment THR - effect of the sort threshold (paper Section 5).

The paper describes (results "not shown here due to space constraints")
a U-shaped curve: "When the threshold is small, there is a significant
amount of overhead caused by many small sorts.  When the threshold becomes
too large, performance begins to degrade because NEXSORT is sorting large
subtrees with multiple levels using external merge sort ... For the
following experiments, we set the threshold to be roughly twice the block
size, which works well for most inputs."

This bench regenerates that sweep and checks the U-shape and the sweet
spot's neighbourhood.
"""

from repro.bench import (
    BENCH_BLOCK_SIZE,
    bench_scale,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

MEMORY_BLOCKS = 24

#: Thresholds as block-size multiples, half a block to 32 blocks.
THRESHOLD_MULTIPLIERS = [0.5, 1, 2, 4, 8, 16, 32]


def _events():
    deep = 5 if bench_scale() < 2 else 10
    return level_fanout_events([11, 11, 11, deep], seed=8, pad_bytes=24)


def _sweep():
    rows = []
    for multiplier in THRESHOLD_MULTIPLIERS:
        threshold = int(multiplier * BENCH_BLOCK_SIZE)
        metrics = run_config(
            _events,
            PlanConfig(memory_blocks=MEMORY_BLOCKS, threshold_bytes=threshold),
        )
        rows.append((multiplier, metrics))
    return rows


def test_threshold_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    for multiplier, metrics in rows:
        table.append(
            [
                f"{multiplier}x block",
                metrics.detail["threshold_bytes"],
                metrics.simulated_seconds,
                metrics.total_ios,
                metrics.detail["x"],
                metrics.detail["external_sorts"],
            ]
        )
    times = {multiplier: m.simulated_seconds for multiplier, m in rows}
    best = min(times, key=times.get)

    record_table(
        "Effect of sort threshold (Section 5, curve described in text)",
        [
            "threshold",
            "bytes",
            "sim time (s)",
            "I/Os",
            "subtree sorts",
            "external sorts",
        ],
        table,
        notes=[
            f"best threshold in this sweep: {best}x block size "
            "(paper settled on ~2x block size)",
            "small thresholds: many small sorts; large thresholds: "
            "multi-level subtrees sorted externally",
        ],
    )

    # The U-shape: the best point is strictly inside the sweep, and both
    # extremes are worse than the best.
    assert times[best] < times[THRESHOLD_MULTIPLIERS[0]]
    assert times[best] < times[THRESHOLD_MULTIPLIERS[-1]]
    # The paper's choice (2x block) is within 40% of the sweep's best.
    assert times[2] <= 1.4 * times[best]
    # Larger thresholds mean fewer (but bigger) subtree sorts.
    sorts = [m.detail["x"] for _multiplier, m in rows]
    assert sorts == sorted(sorts, reverse=True)
