"""Experiment BP - buffer pool: I/O saved per cached block.

The paper's numbers come from TPIE running over a real filesystem, which
always has a buffer cache between the algorithm and the disk; the model in
:mod:`repro.io.device` charges every access.  This experiment measures the
gap: the Figure-5 workload is sorted with a growing slice of *additional*
memory spent on the :class:`~repro.io.bufferpool.BufferPool`, from no cache
up to ``M/2`` blocks.

The cache is granted on top of ``M`` (``memory_blocks = M + cache``) so the
sorting phase sees the same effective memory at every point and the run
tree stays identical; the sweep isolates what caching alone buys.  The
``cache=0`` row therefore reproduces the paper-model I/O counts exactly.

Results also land in ``BENCH_bufferpool.json`` next to this file so the
sweep can be diffed across revisions.
"""

import json
from pathlib import Path

from repro.bench import (
    ascii_chart,
    bench_scale,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

#: The model parameter M (blocks) the sort itself runs with.
BASE_MEMORY = 32

#: Cache sizes swept, in blocks on top of BASE_MEMORY: 0 .. M/2.
CACHE_SWEEP = [0, 2, 4, 8, 12, 16]

_JSON_PATH = Path(__file__).parent / "BENCH_bufferpool.json"


def _events():
    deep = 5 if bench_scale() < 2 else 10
    return level_fanout_events([11, 11, 11, deep], seed=5, pad_bytes=24)


def _sweep():
    rows = []
    for cache in CACHE_SWEEP:
        metrics = run_config(
            _events,
            PlanConfig(memory_blocks=BASE_MEMORY + cache, cache_blocks=cache),
        )
        rows.append((cache, metrics))
    return rows


def test_bufferpool_cache_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    records = []
    for cache, metrics in rows:
        hits = metrics.detail["cache_hits"]
        misses = metrics.detail["cache_misses"]
        lookups = hits + misses
        hit_rate = hits / lookups if lookups else 0.0
        table.append(
            [
                cache,
                metrics.total_ios,
                metrics.detail["output_reads"],
                f"{hit_rate * 100:.0f}%",
                metrics.detail["cache_evictions"],
                metrics.simulated_seconds,
            ]
        )
        records.append(
            {
                "cache_blocks": cache,
                "memory_blocks": BASE_MEMORY + cache,
                "total_ios": metrics.total_ios,
                "output_reads": metrics.detail["output_reads"],
                "cache_hits": hits,
                "cache_misses": misses,
                "cache_evictions": metrics.detail["cache_evictions"],
                "hit_rate": round(hit_rate, 4),
                "simulated_seconds": metrics.simulated_seconds,
                "phases": metrics.detail["phases"],
            }
        )

    _JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "bufferpool_cache_sweep",
                "workload": "level_fanout [11,11,11,deep] seed=5 pad=24",
                "base_memory_blocks": BASE_MEMORY,
                "rows": records,
            },
            indent=2,
        )
        + "\n"
    )

    total_ios = [m.total_ios for _c, m in rows]
    record_table(
        "Buffer pool - I/O saved per cached block "
        f"(M = {BASE_MEMORY} blocks)",
        [
            "cache (blocks)",
            "total I/Os",
            "output reads",
            "hit rate",
            "evictions",
            "simulated (s)",
        ],
        table,
        chart=ascii_chart(
            CACHE_SWEEP,
            {"NEXSORT": total_ios},
            y_label="total I/Os vs cache blocks",
        ),
        notes=[
            "cache granted on top of M: the run tree is identical at "
            "every point, the delta is pure caching",
            "cache=0 is the paper model (no pool constructed at all)",
            f"full sweep written to {_JSON_PATH.name}",
        ],
    )

    baseline = total_ios[0]
    # Caching never costs I/Os, and by M/2 it saves a measurable slice.
    assert all(ios <= baseline for ios in total_ios)
    assert total_ios[-1] < baseline
