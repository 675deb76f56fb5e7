"""Experiment RF - run formation & merge kernel: the engine knobs.

External merge sort is swept over the :class:`~repro.merge.engine.
MergeOptions` grid on the paper's two baseline workloads:

* Figure 5 shape ``[11, 11, 11, deep]`` (seed 5) - the memory-sweep
  document, here at the mid-range budget, to measure what the
  loser-tree kernel does to CPU cost;
* Figure 6 largest shape ``[12, 85, 24]`` (seed 6) - the big flat-ish
  input where replacement selection's longer runs matter most.

Expectations checked at the end:

* replacement selection cuts the initial run count by >= 30% against
  load-sort formation on the Figure-6 workload (theory says ~2x longer
  runs on random input), and never increases merge-pass I/Os on any
  workload;
* the loser tree strictly lowers both counted key comparisons and
  simulated CPU seconds against the heap kernel on the Figure-5 workload (<= ceil(log2 k) comparisons per record versus the
  analytic heap charge).

Results land in ``BENCH_runformation.json`` next to this file so the
sweep can be diffed across revisions.
"""

import json
from pathlib import Path

from repro.bench import ascii_chart, bench_scale, record_table
from repro.bench.harness import run_config
from repro.generators import level_fanout_events
from repro.plan import PlanConfig

MEMORY_BLOCKS = 24

_JSON_PATH = Path(__file__).parent / "BENCH_runformation.json"

#: The MergeOptions grid: both formation modes crossed with both merge
#: kernels.
CONFIGS = [
    ("load-sort", "heap"),
    ("load-sort", "loser-tree"),
    ("replacement-selection", "heap"),
    ("replacement-selection", "loser-tree"),
]


def _fig5_events():
    deep = 5 if bench_scale() < 2 else 10
    return level_fanout_events([11, 11, 11, deep], seed=5, pad_bytes=24)


def _fig6_events():
    return level_fanout_events([12, 85, 24], seed=6, pad_bytes=24)


WORKLOADS = [
    ("fig5", "level_fanout [11,11,11,deep] seed=5", _fig5_events),
    ("fig6", "level_fanout [12,85,24] seed=6", _fig6_events),
]


def _merge_pass_ios(detail: dict) -> int:
    breakdown = detail["breakdown"]
    return sum(
        total
        for category, total in breakdown.items()
        if category.startswith("merge_")
    )


def _config_label(formation: str, kernel: str) -> str:
    short = "RS" if formation == "replacement-selection" else "LS"
    return f"{short}/{kernel}"


def _sweep():
    rows = []
    for workload, _desc, events in WORKLOADS:
        for formation, kernel in CONFIGS:
            metrics = run_config(
                events,
                PlanConfig(
                    algorithm="merge_sort",
                    memory_blocks=MEMORY_BLOCKS,
                    run_formation=formation,
                    merge_kernel=kernel,
                ),
            )
            rows.append((workload, formation, kernel, metrics))
    return rows


def test_runformation_merge_kernel_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    records = []
    by_key = {}
    for workload, formation, kernel, metrics in rows:
        detail = metrics.detail
        merge_ios = _merge_pass_ios(detail)
        by_key[(workload, formation, kernel)] = metrics
        table.append(
            [
                workload,
                _config_label(formation, kernel),
                detail["initial_runs"],
                f"{detail['avg_run_length']:.1f}",
                detail["max_run_length"],
                merge_ios,
                detail["comparisons"],
                f"{detail['cpu_seconds']:.4f}",
            ]
        )
        records.append(
            {
                "workload": workload,
                "run_formation": formation,
                "merge_kernel": kernel,
                "memory_blocks": MEMORY_BLOCKS,
                "initial_runs": detail["initial_runs"],
                "avg_run_length": round(detail["avg_run_length"], 2),
                "max_run_length": detail["max_run_length"],
                "merge_pass_ios": merge_ios,
                "total_ios": metrics.total_ios,
                "comparisons": detail["comparisons"],
                "merge_comparisons": detail["merge_comparisons"],
                "cpu_seconds": round(detail["cpu_seconds"], 6),
                "simulated_seconds": metrics.simulated_seconds,
                "phases": detail["phases"],
            }
        )

    _JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "runformation_merge_kernel_sweep",
                "workloads": {
                    name: desc for name, desc, _events in WORKLOADS
                },
                "memory_blocks": MEMORY_BLOCKS,
                "rows": records,
            },
            indent=2,
        )
        + "\n"
    )

    fig6_runs = {
        _config_label(f, k): by_key[("fig6", f, k)].detail["initial_runs"]
        for f, k in CONFIGS
    }
    record_table(
        "Run formation & merge kernel "
        f"(M = {MEMORY_BLOCKS} blocks)",
        [
            "workload",
            "config",
            "runs",
            "avg len",
            "max len",
            "merge I/Os",
            "comparisons",
            "cpu (s)",
        ],
        table,
        chart=ascii_chart(
            list(range(len(fig6_runs))),
            {"fig6 initial runs": list(fig6_runs.values())},
            y_label="initial runs per config (fig6)",
        ),
        notes=[
            "LS = load-sort formation, RS = replacement selection",
            "merge I/Os = merge_read + merge_write block accesses",
            f"full sweep written to {_JSON_PATH.name}",
        ],
    )

    # Replacement selection: >= 30% fewer initial runs on the big
    # Figure-6 input (compare like with like: same kernel).
    kernels = sorted({k for _f, k in CONFIGS})
    for kernel in kernels:
        load = by_key[("fig6", "load-sort", kernel)]
        rs = by_key[("fig6", "replacement-selection", kernel)]
        assert (
            rs.detail["initial_runs"]
            <= 0.7 * load.detail["initial_runs"]
        ), kernel

    # ... and never pays for it with extra merge-pass I/Os.
    for workload, _desc, _events in WORKLOADS:
        for kernel in kernels:
            load = by_key[(workload, "load-sort", kernel)]
            rs = by_key[(workload, "replacement-selection", kernel)]
            assert _merge_pass_ios(rs.detail) <= _merge_pass_ios(
                load.detail
            ), (workload, kernel)

    # Loser tree: strictly cheaper CPU than the heap kernel on the
    # Figure-5 workload, for both formation modes.
    for formation in ("load-sort", "replacement-selection"):
        heap = by_key[("fig5", formation, "heap")]
        fast = by_key[("fig5", formation, "loser-tree")]
        assert (
            fast.detail["comparisons"] < heap.detail["comparisons"]
        ), formation
        assert (
            fast.detail["cpu_seconds"] < heap.detail["cpu_seconds"]
        ), formation
