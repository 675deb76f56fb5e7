"""Experiment LB - the Section 4 analysis against measured executions.

Checks, on real instrumented runs, that:

* measured NEXSORT I/Os stay within a small constant factor of the
  Theorem 4.5 upper bound (and never beat the Theorem 4.4 lower bound by
  more than the accounting slack);
* the outcome-counting argument (Lemmas 4.1-4.2) - the structured outcome
  space is exponentially smaller than the flat one;
* the analytic merge sort pass model matches the implementation.
"""

from repro.analysis import (
    ModelGeometry,
    log2_flat_outcomes,
    log2_max_outcomes,
    merge_sort_passes,
    nexsort_upper_bound_ios,
    sorting_lower_bound_ios,
)
from repro.bench import (
    load_document,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

GEOMETRIES = [
    ("bushy h4", [11, 11, 11], 24),
    ("deep h5", [7, 7, 7, 7], 24),
    ("wide h3", [60, 40], 24),
    ("tight memory", [11, 11, 11], 8),
]


def _run_all():
    rows = []
    for label, fanouts, memory in GEOMETRIES:
        def events(fanouts=fanouts):
            return level_fanout_events(fanouts, seed=9, pad_bytes=24)

        document = load_document(events())
        geometry = ModelGeometry.from_document(document, memory)
        metrics = run_config(events, PlanConfig(memory_blocks=memory))
        merge_metrics = run_config(
            events, PlanConfig(algorithm="merge_sort", memory_blocks=memory)
        )
        upper = nexsort_upper_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k, 2 * geometry.B
        )
        lower = sorting_lower_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k
        )
        predicted_passes = merge_sort_passes(
            geometry.N, geometry.B, geometry.M
        )
        rows.append(
            (
                label,
                geometry,
                metrics,
                merge_metrics,
                upper,
                lower,
                predicted_passes,
            )
        )
    return rows


def test_bounds_against_measurements(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    table = []
    for label, geometry, metrics, merge_metrics, upper, lower, passes in rows:
        factor = metrics.total_ios / upper
        table.append(
            [
                label,
                geometry.N,
                geometry.k,
                f"{lower:.0f}",
                f"{upper:.0f}",
                metrics.total_ios,
                f"{factor:.1f}",
                merge_metrics.detail["passes"],
                passes,
            ]
        )

    record_table(
        "Theorem 4.4 / 4.5 - bounds vs measured I/Os",
        [
            "workload",
            "N",
            "k",
            "Thm4.4 lower",
            "Thm4.5 upper",
            "measured",
            "measured/upper",
            "merge passes",
            "model passes",
        ],
        table,
        notes=[
            "bounds carry constants 1; a bounded measured/upper factor "
            "across geometries is the Theorem 4.5 claim",
        ],
    )

    for label, geometry, metrics, merge_metrics, upper, lower, passes in rows:
        # Within a fixed constant of the upper bound, for every geometry.
        assert metrics.total_ios <= 16 * upper, label
        # Never below the lower bound (sanity on the accounting).
        assert metrics.total_ios >= lower, label
        # The analytic pass model tracks the implementation.
        assert abs(merge_metrics.detail["passes"] - passes) <= 1, label


def test_outcome_counting_shrinks_with_structure(benchmark):
    def compute():
        rows = []
        for n, k in ((1000, 5), (1000, 50), (10000, 5), (10000, 500)):
            structured = log2_max_outcomes(n, k)
            flat = log2_flat_outcomes(n)
            rows.append((n, k, structured, flat, flat / structured))
        return rows

    rows = benchmark(compute)
    record_table(
        "Lemmas 4.1-4.2 - sorting outcome space, structured vs flat",
        ["N", "k", "log2 outcomes (XML)", "log2 outcomes (flat)", "ratio"],
        [[n, k, f"{s:.0f}", f"{f:.0f}", f"{r:.1f}x"] for n, k, s, f, r in rows],
        notes=[
            "the hierarchy's constraint is why XML sorting is "
            "fundamentally easier than flat sorting (Theorem 4.4)",
        ],
    )
    for _n, _k, structured, flat, _ratio in rows:
        assert structured < flat
