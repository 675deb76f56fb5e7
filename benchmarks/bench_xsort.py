"""Comparison - XSort vs NEXSORT (related work, Section 2).

"Obviously, XSort sorts less, and should complete in less time than
NEXSORT.  However, XSort does not lend itself well to solving the
structural merge problem."  Both halves are measurable: XSort is cheaper
at every size, and an XSort'ed document is *not* mergeable in one pass
(only one level is sorted), which this bench demonstrates by checking
sortedness down the tree.
"""

from repro.baselines import is_fully_sorted, xsort
from repro.bench import (
    BENCH_SPEC,
    load_document,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events

MEMORY_BLOCKS = 24
SHAPES = [[11, 11, 5], [11, 11, 11], [11, 11, 11, 5]]


def _sweep():
    rows = []
    for fanouts in SHAPES:
        def events(fanouts=fanouts):
            return level_fanout_events(fanouts, seed=12, pad_bytes=24)

        document = load_document(events())
        device = document.device
        before = device.stats.snapshot()
        xsorted, xreport = xsort(
            document, BENCH_SPEC, "root", memory_blocks=MEMORY_BLOCKS
        )
        xsort_stats = device.stats.since(before)

        nexsort_metrics = run_config(
            events, PlanConfig(memory_blocks=MEMORY_BLOCKS)
        )
        fully_sorted = is_fully_sorted(xsorted.to_element(), BENCH_SPEC)
        top_sorted = is_fully_sorted(
            xsorted.to_element(), BENCH_SPEC, depth_limit=1
        )
        rows.append(
            (
                nexsort_metrics.element_count,
                xsort_stats,
                xreport,
                nexsort_metrics,
                top_sorted,
                fully_sorted,
            )
        )
    return rows


def test_xsort_vs_nexsort(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    for n, xsort_stats, xreport, nexsort_metrics, top, full in rows:
        table.append(
            [
                n,
                xsort_stats.total_ios,
                xsort_stats.elapsed_seconds(),
                nexsort_metrics.total_ios,
                nexsort_metrics.simulated_seconds,
                "yes" if top else "NO",
                "yes" if full else "no",
            ]
        )

    record_table(
        "XSort vs NEXSORT (related work, Section 2)",
        [
            "elements",
            "XSort I/Os",
            "XSort (s)",
            "NEXSORT I/Os",
            "NEXSORT (s)",
            "level-1 sorted",
            "fully sorted",
        ],
        table,
        notes=[
            "XSort sorts one level only: cheaper, but the output cannot "
            "feed a single-pass structural merge",
        ],
    )

    for _n, xsort_stats, _xr, nexsort_metrics, top, full in rows:
        assert xsort_stats.elapsed_seconds() < (
            nexsort_metrics.simulated_seconds
        )
        assert top  # the targeted level is sorted
        assert not full  # but deeper levels are not
