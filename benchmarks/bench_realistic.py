"""Realistic workload - an XMark-style auction site.

The paper's generators produce uniform shapes; real exchanged XML (the
auction-site workload of the XMark benchmark family) mixes wide fan-outs,
deep personalia paths, text, and skewed subtree sizes.  This bench runs
all three sorters on such a document and checks that the planner's pick
(the plan ``repro sort --plan auto`` and ``repro analyze`` print) holds up
outside the paper's synthetic shapes.
"""

from repro.analysis import Planner, profile_document
from repro.baselines import xsort
from repro.bench import (
    bench_scale,
    load_document,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.core import nexsort
from repro.generators import auction_events, auction_spec

MEMORY_BLOCKS = 24


def _events():
    per_region = int(50 * bench_scale())
    return auction_events(per_region, seed=7, regions=12)


def _run():
    spec = auction_spec()

    document = load_document(_events())
    plan = Planner(
        profile_document(document),
        memory_blocks=MEMORY_BLOCKS,
        block_size=document.device.block_size,
    ).choose(fixed={"memory_blocks": MEMORY_BLOCKS, "disks": 1})

    doc = load_document(_events())
    _out, nexsort_report = nexsort(doc, spec, memory_blocks=MEMORY_BLOCKS)

    doc = load_document(_events())
    device = doc.device
    before = device.stats.snapshot()
    _out, _xreport = xsort(
        doc, spec, "site/region", memory_blocks=MEMORY_BLOCKS
    )
    xsort_stats = device.stats.since(before)

    merge_metrics = run_config(
        _events,
        PlanConfig(algorithm="merge_sort", memory_blocks=MEMORY_BLOCKS),
        spec=spec,
    )
    return document, plan, nexsort_report, xsort_stats, merge_metrics


def test_realistic_auction_workload(benchmark):
    document, plan, nexsort_report, xsort_stats, merge_metrics = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )

    record_table(
        "Realistic workload - XMark-style auction site",
        ["algorithm", "I/Os", "sim time (s)", "notes"],
        [
            [
                "NEXSORT",
                nexsort_report.total_ios,
                nexsort_report.simulated_seconds,
                f"{nexsort_report.x} subtree sorts "
                f"({nexsort_report.internal_sorts} internal)",
            ],
            [
                "external merge sort",
                merge_metrics.total_ios,
                merge_metrics.simulated_seconds,
                f"{merge_metrics.detail['passes']} passes",
            ],
            [
                "XSort (auctions per region only)",
                xsort_stats.total_ios,
                xsort_stats.elapsed_seconds(),
                "one level, not merge-ready",
            ],
        ],
        notes=[
            f"document: {document.element_count} elements, height "
            f"{document.height}, max fan-out {document.max_fanout}",
            f"planner picks: {plan.config.algorithm} (predicted "
            f"{plan.cost.total_seconds:.3f} s, "
            f"{plan.cost.total_ios:.0f} I/Os)",
            "NEXSORT wins the I/O count; on this small, pointer-dense "
            "document the output phase's run-to-run jumps are seek-heavy, "
            "so the simulated-time winner depends on the disk model - the "
            "regime the paper's conclusion flags for future work "
            "(permutation cost when subtrees are small)",
        ],
    )

    # The planner picks NEXSORT on this hierarchical document, and
    # NEXSORT indeed wins on the paper's primary metric (block I/Os).
    assert plan.config.algorithm == "nexsort"
    assert nexsort_report.total_ios < merge_metrics.total_ios
    # XSort (one level) is the cheapest, as the related work predicts.
    assert xsort_stats.elapsed_seconds() < nexsort_report.simulated_seconds
    assert xsort_stats.total_ios < nexsort_report.total_ios
