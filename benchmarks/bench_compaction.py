"""Ablation - the Section 3.2 XML compaction techniques.

The paper implements "compression of tag names and elimination of end
tags, for both NEXSORT and external merge sort".  This ablation measures
what the techniques buy: stored document size and end-to-end sort cost,
for both algorithms, with compaction on and off.
"""

from repro.bench import (
    load_document,
    record_table,
    run_config,
)
from repro.plan import PlanConfig
from repro.generators import level_fanout_events
from repro.xml import CompactionConfig

MEMORY_BLOCKS = 24


def _events():
    return level_fanout_events([11, 11, 11, 5], seed=10, pad_bytes=24)


def _run_all():
    plain_doc = load_document(_events())
    compact_doc = load_document(_events(), compaction=CompactionConfig())
    nexsort = {"memory_blocks": MEMORY_BLOCKS}
    merge = {"algorithm": "merge_sort", "memory_blocks": MEMORY_BLOCKS}
    results = {
        "doc_plain_blocks": plain_doc.block_count,
        "doc_compact_blocks": compact_doc.block_count,
        "nexsort_plain": run_config(_events, PlanConfig(**nexsort)),
        "nexsort_compact": run_config(
            _events, PlanConfig(**nexsort, compact=True)
        ),
        "merge_plain": run_config(_events, PlanConfig(**merge)),
        "merge_compact": run_config(
            _events, PlanConfig(**merge, compact=True)
        ),
    }
    return results


def test_compaction_ablation(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    rows = []
    for algorithm in ("nexsort", "merge"):
        plain = results[f"{algorithm}_plain"]
        compact = results[f"{algorithm}_compact"]
        rows.append(
            [
                algorithm,
                plain.total_ios,
                compact.total_ios,
                f"{(1 - compact.total_ios / plain.total_ios) * 100:.0f}%",
                plain.simulated_seconds,
                compact.simulated_seconds,
            ]
        )

    saved = 1 - results["doc_compact_blocks"] / results["doc_plain_blocks"]
    record_table(
        "Section 3.2 compaction ablation (name dictionary + end-tag "
        "elimination)",
        [
            "algorithm",
            "plain I/Os",
            "compact I/Os",
            "I/O saved",
            "plain (s)",
            "compact (s)",
        ],
        rows,
        notes=[
            f"stored document shrinks {saved * 100:.0f}% "
            f"({results['doc_plain_blocks']} -> "
            f"{results['doc_compact_blocks']} blocks)",
            "the paper enabled these techniques for both algorithms in "
            "all experiments",
        ],
    )

    assert results["doc_compact_blocks"] < results["doc_plain_blocks"]
    for algorithm in ("nexsort", "merge"):
        plain = results[f"{algorithm}_plain"]
        compact = results[f"{algorithm}_compact"]
        assert compact.total_ios < plain.total_ios, algorithm
        assert compact.simulated_seconds < plain.simulated_seconds
