"""Pooled vs unpooled accounting parity across the MergeOptions grid.

A buffer pool must be *transparent*: giving a sort ``C`` extra memory
blocks and spending exactly those ``C`` on a pool leaves the sort's
effective memory - and therefore its run tree, its comparison counts,
and its output - unchanged.  The pool may only elide device I/O, never
change what the sort computes:

* the output document is bit-identical;
* every CPU-side counter (tokens, comparisons, merge comparisons) is
  identical - caching is invisible to the algorithm;
* device writes never increase (write-back elides rewrites and
  freed-dirty writes);
* every elided read is accounted as a cache hit:
  ``reads_pooled + cache_hits >= reads_unpooled`` (readahead may
  overshoot, so reads alone may exceed the unpooled count).

The exhaustive test pins the full run-formation x merge-kernel grid for
both sorters; the hypothesis test fuzzes the
memory budget, pool size, and document shape on top.

The byte-record implementation has a stricter contract than the pool: it
replaced a token-object ("scalar") implementation and must reproduce
*every* result of it - output bytes, every counter (reads, writes,
sequential/random classification, tokens, comparisons, merge
comparisons, cache traffic) and the per-phase trace breakdown.  The
scalar results are frozen in ``scalar_reference.json``;
:class:`TestKernelParity` checks each cell.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import external_merge_sort, sort_element
from repro.core import nexsort
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, ByText, SortSpec
from repro.merge.engine import MergeOptions
from repro.obs import Tracer
from repro.xml.compact import CompactionConfig
from repro.xml.document import Document

from .conftest import scalar_reference, sha256_text

SPEC = SortSpec(default=ByAttribute("name"))
TEXT_SPEC = SortSpec(default=ByText())

GRID = list(
    itertools.product(
        ["load-sort", "replacement-selection"],
        ["heap", "loser-tree"],
    )
)

#: Compaction axis of the kernel-parity grid (Section 3.2): no
#: compaction, name dictionary only, and the full config (dictionary +
#: end-tag elimination).
COMPACTION_MODES = [None, "names", "full"]


def make_compaction(mode):
    if mode is None:
        return None
    if mode == "names":
        return CompactionConfig(eliminate_end_tags=False)
    if mode == "levels":
        return CompactionConfig(names=None)
    return CompactionConfig()


def sort_once(
    algorithm, memory, cache, options, fanouts=(6, 6, 6), seed=3,
    compaction=None,
):
    device = BlockDevice(block_size=512)
    store = RunStore(device)
    document = Document.from_events(
        store,
        level_fanout_events(list(fanouts), seed=seed, pad_bytes=24),
        compaction=make_compaction(compaction),
    )
    sorter = nexsort if algorithm == "nexsort" else external_merge_sort
    output, _report = sorter(
        document,
        SPEC,
        memory_blocks=memory,
        cache_blocks=cache,
        merge_options=options,
    )
    return output.to_string(), device.stats.snapshot().counter_totals()


def sort_traced(
    algorithm, memory, cache, options, fanouts=(6, 6, 6), seed=3,
    compaction=None, spec=SPEC, text_leaves=False, flat=False,
):
    """Like sort_once, plus the per-phase trace breakdown."""
    device = BlockDevice(block_size=512)
    store = RunStore(device)
    document = Document.from_events(
        store,
        level_fanout_events(
            list(fanouts), seed=seed, pad_bytes=24, text_leaves=text_leaves
        ),
        compaction=make_compaction(compaction),
    )
    tracer = Tracer(device.stats)
    extra = {"flat_optimization": True} if flat else {}
    sorter = nexsort if algorithm == "nexsort" else external_merge_sort
    output, _report = sorter(
        document,
        spec,
        memory_blocks=memory,
        cache_blocks=cache,
        merge_options=options,
        tracer=tracer,
        **extra,
    )
    trace = tracer.finish()
    return (
        output.to_string(),
        device.stats.snapshot().counter_totals(),
        trace.phase_breakdown(),
    )


def assert_parity(unpooled, pooled):
    text_u, totals_u = unpooled
    text_p, totals_p = pooled
    assert text_p == text_u
    for key in ("tokens", "comparisons", "merge_comparisons"):
        assert totals_p[key] == totals_u[key], key
    assert totals_p["writes"] <= totals_u["writes"]
    assert (
        totals_p["reads"] + totals_p["cache_hits"] >= totals_u["reads"]
    )
    # The unpooled run must be genuinely unpooled.
    assert totals_u["cache_hits"] == 0
    assert totals_u["cache_misses"] == 0


class TestMergeOptionsGrid:
    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    @pytest.mark.parametrize("run_formation,merge_kernel", GRID)
    def test_pool_is_transparent(self, algorithm, run_formation, merge_kernel):
        options = MergeOptions(
            run_formation=run_formation, merge_kernel=merge_kernel
        )
        cache = 4
        unpooled = sort_once(algorithm, 12, 0, options)
        pooled = sort_once(algorithm, 12 + cache, cache, options)
        assert_parity(unpooled, pooled)
        # The pool actually did something on this workload.
        assert pooled[1]["cache_misses"] > 0


def assert_matches_reference(cell, run):
    """``run()`` reproduces a frozen scalar cell."""
    expected = scalar_reference(cell)
    text, totals, phases = run()
    assert sha256_text(text) == expected["output_sha256"]
    assert totals == expected["counters"]
    assert phases == expected["phases"]


def grid_options(run_formation, merge_kernel):
    return MergeOptions(
        run_formation=run_formation, merge_kernel=merge_kernel
    )


#: End-tag keys, graceful degeneration and an external root sort
#: (the first two took NEXSORT's token scan when the results were frozen):
#: (memory, keyword arguments of sort_traced).
TOKEN_SCAN_CELLS = {
    # Keys at end tags, then an external region sort.
    "text-key": (
        6, dict(fanouts=(60, 4), spec=TEXT_SPEC, text_leaves=True)
    ),
    # Graceful degeneration: partial runs merged when the root closes.
    "flat": (8, dict(fanouts=(400,), flat=True)),
    # Fused scan, but the root subtree exceeds memory.
    "external": (6, dict(fanouts=(60, 4))),
}


class TestKernelParity:
    """The byte-record path reproduces the frozen scalar results, bit for
    bit: same output bytes, same counter totals including the
    sequential/random I/O split, same per-phase breakdown."""

    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    @pytest.mark.parametrize("run_formation,merge_kernel", GRID)
    def test_columnar_matches_scalar_unpooled(
        self, algorithm, run_formation, merge_kernel
    ):
        options = grid_options(run_formation, merge_kernel)
        assert_matches_reference(
            f"grid/{algorithm}/{run_formation}/{merge_kernel}/m12c0",
            lambda: sort_traced(algorithm, 12, 0, options),
        )

    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    @pytest.mark.parametrize("compaction", ["names", "levels", "full"])
    def test_columnar_matches_scalar_compacted(self, algorithm, compaction):
        """The contract holds under Section 3.2 compaction too."""
        assert_matches_reference(
            f"compacted/{algorithm}/{compaction}",
            lambda: sort_traced(
                algorithm, 12, 0, MergeOptions(), compaction=compaction
            ),
        )

    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    def test_columnar_matches_scalar_pooled(self, algorithm):
        for run_formation, merge_kernel in GRID:
            options = grid_options(run_formation, merge_kernel)
            assert_matches_reference(
                f"grid/{algorithm}/{run_formation}/{merge_kernel}/m16c4",
                lambda: sort_traced(algorithm, 16, 4, options),
            )

    @pytest.mark.parametrize("shape", sorted(TOKEN_SCAN_CELLS))
    @pytest.mark.parametrize("run_formation,merge_kernel", GRID)
    def test_token_scan_matches_scalar(
        self, shape, run_formation, merge_kernel
    ):
        memory, kwargs = TOKEN_SCAN_CELLS[shape]
        options = grid_options(run_formation, merge_kernel)
        assert_matches_reference(
            f"{shape}/{run_formation}/{merge_kernel}",
            lambda: sort_traced("nexsort", memory, 0, options, **kwargs),
        )


class TestFuzzedParity:
    @settings(max_examples=12, deadline=None)
    @given(
        algorithm=st.sampled_from(["nexsort", "merge_sort"]),
        run_formation=st.sampled_from(
            ["load-sort", "replacement-selection"]
        ),
        merge_kernel=st.sampled_from(["heap", "loser-tree"]),
        memory=st.integers(min_value=10, max_value=16),
        cache=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=1, max_value=4),
        fanouts=st.sampled_from([(6, 6, 6), (4, 5, 6), (3, 4, 4, 3)]),
    )
    def test_pool_is_transparent_fuzzed(
        self,
        algorithm,
        run_formation,
        merge_kernel,
        memory,
        cache,
        seed,
        fanouts,
    ):
        options = grid_options(run_formation, merge_kernel)
        unpooled = sort_once(
            algorithm, memory, 0, options, fanouts=fanouts, seed=seed
        )
        pooled = sort_once(
            algorithm,
            memory + cache,
            cache,
            options,
            fanouts=fanouts,
            seed=seed,
        )
        assert_parity(unpooled, pooled)

    @settings(max_examples=16, deadline=None)
    @given(
        algorithm=st.sampled_from(["nexsort", "merge_sort"]),
        run_formation=st.sampled_from(
            ["load-sort", "replacement-selection"]
        ),
        merge_kernel=st.sampled_from(["heap", "loser-tree"]),
        memory=st.integers(min_value=10, max_value=16),
        cache=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=1, max_value=4),
        fanouts=st.sampled_from([(6, 6, 6), (4, 5, 6), (3, 4, 4, 3)]),
        compaction=st.sampled_from([None, "names", "levels", "full"]),
    )
    def test_matches_oracle_deterministically_fuzzed(
        self,
        algorithm,
        run_formation,
        merge_kernel,
        memory,
        cache,
        seed,
        fanouts,
        compaction,
    ):
        """Output equals the DOM oracle, and a repeated run reproduces
        every counter and phase (so ``sim_s`` is deterministic)."""

        def run():
            return sort_traced(
                algorithm,
                memory + cache,
                cache,
                grid_options(run_formation, merge_kernel),
                fanouts=fanouts,
                seed=seed,
                compaction=compaction,
            )

        first = run()
        assert run() == first
        tree = Document.from_events(
            RunStore(BlockDevice(block_size=512)),
            level_fanout_events(list(fanouts), seed=seed, pad_bytes=24),
        ).to_element()
        expected = Document.from_element(
            RunStore(BlockDevice(block_size=512)), sort_element(tree, SPEC)
        ).to_string()
        assert first[0] == expected
