"""NEXSORT's document scan reproduces its frozen results.

``nexsort_scan_reference.json`` holds - for the scan inputs that neither
``scalar_reference.json`` nor ``external_subtree_reference.json`` reaches -
the output sha256, ``counter_totals()``, the per-phase trace breakdown and
the report's run and graceful-degeneration figures:

* keys evaluated at end tags under a mixed spec: the auction criterion
  (attribute default, a child-path rule, a composite attribute rule) on an
  auction document, plain and dictionary-coded, with counted comparisons
  and with graceful degeneration;
* graceful degeneration (``flat_optimization``) under every compaction
  mode, with replacement selection and counted comparisons on compacted
  input, with a ``text()`` key, with a buffer pool, with pointer children
  inside the flushed regions, and with flushes of a non-root element.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.core import nexsort
from repro.generators import auction_events, level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, ByText, SortSpec
from repro.merge.engine import MergeOptions
from repro.obs import Tracer
from repro.xml.compact import CompactionConfig
from repro.xml.document import Document

from .conftest import sha256_text

SPECS = {
    "name": SortSpec(default=ByAttribute("name")),
    "text": SortSpec(default=ByText()),
    "auction": SortSpec.parse(
        "*=@name, open_auction=item/quantity, bid=@amount+@at, item=@id"
    ),
}

COMPACTIONS = {
    None: None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "levels": lambda: CompactionConfig(names=None),
    "full": CompactionConfig,
}


def _cell(
    fanouts=(400,),
    memory=8,
    compaction=None,
    spec="name",
    flat=True,
    **kwargs,
):
    """A cell's configuration; ``options`` are MergeOptions fields."""
    return dict(
        fanouts=fanouts,
        memory=memory,
        compaction=compaction,
        spec=spec,
        flat=flat,
        **kwargs,
    )


def _auction(memory=6, flat=False, **kwargs):
    return _cell(
        fanouts=None, memory=memory, spec="auction", flat=flat, **kwargs
    )


#: Cell name -> configuration (512-byte blocks throughout).
CELLS = {
    "child-path/auction": _auction(),
    "child-path/auction/names": _auction(compaction="names"),
    "child-path/auction/loser-tree": _auction(
        options=dict(merge_kernel="loser-tree")
    ),
    "child-path/auction/flat": _auction(memory=8, flat=True),
    **{
        f"flat/{mode}": _cell(compaction=mode)
        for mode in ("names", "levels", "full")
    },
    "flat/full/replacement-selection": _cell(
        compaction="full",
        options=dict(run_formation="replacement-selection"),
    ),
    "flat/levels/loser-tree": _cell(
        compaction="levels", options=dict(merge_kernel="loser-tree")
    ),
    "flat/text-key": _cell(spec="text", text_leaves=True),
    "flat/text-key/names": _cell(
        spec="text", text_leaves=True, compaction="names"
    ),
    "flat/pooled": _cell(memory=12, cache_blocks=4),
    "flat/pooled/full": _cell(memory=12, cache_blocks=4, compaction="full"),
    # Level-2 subtrees collapse to pointers before the root flushes.
    "flat/pointers": _cell(fanouts=(100, 30)),
    "flat/pointers/full": _cell(fanouts=(100, 30), compaction="full"),
    # The flushing elements sit one level below the root.
    "flat/deep": _cell(fanouts=(3, 300)),
    "flat/deep/text-key": _cell(
        fanouts=(3, 300), spec="text", text_leaves=True
    ),
}


def run_cell(config: dict) -> dict:
    """One traced NEXSORT run of a cell, summarized for the reference."""
    device = BlockDevice(block_size=512)
    store = RunStore(device)
    compaction = COMPACTIONS[config["compaction"]]
    if config["fanouts"] is None:
        events = auction_events(auctions_per_region=8, seed=3, regions=3)
    else:
        events = level_fanout_events(
            list(config["fanouts"]),
            seed=3,
            pad_bytes=24,
            text_leaves=config.get("text_leaves", False),
        )
    document = Document.from_events(
        store,
        events,
        compaction=compaction() if compaction is not None else None,
    )
    tracer = Tracer(device.stats)
    output, report = nexsort(
        document,
        SPECS[config["spec"]],
        memory_blocks=config["memory"],
        flat_optimization=config["flat"],
        cache_blocks=config.get("cache_blocks", 0),
        merge_options=MergeOptions(**config.get("options", {})),
        tracer=tracer,
    )
    trace = tracer.finish()
    return {
        "output_sha256": sha256_text(output.to_string()),
        "counters": device.stats.snapshot().counter_totals(),
        "phases": trace.phase_breakdown(),
        "avg_run_length": report.avg_run_length,
        "max_run_length": report.max_run_length,
        "external_sorts": sum(
            1 for info in report.subtree_sorts if not info.internal
        ),
        "subtree_sorts": len(report.subtree_sorts),
        "flat_partial_runs": report.flat_partial_runs,
        "flat_final_merges": report.flat_final_merges,
    }


@functools.cache
def _reference() -> dict:
    path = Path(__file__).with_name("nexsort_scan_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def test_reference_covers_every_cell():
    assert sorted(_reference()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_scan_matches_reference(cell):
    expected = _reference()[cell]
    # JSON turns phase tuples into lists; compare in that form.
    got = json.loads(json.dumps(run_cell(CELLS[cell])))
    for field in expected:
        assert got[field] == expected[field], field


def test_cells_exercise_their_shapes():
    """Flat cells really flush partial runs; the auction cells really
    sort subtrees externally."""
    for name, config in CELLS.items():
        frozen = _reference()[name]
        if config["flat"]:
            assert frozen["flat_partial_runs"] > 0, name
        if name.startswith("child-path/auction") and not config["flat"]:
            assert frozen["external_sorts"] > 0, name
