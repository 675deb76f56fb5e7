"""External (key-path) subtree sorts reproduce their frozen results.

NEXSORT sorts a popped subtree larger than its memory with key-path
external merge sort (Section 3.1).  ``external_subtree_reference.json``
holds what that path produced - output sha256, ``counter_totals()``, the
per-phase trace breakdown and the report's run-length figures - for the
shapes the older ``scalar_reference.json`` cells do not reach: Section
3.2 compaction (dictionary names, end-tag elimination, both),
depth-limited sorting (``sort_levels`` 0 and 1),
a buffer pool, keys evaluated at end tags on dictionary-coded input,
pointer children (collapsed subtrees inside an external sort),
transient device faults absorbed by retries or by a unit restart, and a
two-disk striped device (whose stall time depends on where CPU is charged
between device calls).

Every cell must contain at least one external subtree sort.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.baselines import sort_element
from repro.core import nexsort
from repro.faults import RecoveryContext, build_faulty_device
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore, StripedDevice
from repro.keys import ByAttribute, ByText, SortSpec
from repro.merge.engine import MergeOptions
from repro.obs import Tracer
from repro.xml.compact import CompactionConfig
from repro.xml.document import Document

from .conftest import sha256_text

SPEC = SortSpec(default=ByAttribute("name"))
TEXT_SPEC = SortSpec(default=ByText())

COMPACTIONS = {
    None: None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "levels": lambda: CompactionConfig(names=None),
    "full": CompactionConfig,
}


def _cell(
    fanouts=(60, 4),
    memory=6,
    compaction=None,
    spec=SPEC,
    text_leaves=False,
    **kwargs,
):
    """A cell's configuration; ``options`` are MergeOptions fields."""
    return dict(
        fanouts=fanouts,
        memory=memory,
        compaction=compaction,
        spec=spec,
        text_leaves=text_leaves,
        **kwargs,
    )


#: Cell name -> configuration.  Memory 6 on 512-byte blocks makes the
#: root of a (60, 4) document too large for an in-memory subtree sort.
CELLS = {
    **{
        f"compaction/{mode}": _cell(compaction=mode)
        for mode in ("names", "levels", "full")
    },
    # The root subtree is sorted externally with sort_levels 0 / 1.
    "depth-limit/0": _cell(fanouts=(60, 4, 2), depth_limit=0),
    "depth-limit/1": _cell(fanouts=(60, 4, 2), depth_limit=1),
    "depth-limit/1/full": _cell(
        fanouts=(60, 4, 2), depth_limit=1, compaction="full"
    ),
    "pooled": _cell(memory=10, cache_blocks=4),
    # Keys at end tags on dictionary-coded names.
    "text-key/names": _cell(
        compaction="names", spec=TEXT_SPEC, text_leaves=True
    ),
    # 120 level-2 subtrees sort first; the root sorts their pointers.
    "pointers/plain": _cell(fanouts=(120, 20)),
    "pointers/levels": _cell(fanouts=(120, 20), compaction="levels"),
    "replacement-selection/full": _cell(
        compaction="full",
        options=dict(run_formation="replacement-selection"),
    ),
    # Compressed runs, with the formation budget charged compressed bytes.
    "compressed": _cell(
        options=dict(compress="container", compress_capacity=True)
    ),
    "faults/retries": _cell(
        faults="write@9:run_write;read@7:run_read;rate=0.01;seed=3",
        retries=3,
    ),
    "faults/restart": _cell(faults="write@30:run_write"),
    # Two disks: stall and overlap time depend on when CPU is charged
    # between device calls, not just on the totals.
    "striped/2": _cell(disks=2),
    "striped/2/loser-tree": _cell(
        disks=2, prefetch_depth=2, options=dict(merge_kernel="loser-tree")
    ),
}


def run_cell(config: dict) -> dict:
    """One traced NEXSORT run of a cell, summarized for the reference."""
    disks = config.get("disks")
    base = (
        StripedDevice(
            disks=disks,
            block_size=512,
            prefetch_depth=config.get("prefetch_depth", 0),
        )
        if disks is not None
        else BlockDevice(block_size=512)
    )
    faults = config.get("faults")
    device, _injector, _retrier = build_faulty_device(
        base, faults, retries=config.get("retries", 0)
    )
    recovery = RecoveryContext() if faults is not None else None
    store = RunStore(device)
    compaction = COMPACTIONS[config["compaction"]]
    document = Document.from_events(
        store,
        level_fanout_events(
            list(config["fanouts"]),
            seed=3,
            pad_bytes=24,
            text_leaves=config["text_leaves"],
        ),
        compaction=compaction() if compaction is not None else None,
    )
    tracer = Tracer(base.stats)
    output, report = nexsort(
        document,
        config["spec"],
        memory_blocks=config["memory"],
        depth_limit=config.get("depth_limit"),
        cache_blocks=config.get("cache_blocks", 0),
        merge_options=MergeOptions(**config.get("options", {})),
        tracer=tracer,
        recovery=recovery,
    )
    trace = tracer.finish()
    return {
        "output_sha256": sha256_text(output.to_string()),
        "counters": base.stats.snapshot().counter_totals(),
        "phases": trace.phase_breakdown(),
        "avg_run_length": report.avg_run_length,
        "max_run_length": report.max_run_length,
        "external_sorts": sum(
            1 for info in report.subtree_sorts if not info.internal
        ),
        "restarts": recovery.restarts if recovery is not None else 0,
    }


@functools.cache
def _reference() -> dict:
    path = Path(__file__).with_name("external_subtree_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def test_reference_covers_every_cell():
    assert sorted(_reference()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_external_subtree_matches_reference(cell):
    expected = _reference()[cell]
    assert expected["external_sorts"] > 0
    # JSON turns phase tuples into lists; compare in that form.
    got = json.loads(json.dumps(run_cell(CELLS[cell])))
    for field in expected:
        assert got[field] == expected[field], field


@pytest.mark.parametrize(
    "cell", ["depth-limit/0", "depth-limit/1", "depth-limit/1/full"]
)
def test_depth_limit_cells_match_oracle(cell):
    """Depth-limited external subtree sorts produce the DOM oracle's
    ``sort_element(..., depth_limit)`` document."""
    config = CELLS[cell]
    tree = Document.from_events(
        RunStore(BlockDevice(block_size=512)),
        level_fanout_events(list(config["fanouts"]), seed=3, pad_bytes=24),
    ).to_element()
    expected = Document.from_element(
        RunStore(BlockDevice(block_size=512)),
        sort_element(tree, config["spec"], depth_limit=config["depth_limit"]),
    ).to_string()
    assert _reference()[cell]["output_sha256"] == sha256_text(expected)


def test_fault_cells_fault():
    """The fault cells really exercise recovery."""
    assert _reference()["faults/restart"]["restarts"] >= 1
    assert _reference()["faults/retries"]["counters"]["penalty_seconds"] > 0
