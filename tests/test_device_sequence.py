"""Every device access, and the CPU counters it sees, reproduces.

The block device is the cost model's only witness: a change that moves
records between layers in larger or smaller batches must leave the
sequence of device calls - and the ``tokens`` and ``comparisons`` each
call observes - exactly as it was.  A buffer pool evicts by that global
order, a fault plan triggers on it, and a striped device advances its
clock by the CPU charged between calls, so the totals alone cannot
catch a reordering.

``device_sequence_reference.json`` stores, per cell, the length and
sha256 of the access log a recording device kept - one entry per
``read_blocks``/``write_blocks``/``write_block_behind``/
``prefetch_blocks`` call: ``(op, category, block ids, tokens,
comparisons)`` - plus the run's ``counter_totals()`` and output sha256.

Cells: NEXSORT on a Figure-6-shaped document (the root subtree is sorted
externally) and on a Figure-5-shaped one (internal subtree sorts only),
each plain, with a buffer pool, on two striped disks and under a
recovery context with a transient fault plan; one graceful-degeneration
(``flat_optimization``) cell; external merge sort with a pool and under
recovery.  The ``paging/*`` cells pin the stacks' paging regimes: a deep
chain whose path stack pages out and back in; a deep comb, plain and
compacted, whose path pops interleave with pushes at every depth; an
end-keyed, text-bearing auction document whose data stack pages
throughout the scan, plain and under graceful degeneration; and mixed
content whose text pushes flush incomplete runs.
"""

import functools
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.baselines import external_merge_sort
from repro.core import nexsort
from repro.faults import RecoveryContext, build_faulty_device
from repro.generators import auction_events, level_fanout_events
from repro.io import BlockDevice, RunStore, StripedDevice
from repro.keys import ByAttribute, SortSpec
from repro.xml.compact import CompactionConfig
from repro.xml import Element
from repro.xml.document import Document
from repro.xml.tokens import EndTag, StartTag, Text

from .conftest import chain_tree, sha256_text

SPEC = SortSpec(default=ByAttribute("name"))

#: Root subtree larger than memory 6 on 512-byte blocks: one external
#: subtree sort whose splice emit writes the root's run.
FIG6 = dict(fanouts=(60, 4), memory=6)
#: Every subtree fits in memory 12: internal subtree sorts only.
FIG5 = dict(fanouts=(4, 4, 4, 6), memory=12)
#: Transient faults absorbed by three retries.
RETRIED = "write@9:run_write;read@7:run_read;rate=0.01;seed=3"
#: One transient fault that restarts its unit: in an internal subtree
#: sort (Figure 5), inside the external subtree sort's emit (Figure 6),
#: and in merge sort's merge passes.
RESTARTED = {
    "fig5": "write@12:run_write",
    "fig6": "write@100:run_write",
    "mergesort": "read@2:merge_read;write@5:merge_write",
}


def _cell(shape, algorithm="nexsort", **kwargs):
    return dict(shape, algorithm=algorithm, **kwargs)


def _variants(name: str, shape: dict) -> dict:
    return {
        f"{name}/plain": _cell(shape),
        f"{name}/pooled": _cell(
            shape, memory=shape["memory"] + 4, cache_blocks=4
        ),
        f"{name}/striped/2": _cell(shape, disks=2),
        f"{name}/faults/retries": _cell(shape, faults=RETRIED, retries=3),
        f"{name}/faults/restart": _cell(shape, faults=RESTARTED[name]),
    }


CELLS = {
    **_variants("fig6", FIG6),
    **_variants("fig5", FIG5),
    "flat": _cell(dict(fanouts=(400,), memory=8), flat=True),
    "mergesort/pooled": _cell(
        FIG6, algorithm="mergesort", memory=10, cache_blocks=4
    ),
    "mergesort/faults/restart": _cell(
        FIG6, algorithm="mergesort", faults=RESTARTED["mergesort"]
    ),
    # No subtree sorts before the root closes: a 400-deep path pages the
    # 2-block path stack out and back in (Lemma 4.11).
    "paging/path-stack": dict(
        algorithm="nexsort", chain=400, block_size=256, memory=6,
        threshold=10**9,
    ),
    # A 400-deep comb - a leaf closes before each deeper link - plain and
    # compacted (dictionary names, no end tags: closes come from level
    # transitions): path pops interleave with pushes at every depth.
    "paging/path-stack/comb": dict(
        algorithm="nexsort", comb=400, block_size=256, memory=6,
        threshold=10**9,
    ),
    "paging/path-stack/comb/compact": dict(
        algorithm="nexsort", comb=400, compact=True, block_size=256,
        memory=6, threshold=10**9,
    ),
    # Keys at end tags over a text-bearing document, on a 3-block data
    # stack that pages out and in throughout the scan.
    "paging/data-stack": dict(
        algorithm="nexsort",
        auction=dict(auctions_per_region=10, max_bids=8, regions=2),
        spec="*=@name, open_auction=item/quantity, bid=@amount+@at, "
        "item=@id",
        memory=8,
    ),
    # Graceful degeneration over mixed content: a text after each child
    # of the root, so text pushes flush incomplete runs.
    "paging/data-stack/flat/mixed": dict(
        algorithm="nexsort", mixed=300, memory=8, flat=True,
    ),
    # The auction document under graceful degeneration.
    "paging/data-stack/flat": dict(
        algorithm="nexsort",
        auction=dict(auctions_per_region=10, max_bids=8, regions=2),
        spec="*=@name, open_auction=item/quantity, bid=@amount+@at, "
        "item=@id",
        memory=8,
        flat=True,
    ),
}


def comb_tree(height: int) -> Element:
    """A chain of ``height`` elements with a leaf before each link."""
    node = Element("leaf", {"name": "end"})
    for index in range(height - 1):
        node = Element(
            "link",
            {"name": f"l{index:05d}"},
            "",
            [Element("leaf", {"name": f"s{index:05d}"}), node],
        )
    return node


def mixed_events(children: int):
    """A root whose ``children`` named children are each followed by a
    text of the root."""
    yield StartTag("root")
    for index in range(children):
        yield StartTag("item", (("name", f"n{index * 7919 % 1000:03d}"),))
        yield EndTag("item")
        yield Text(f"text {index:04d} " * 3)
    yield EndTag("root")


class _Recording:
    """Logs every device access of the class it is mixed into.

    Only the outermost call is logged: a serial device's
    ``write_block_behind`` is itself a ``write_blocks`` call.
    """

    def _init_log(self) -> None:
        self.log: list = []
        self._depth = 0

    @contextmanager
    def _entry(self, op: str, category: str, block_ids: list):
        if not self._depth:
            self.log.append(
                (op, category, block_ids, self.stats.tokens,
                 self.stats.comparisons)
            )
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def read_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        with self._entry("read", category, block_ids):
            return super().read_blocks(block_ids, category, stream)

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        block_ids = list(block_ids)
        with self._entry("write", category, block_ids):
            return super().write_blocks(block_ids, datas, category, stream)

    def prefetch_blocks(self, block_ids, category="other", stream=None):
        block_ids = list(block_ids)
        with self._entry("prefetch", category, block_ids):
            return super().prefetch_blocks(block_ids, category, stream)

    def write_block_behind(self, block_id, data, category="other",
                           stream=None):
        with self._entry("write_behind", category, [block_id]):
            return super().write_block_behind(
                block_id, data, category, stream
            )


class RecordingDevice(_Recording, BlockDevice):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._init_log()


class RecordingStripedDevice(_Recording, StripedDevice):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._init_log()


def run_cell(config: dict) -> dict:
    """Run one cell on a recording device; summarize its access log."""
    disks = config.get("disks")
    block_size = config.get("block_size", 512)
    base = (
        RecordingStripedDevice(disks=disks, block_size=block_size)
        if disks is not None
        else RecordingDevice(block_size=block_size)
    )
    faults = config.get("faults")
    device, _injector, _retrier = build_faulty_device(
        base, faults, retries=config.get("retries", 0)
    )
    recovery = RecoveryContext() if faults is not None else None
    store = RunStore(device)
    spec = SortSpec.parse(config["spec"]) if "spec" in config else SPEC
    if "chain" in config or "comb" in config:
        tree = (
            chain_tree(config["chain"])
            if "chain" in config
            else comb_tree(config["comb"])
        )
        document = Document.from_element(
            store,
            tree,
            compaction=CompactionConfig() if config.get("compact") else None,
        )
    elif "mixed" in config:
        document = Document.from_events(store, mixed_events(config["mixed"]))
    elif "auction" in config:
        document = Document.from_events(
            store, auction_events(seed=3, **config["auction"])
        )
    else:
        document = Document.from_events(
            store,
            level_fanout_events(
                list(config["fanouts"]), seed=3, pad_bytes=24
            ),
        )
    base.log.clear()
    stacks = partial_runs = None
    if config["algorithm"] == "mergesort":
        output, _report = external_merge_sort(
            document, spec, config["memory"],
            cache_blocks=config.get("cache_blocks", 0), recovery=recovery,
        )
        external_sorts = None
    else:
        output, report = nexsort(
            document, spec, config["memory"],
            threshold_bytes=config.get("threshold"),
            flat_optimization=config.get("flat", False),
            cache_blocks=config.get("cache_blocks", 0), recovery=recovery,
        )
        external_sorts = sum(
            1 for info in report.subtree_sorts if not info.internal
        )
        stacks = [
            report.data_stack_page_outs, report.data_stack_page_ins,
            report.path_stack_page_outs, report.path_stack_page_ins,
        ]
        partial_runs = report.flat_partial_runs
    log = json.dumps(base.log, separators=(",", ":"))
    return {
        "accesses": len(base.log),
        "log_sha256": hashlib.sha256(log.encode("ascii")).hexdigest(),
        "counters": base.stats.snapshot().counter_totals(),
        "output_sha256": sha256_text(output.to_string()),
        "external_sorts": external_sorts,
        "stack_pages": stacks,
        "partial_runs": partial_runs,
        "restarts": recovery.restarts if recovery is not None else 0,
    }


@functools.cache
def _reference() -> dict:
    path = Path(__file__).with_name("device_sequence_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def test_reference_covers_every_cell():
    assert sorted(_reference()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_device_sequence_matches_reference(cell):
    expected = _reference()[cell]
    got = run_cell(CELLS[cell])
    for field in expected:
        assert got[field] == expected[field], field


def test_cells_reach_their_paths():
    """Figure-6 cells sort the root externally, Figure-5 cells never
    do, retry cells retry and restart cells restart."""
    for name, cell in _reference().items():
        if name.startswith("fig6/"):
            assert cell["external_sorts"] == 1, name
        elif name.startswith("fig5/"):
            assert cell["external_sorts"] == 0, name
        if name.endswith("/faults/retries"):
            assert cell["counters"]["penalty_seconds"] > 0, name
        elif name.endswith("/faults/restart"):
            assert cell["restarts"] >= 1, name
    for name in (
        "paging/path-stack",
        "paging/path-stack/comb",
        "paging/path-stack/comb/compact",
    ):
        _outs, _ins, path_outs, path_ins = _reference()[name]["stack_pages"]
        assert path_outs > 0 and path_ins > 0, name
    data_outs, data_ins, path_outs, path_ins = _reference()[
        "paging/data-stack"
    ]["stack_pages"]
    assert data_outs > 10 and data_ins > 10
    for name in ("paging/data-stack/flat", "paging/data-stack/flat/mixed"):
        assert _reference()[name]["partial_runs"] > 0, name
