"""Document merges reproduce their frozen results.

``merge_reference.json`` was recorded while two-way and k-way merging were
separate implementations.  For each case it holds the sha256 of the merged
document's text, the merge's block I/Os, the blocks each input's scan read,
the number of matched (merged) elements and the number of unmatched
elements copied from each input.  Cases cover two-way merges (Figure 1's
D1/D2 and random pairs that are disjoint, fully matching or overlapping,
each under several depth limits), three-way merges, an archive of two
versions with its version-set attribute merger, the order-preserving merge
and a batch update.  Three-way cells also pin the merge comparisons and
simulated seconds, which two-way cells do not: the two-way merge used to
charge no comparisons.  Two-way scans were recorded under the categories
``merge_scan_left``/``merge_scan_right``, which are now ``merge_scan_0``/
``merge_scan_1``; batch updates keep the left/right names.

Every cell must reproduce on both argsort backends.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.core import nexsort
from repro.generators import figure1_d1, figure1_d2, figure1_spec
from repro.io import BlockDevice, RunStore
from repro.keys import SortSpec
from repro.merge import (
    XMLArchive,
    apply_batch,
    kway_merge,
    merge_preserving_order,
    order_preserving,
    structural,
    structural_merge,
)
from repro.xml import Document, Element

from .conftest import each_argsort_backend, random_tree, sha256_text

SPEC = SortSpec.parse("*=@name")

DEPTHS = {"full": None, "depth1": 1, "depth2": 2}


def _renamed(tree: Element, prefix: str) -> Element:
    """``tree`` with every non-root key prefixed: no child ever matches."""

    def walk(node: Element) -> Element:
        attrs = dict(node.attrs, name=prefix + node.attrs["name"])
        children = [walk(child) for child in node.children]
        return Element(node.tag, attrs, node.text, children)

    return Element(
        tree.tag, tree.attrs, tree.text, [walk(c) for c in tree.children]
    )


def _tagged(tree: Element, attr: str) -> Element:
    """``tree`` with an extra attribute on every element: every element
    matches, and the attribute union is visible."""
    attrs = dict(tree.attrs, **{attr: "1"})
    return Element(
        tree.tag, attrs, tree.text, [_tagged(c, attr) for c in tree.children]
    )


def _pair(kind: str, seed: int) -> tuple[Element, Element]:
    key_space = 4 if kind == "overlap" else 12
    left, right = (
        random_tree(s, depth=4, max_fanout=4, pad=12, key_space=key_space)
        for s in (seed, seed + 50)
    )
    if kind == "disjoint":
        right = _renamed(right, "z")
    elif kind == "matching":
        right = _tagged(left, "seen")
    return left, right


TWO_WAY = ["figure1/full", "figure1/depth3"] + [
    f"{kind}/{seed}/{depth}"
    for kind in ("disjoint", "matching", "overlap")
    for seed in (0, 1)
    for depth in DEPTHS
]
THREE_WAY = ["three-way/full", "three-way/depth1"]
CELLS = TWO_WAY + THREE_WAY + ["archive", "order-preserving", "batch"]


def _sorted(store, tree, spec, depth_limit=None):
    document = Document.from_element(store, tree)
    result, _ = nexsort(
        document, spec, memory_blocks=8, depth_limit=depth_limit
    )
    return result


def _scan_reads(stats, count: int) -> list[int]:
    return [
        counters.reads if counters else 0
        for counters in (
            stats.by_category.get(f"merge_scan_{index}")
            for index in range(count)
        )
    ]


def _merge_fields(merged, report, inputs: int) -> dict:
    return {
        "output_sha256": sha256_text(merged.to_string()),
        "total_ios": report.total_ios,
        "scan_reads": _scan_reads(report.stats, inputs),
        "elements_merged": report.elements_merged,
        "elements_copied": list(report.elements_copied),
    }


class _Spy:
    """Records the report of every merge a wrapped function returns."""

    def __init__(self, function):
        self.function = function
        self.reports = []

    def __call__(self, *args, **kwargs):
        merged, report = self.function(*args, **kwargs)
        self.reports.append((merged, report))
        return merged, report


def merge_cell(cell: str, monkeypatch) -> dict:
    store = RunStore(BlockDevice(block_size=256))
    if cell.startswith("figure1/"):
        spec = figure1_spec()
        depth = 3 if cell.endswith("depth3") else None
        left = _sorted(store, figure1_d1(), spec, depth)
        right = _sorted(store, figure1_d2(), spec, depth)
        merged, report = structural_merge(
            left, right, spec, depth_limit=depth
        )
        return _merge_fields(merged, report, 2)
    if cell in TWO_WAY:
        kind, seed, depth_name = cell.split("/")
        depth = DEPTHS[depth_name]
        left_tree, right_tree = _pair(kind, int(seed))
        left = _sorted(store, left_tree, SPEC, depth)
        right = _sorted(store, right_tree, SPEC, depth)
        merged, report = structural_merge(
            left, right, SPEC, depth_limit=depth
        )
        return _merge_fields(merged, report, 2)
    if cell in THREE_WAY:
        depth = 1 if cell.endswith("depth1") else None
        docs = [
            _sorted(
                store,
                random_tree(seed, depth=4, max_fanout=4, pad=12, key_space=4),
                SPEC,
                depth,
            )
            for seed in range(3)
        ]
        merged, report = kway_merge(docs, SPEC, depth_limit=depth)
        fields = _merge_fields(merged, report, 3)
        fields["merge_comparisons"] = report.merge_comparisons
        fields["simulated_seconds"] = report.simulated_seconds
        return fields
    if cell == "archive":
        spy = _Spy(structural.StructuralMerger.merge)
        monkeypatch.setattr(
            structural.StructuralMerger,
            "merge",
            lambda self, *args: spy(self, *args),
        )
        before = store.device.stats.snapshot()
        archive = XMLArchive(SPEC, memory_blocks=8)
        for version, seed in ((1, 3), (2, 4)):
            tree = random_tree(seed, depth=4, max_fanout=4, key_space=6)
            archive.add_version(Document.from_element(store, tree), version)
        [(merged, report)] = spy.reports
        fields = _merge_fields(archive.document, report, 2)
        fields["job_ios"] = store.device.stats.since(before).total_ios
        return fields
    if cell == "order-preserving":
        spy = _Spy(structural_merge)
        monkeypatch.setattr(order_preserving, "structural_merge", spy)
        left_tree, right_tree = _pair("overlap", 2)
        result, job = merge_preserving_order(
            Document.from_element(store, left_tree),
            Document.from_element(store, right_tree),
            SPEC,
            memory_blocks=8,
        )
        [(merged, report)] = spy.reports
        fields = _merge_fields(merged, report, 2)
        fields["job_output_sha256"] = sha256_text(result.to_string())
        fields["job_ios"] = job.total_ios
        return fields
    assert cell == "batch"
    spec = figure1_spec()
    base = _sorted(store, figure1_d1(), spec)
    batch = Document.from_element(
        store,
        Element.parse(
            '<company><region name="AC"><branch name="Durham">'
            '<employee ID="999"><name>New</name></employee>'
            '<employee ID="454" op="delete"/>'
            '<employee ID="323" grade="senior"/></branch>'
            '<branch name="Zurich" op="delete"/></region>'
            '<region name="WE"><branch name="Paris"/></region></company>'
        ),
    )
    result, report = apply_batch(base, batch, spec, memory_blocks=8)
    by_category = report.stats.by_category
    return {
        "output_sha256": sha256_text(result.to_string()),
        "total_ios": report.total_ios,
        "scan_reads": [
            by_category[name].reads
            for name in ("merge_scan_left", "merge_scan_right")
        ],
        "upserts": report.upserts,
        "deletes": report.deletes,
        "missed_deletes": report.missed_deletes,
    }


@functools.cache
def _reference() -> dict:
    path = Path(__file__).with_name("merge_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def test_reference_covers_every_cell():
    assert sorted(_reference()) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_merge_matches_reference(monkeypatch, cell):
    expected = _reference()[cell]
    for backend in each_argsort_backend(monkeypatch):
        got = json.loads(json.dumps(merge_cell(cell, monkeypatch)))
        assert got == expected, (backend, cell)
