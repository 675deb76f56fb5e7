"""Tests for the structural merge (Example 1.1 / Figure 1)."""

import pytest

from repro.core import nexsort
from repro.errors import MergeError
from repro.generators import (
    figure1_d1,
    figure1_d2,
    figure1_merged,
    figure1_spec,
    payroll_events,
    personnel_events,
)
from repro.io import BlockDevice, RunStore
from repro.keys import ByText, SortSpec
from repro.merge import StructuralMerger, kway_merge, structural_merge
from repro.xml import Document, Element


def fresh_store():
    device = BlockDevice(block_size=256)
    return device, RunStore(device)


def sort_doc(store, tree, spec, depth_limit=None, memory=8):
    doc = Document.from_element(store, tree)
    result, _report = nexsort(
        doc, spec, memory_blocks=memory, depth_limit=depth_limit
    )
    return result


class TestFigure1:
    def test_exact_paper_reproduction(self):
        """Sort D1 and D2 to employee depth, merge: the Figure 1 result."""
        _device, store = fresh_store()
        spec = figure1_spec()
        left = sort_doc(store, figure1_d1(), spec, depth_limit=3)
        right = sort_doc(store, figure1_d2(), spec, depth_limit=3)
        merged, report = structural_merge(left, right, spec, depth_limit=3)
        assert merged.to_element() == figure1_merged()
        assert report.elements_merged >= 4  # company, AC, Durham, 323

    def test_head_to_toe_variant_sorts_leaf_level_too(self):
        _device, store = fresh_store()
        spec = figure1_spec()
        left = sort_doc(store, figure1_d1(), spec)
        right = sort_doc(store, figure1_d2(), spec)
        merged, _report = structural_merge(left, right, spec)
        root = merged.to_element()
        durham = [
            branch
            for region in root.find_all("region")
            for branch in region.find_all("branch")
            if branch.attrs.get("name") == "Durham"
        ][0]
        employee = [
            e for e in durham.find_all("employee") if e.attrs["ID"] == "323"
        ][0]
        tags = [child.tag for child in employee.children]
        assert tags == sorted(tags)  # bonus, name, phone, salary


class TestSemantics:
    def test_merge_with_self_is_identity_on_structure(self, spec):
        _device, store = fresh_store()
        tree = Element.parse(
            '<r name="r"><a name="1">x</a><a name="2"/></r>'
        )
        left = sort_doc(store, tree, spec)
        right = sort_doc(store, tree, spec)
        merged, report = structural_merge(left, right, spec)
        assert merged.to_element() == left.to_element()
        assert report.elements_copied == [0, 0]

    def test_disjoint_children_union(self, spec):
        _device, store = fresh_store()
        left = sort_doc(
            store, Element.parse('<r><a name="1"/><a name="3"/></r>'), spec
        )
        right = sort_doc(
            store, Element.parse('<r><a name="2"/><a name="4"/></r>'), spec
        )
        merged, report = structural_merge(left, right, spec)
        names = [c.attrs["name"] for c in merged.to_element().children]
        assert names == ["1", "2", "3", "4"]
        assert report.elements_copied == [2, 2]

    def test_attribute_union_left_wins(self, spec):
        _device, store = fresh_store()
        left = sort_doc(
            store, Element.parse('<r name="k" a="L" shared="L"/>'), spec
        )
        right = sort_doc(
            store, Element.parse('<r name="k" b="R" shared="R"/>'), spec
        )
        merged, _report = structural_merge(left, right, spec)
        attrs = merged.to_element().attrs
        assert attrs == {"name": "k", "a": "L", "shared": "L", "b": "R"}

    def test_left_text_wins(self, spec):
        _device, store = fresh_store()
        left = sort_doc(store, Element.parse("<r>left</r>"), spec)
        right = sort_doc(store, Element.parse("<r>right</r>"), spec)
        merged, _report = structural_merge(left, right, spec)
        assert merged.to_element().text == "left"

    def test_right_text_fills_gap(self, spec):
        _device, store = fresh_store()
        left = sort_doc(store, Element.parse("<r></r>"), spec)
        right = sort_doc(store, Element.parse("<r>right</r>"), spec)
        merged, _report = structural_merge(left, right, spec)
        assert merged.to_element().text == "right"

    def test_same_key_different_tags_both_survive(self, spec):
        _device, store = fresh_store()
        left = sort_doc(store, Element.parse('<r><a name="k"/></r>'), spec)
        right = sort_doc(store, Element.parse('<r><b name="k"/></r>'), spec)
        merged, _report = structural_merge(left, right, spec)
        assert [c.tag for c in merged.to_element().children] == ["a", "b"]

    def test_result_is_sorted(self, spec):
        from repro.baselines import is_fully_sorted

        _device, store = fresh_store()
        from .conftest import random_tree

        left = sort_doc(store, random_tree(1, depth=4, max_fanout=4), spec)
        right = sort_doc(store, random_tree(2, depth=4, max_fanout=4), spec)
        merged, _report = structural_merge(left, right, spec)
        assert is_fully_sorted(merged.to_element(), spec)


class TestSinglePass:
    def test_each_input_block_read_once(self):
        """The headline property: merge in a single pass over both inputs."""
        _device, store = fresh_store()
        spec = figure1_spec()
        left_doc = Document.from_events(store, personnel_events(3, 3, 10))
        right_doc = Document.from_events(store, payroll_events(3, 3, 10))
        left, _ = nexsort(left_doc, spec, memory_blocks=8)
        right, _ = nexsort(right_doc, spec, memory_blocks=8)
        _merged, report = structural_merge(left, right, spec)
        assert (
            report.stats.category_total("merge_scan_0")
            == left.block_count
        )
        assert (
            report.stats.category_total("merge_scan_1")
            == right.block_count
        )

    def test_merge_io_is_linear_in_inputs(self):
        _device, store = fresh_store()
        spec = figure1_spec()
        left_doc = Document.from_events(store, personnel_events(4, 4, 12))
        right_doc = Document.from_events(store, payroll_events(4, 4, 12))
        left, _ = nexsort(left_doc, spec, memory_blocks=8)
        right, _ = nexsort(right_doc, spec, memory_blocks=8)
        merged, report = structural_merge(left, right, spec)
        total = (
            left.block_count + right.block_count + merged.block_count
        )
        assert report.total_ios == total


class TestValidation:
    def test_subtree_spec_rejected(self):
        with pytest.raises(MergeError):
            StructuralMerger(SortSpec(default=ByText()))

    def test_different_devices_rejected(self, spec):
        _d1, store1 = fresh_store()
        _d2, store2 = fresh_store()
        left = sort_doc(store1, Element.parse("<r/>"), spec)
        right = sort_doc(store2, Element.parse("<r/>"), spec)
        with pytest.raises(MergeError):
            structural_merge(left, right, spec)

    def test_mismatched_roots_rejected(self, spec):
        _device, store = fresh_store()
        left = sort_doc(store, Element.parse("<a/>"), spec)
        right = sort_doc(store, Element.parse("<b/>"), spec)
        with pytest.raises(MergeError):
            structural_merge(left, right, spec)

    @pytest.mark.parametrize("unsorted_side", [0, 1])
    @pytest.mark.parametrize("how", ["structural_merge", "kway_merge"])
    def test_unsorted_input_rejected(self, spec, how, unsorted_side):
        """An input out of key order raises instead of emitting a wrong
        document (here, one with ``<a name="1">`` twice)."""
        _device, store = fresh_store()
        texts = [
            '<r name="r"><a name="3"/><a name="1"/></r>',
            '<r name="r"><a name="1" x="y"/><a name="3"/></r>',
        ]
        if unsorted_side == 1:
            texts.reverse()
        left, right = (
            Document.from_element(store, Element.parse(text))
            for text in texts
        )
        with pytest.raises(MergeError, match="not sorted"):
            if how == "structural_merge":
                structural_merge(left, right, spec)
            else:
                kway_merge([left, right], spec)

    def test_unsorted_below_depth_limit_is_concatenated(self, spec):
        """Below the merge depth children are not matched, so their order
        is not checked."""
        _device, store = fresh_store()
        left, right = (
            Document.from_element(store, Element.parse(text))
            for text in (
                '<r name="r"><a name="1"><b name="9"/><b name="2"/></a></r>',
                '<r name="r"><a name="1"><b name="5"/></a></r>',
            )
        )
        merged, _report = structural_merge(left, right, spec, depth_limit=1)
        [a] = merged.to_element().children
        assert [b.attrs["name"] for b in a.children] == ["9", "2", "5"]
