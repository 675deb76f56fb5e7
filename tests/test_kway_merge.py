"""Tests for the k-way structural merge."""

import pytest

from repro.baselines import is_fully_sorted
from repro.core import nexsort
from repro.errors import MergeError
from repro.generators import figure1_spec, personnel_events
from repro.io import BlockDevice, RunStore
from repro.keys import SortSpec
from repro.merge import kway_merge, structural_merge
from repro.xml import Document, Element

from .conftest import random_tree


def fresh_store():
    device = BlockDevice(block_size=256)
    return device, RunStore(device)


def sorted_doc(store, tree, spec, memory=8):
    doc = Document.from_element(store, tree)
    result, _ = nexsort(doc, spec, memory_blocks=memory)
    return result


class TestKWaySemantics:
    def test_three_way_matches_iterated_binary(self, spec):
        _device, store = fresh_store()
        docs = [
            sorted_doc(
                store, random_tree(seed, depth=3, max_fanout=4), spec
            )
            for seed in range(3)
        ]
        kway, _ = kway_merge(docs, spec)
        step, _ = structural_merge(docs[0], docs[1], spec)
        iterated, _ = structural_merge(step, docs[2], spec)
        assert (
            kway.to_element().unordered_canonical()
            == iterated.to_element().unordered_canonical()
        )

    def test_splits_reunite(self, spec):
        """Splitting a document's children 4 ways and k-way merging the
        sorted parts reproduces the sorted whole."""
        from repro.baselines import sort_element

        _device, store = fresh_store()
        tree = random_tree(5, depth=3, max_fanout=6)
        parts = []
        for index in range(4):
            part = Element(
                tree.tag, tree.attrs, tree.text, tree.children[index::4]
            )
            parts.append(sorted_doc(store, part, spec))
        merged, report = kway_merge(parts, spec)
        assert merged.to_element() == sort_element(tree, spec)
        assert len(report.input_blocks) == 4

    def test_single_document_is_identity(self, spec):
        _device, store = fresh_store()
        doc = sorted_doc(store, random_tree(7, depth=3, max_fanout=4), spec)
        merged, _ = kway_merge([doc], spec)
        assert merged.to_element() == doc.to_element()

    def test_result_is_sorted(self, spec):
        _device, store = fresh_store()
        docs = [
            sorted_doc(
                store, random_tree(seed, depth=4, max_fanout=4), spec
            )
            for seed in range(4)
        ]
        merged, _ = kway_merge(docs, spec)
        assert is_fully_sorted(merged.to_element(), spec)

    def test_earlier_inputs_win_attribute_conflicts(self, spec):
        _device, store = fresh_store()
        docs = [
            sorted_doc(
                store, Element.parse(f'<r name="k" v="{index}"/>'), spec
            )
            for index in range(3)
        ]
        merged, _ = kway_merge(docs, spec)
        assert merged.to_element().attrs["v"] == "0"

    def test_first_nonempty_text_wins(self, spec):
        _device, store = fresh_store()
        docs = [
            sorted_doc(store, Element.parse('<r name="k"></r>'), spec),
            sorted_doc(store, Element.parse('<r name="k">two</r>'), spec),
            sorted_doc(store, Element.parse('<r name="k">three</r>'), spec),
        ]
        merged, _ = kway_merge(docs, spec)
        assert merged.to_element().text == "two"


class TestSinglePass:
    def test_every_input_block_read_once(self):
        spec = figure1_spec()
        _device, store = fresh_store()
        docs = []
        for seed in range(3):
            raw = Document.from_events(
                store, personnel_events(2, 2, 6, seed=seed)
            )
            result, _ = nexsort(raw, spec, memory_blocks=8)
            docs.append(result)
        _merged, report = kway_merge(docs, spec)
        for index, doc in enumerate(docs):
            assert (
                report.stats.category_total(f"merge_scan_{index}")
                == doc.block_count
            )


class TestValidation:
    def test_empty_input_rejected(self, spec):
        with pytest.raises(MergeError):
            kway_merge([], spec)

    def test_mixed_devices_rejected(self, spec):
        _d1, store1 = fresh_store()
        _d2, store2 = fresh_store()
        a = sorted_doc(store1, Element.parse("<r/>"), spec)
        b = sorted_doc(store2, Element.parse("<r/>"), spec)
        with pytest.raises(MergeError):
            kway_merge([a, b], spec)

    def test_mismatched_roots_rejected(self, spec):
        _device, store = fresh_store()
        a = sorted_doc(store, Element.parse("<r/>"), spec)
        b = sorted_doc(store, Element.parse("<q/>"), spec)
        with pytest.raises(MergeError):
            kway_merge([a, b], spec)


class TestKWayProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        ways=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_disjoint_split_reunites(self, ways, seed):
        """Splitting any document's children k ways and k-way merging the
        sorted parts always reproduces the sorted whole."""
        from repro.baselines import sort_element
        from repro.keys import ByAttribute, SortSpec

        spec = SortSpec(default=ByAttribute("name"))
        tree = random_tree(seed, depth=3, max_fanout=5)
        _device, store = fresh_store()
        parts = []
        for index in range(ways):
            part = Element(
                tree.tag, tree.attrs, tree.text,
                tree.children[index::ways],
            )
            parts.append(sorted_doc(store, part, spec))
        merged, _report = kway_merge(parts, spec)
        assert merged.to_element() == sort_element(tree, spec)
