"""Unit tests for the internal-memory recursive sort (the oracle)."""

import pytest

from repro.baselines import is_fully_sorted, sort_element
from repro.baselines.internal_sort import (
    comparison_count,
    sort_element_in_place,
)
from repro.core import nexsort
from repro.errors import SortSpecError
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, ByChildPath, SortSpec
from repro.xml import Document, Element

from .conftest import random_tree


def spec():
    return SortSpec(default=ByAttribute("name"))


class TestSortElement:
    def test_sorts_every_level(self):
        tree = Element.parse(
            '<r name="r"><a name="2"><x name="9"/><x name="1"/></a>'
            '<a name="1"/></r>'
        )
        result = sort_element(tree, spec())
        assert is_fully_sorted(result, spec())
        names = [child.attrs["name"] for child in result.children]
        assert names == ["1", "2"]
        inner = result.children[1]
        assert [c.attrs["name"] for c in inner.children] == ["1", "9"]

    def test_original_untouched(self):
        tree = Element.parse('<r><a name="2"/><a name="1"/></r>')
        before = tree.canonical()
        sort_element(tree, spec())
        assert tree.canonical() == before

    def test_preserves_content(self):
        for seed in range(8):
            tree = random_tree(seed, text_leaves=True)
            result = sort_element(tree, spec())
            assert (
                result.unordered_canonical() == tree.unordered_canonical()
            )
            assert is_fully_sorted(result, spec())

    def test_idempotent(self):
        tree = random_tree(3)
        once = sort_element(tree, spec())
        twice = sort_element(once, spec())
        assert once == twice

    def test_stability_on_equal_keys(self):
        tree = Element.parse(
            '<r><a name="k" id="1"/><a name="k" id="2"/>'
            '<a name="a"/></r>'
        )
        result = sort_element(tree, spec())
        ids = [c.attrs.get("id") for c in result.children]
        assert ids == [None, "1", "2"]

    def test_depth_limit(self):
        tree = Element.parse(
            '<r name="r"><a name="2"><x name="9"/><x name="1"/></a>'
            '<a name="1"/></r>'
        )
        result = sort_element(tree, spec(), depth_limit=1)
        assert [c.attrs["name"] for c in result.children] == ["1", "2"]
        deep = [c for c in result.children if c.children][0]
        # Below the limit, document order survives.
        assert [c.attrs["name"] for c in deep.children] == ["9", "1"]

    def test_in_place_variant_matches(self):
        tree = random_tree(5)
        expected = sort_element(tree, spec())
        sort_element_in_place(tree, spec())
        assert tree == expected

    def test_child_path_keys_come_from_input_order(self):
        # The first <a>'s first <b> has no text, so it keys missing and
        # stays first; keyed after its own children were sorted, its first
        # <b> would hold 7 and it would follow the <a> keyed 5.
        xml = "<r><a><b><b>1</b></b><b>7</b></a><a><b>5</b></a></r>"
        child_path = SortSpec(default=ByChildPath("b"))
        expected = Element.parse(
            "<r><a><b>7</b><b><b>1</b></b></a><a><b>5</b></a></r>"
        )
        assert sort_element(Element.parse(xml), child_path) == expected
        tree = Element.parse(xml)
        sort_element_in_place(tree, child_path)
        assert tree == expected
        store = RunStore(BlockDevice(block_size=256))
        result, _report = nexsort(
            Document.from_element(store, Element.parse(xml)),
            child_path,
            memory_blocks=8,
        )
        assert result.to_element() == expected

    def test_sortedness_check_rejects_child_path_keys(self):
        # The correct output above reads unsorted when keyed from its own
        # (sorted) children, so the check refuses the spec.
        tree = Element.parse(
            "<r><a><b><b>1</b></b><b>7</b></a><a><b>5</b></a></r>"
        )
        for child_path in (
            SortSpec(default=ByChildPath("b")),
            SortSpec(rules={"a": ByChildPath("b")}),
        ):
            result = sort_element(tree, child_path)
            with pytest.raises(SortSpecError, match="child-path"):
                is_fully_sorted(result, child_path)

    def test_comparison_count_positive_for_branchy_trees(self):
        tree = Element.parse('<r><a name="1"/><a name="2"/><a name="3"/></r>')
        assert comparison_count(tree) > 0
        assert comparison_count(Element("leaf")) == 0


def byte_path_sort(tree, depth_limit=None):
    """NEXSORT on ``tree`` with every subtree sort in memory."""
    document = Document.from_element(
        RunStore(BlockDevice(block_size=256)), tree
    )
    result, _report = nexsort(
        document, spec(), memory_blocks=64, depth_limit=depth_limit
    )
    return result.to_element()


class TestColumnarKernel:
    """NEXSORT's batched byte-record subtree sorts agree with the plain
    ``list.sort`` oracle."""

    def test_matches_scalar_on_random_trees(self):
        for seed in range(8):
            tree = random_tree(seed, text_leaves=True)
            assert byte_path_sort(tree) == sort_element(tree, spec())

    def test_matches_scalar_with_depth_limit(self):
        tree = random_tree(4)
        for limit in (None, 1, 2):
            assert byte_path_sort(tree, depth_limit=limit) == sort_element(
                tree, spec(), depth_limit=limit
            )

    def test_stability_on_equal_keys(self):
        tree = Element.parse(
            '<r><a name="k" id="1"/><a name="k" id="2"/>'
            '<a name="a"/></r>'
        )
        result = byte_path_sort(tree)
        ids = [c.attrs.get("id") for c in result.children]
        assert ids == [None, "1", "2"]
