"""Tests for the XSort single-level baseline (related work, Section 2)."""

import pytest

from repro.baselines import sort_element, xsort
from repro.core import nexsort
from repro.errors import SortSpecError
from repro.generators import figure1_d1, figure1_spec
from repro.io import BlockDevice, RunStore
from repro.keys import ByText, SortSpec
from repro.xml import CompactionConfig, Document, Element

from .conftest import flat_tree, random_tree


def fresh_store(block_size=256):
    device = BlockDevice(block_size=block_size)
    return device, RunStore(device)


class TestSingleLevelSemantics:
    def test_sorts_only_the_target_level(self):
        _device, store = fresh_store()
        spec = figure1_spec()
        doc = Document.from_element(store, figure1_d1())
        result, report = xsort(
            doc, spec, "company/region/branch", memory_blocks=8
        )
        tree = result.to_element()
        # Durham's employees are now ordered by ID...
        durham = [
            b
            for r in tree.find_all("region")
            for b in r.find_all("branch")
            if b.attrs.get("name") == "Durham"
        ][0]
        ids = [e.attrs["ID"] for e in durham.find_all("employee")]
        assert ids == ["323", "454"]
        # ...but the regions themselves kept their document order (NE, AC).
        assert [r.attrs["name"] for r in tree.find_all("region")] == [
            "NE",
            "AC",
        ]
        # And the matched employee's leaves are untouched.
        emp = [e for e in durham.find_all("employee") if e.children][0]
        assert [c.tag for c in emp.children] == ["name", "phone"]
        assert report.target_lists_sorted == 2  # Durham and Atlanta

    def test_root_target_sorts_top_level_only(self, spec):
        _device, store = fresh_store()
        tree = Element.parse(
            '<r><a name="2"><x name="9"/><x name="1"/></a><a name="1"/></r>'
        )
        doc = Document.from_element(store, tree)
        result, _report = xsort(doc, spec, "", memory_blocks=8)
        out = result.to_element()
        assert [c.attrs["name"] for c in out.children] == ["1", "2"]
        deep = [c for c in out.children if c.children][0]
        # One level only: the x's keep document order.
        assert [c.attrs["name"] for c in deep.children] == ["9", "1"]

    def test_unmatched_path_is_identity(self, spec):
        _device, store = fresh_store()
        tree = random_tree(3, depth=3, max_fanout=4)
        doc = Document.from_element(store, tree)
        result, report = xsort(doc, spec, "nope/nothing", memory_blocks=8)
        assert result.to_element() == tree
        assert report.target_lists_sorted == 0

    def test_content_preserved(self, spec):
        _device, store = fresh_store()
        tree = random_tree(7, depth=4, max_fanout=5, text_leaves=True)
        doc = Document.from_element(store, tree)
        result, _report = xsort(doc, spec, "e", memory_blocks=8)
        assert (
            result.to_element().unordered_canonical()
            == tree.unordered_canonical()
        )

    def test_matches_depth_limited_oracle_on_root_target(self, spec):
        _device, store = fresh_store()
        tree = random_tree(9, depth=4, max_fanout=5)
        doc = Document.from_element(store, tree)
        result, _report = xsort(doc, spec, "", memory_blocks=8)
        assert result.to_element() == sort_element(
            tree, spec, depth_limit=1
        )

    def test_texts_of_target_preserved(self, spec):
        _device, store = fresh_store()
        tree = Element.parse(
            '<r>hello<a name="2"/><a name="1"/></r>'
        )
        doc = Document.from_element(store, tree)
        result, _report = xsort(doc, spec, "", memory_blocks=8)
        assert result.to_element().text == "hello"


class TestLargeChildLists:
    def test_external_path_used_for_big_lists(self, spec):
        _device, store = fresh_store()
        tree = flat_tree(400, pad=16)
        doc = Document.from_element(store, tree)
        result, report = xsort(doc, spec, "", memory_blocks=4)
        assert report.initial_runs > 1
        names = [c.attrs["name"] for c in result.to_element().children]
        assert names == sorted(names)

    def test_xsort_cheaper_than_nexsort(self, spec):
        """'Obviously, XSort sorts less, and should complete in less
        time than NEXSORT.'"""
        tree = random_tree(11, depth=5, max_fanout=5, pad=12)
        _d1, store1 = fresh_store()
        doc1 = Document.from_element(store1, tree)
        _result, xreport = xsort(doc1, spec, "e", memory_blocks=8)
        _d2, store2 = fresh_store()
        doc2 = Document.from_element(store2, tree)
        _result, nreport = nexsort(doc2, spec, memory_blocks=8)
        assert xreport.simulated_seconds < nreport.simulated_seconds


class TestCompactedInput:
    """XSort writes plain-dialect records whatever the input's dialect,
    so a compacted input sorts to the same text as a plain one."""

    @pytest.mark.parametrize("memory_blocks", [4, 64])
    def test_compacted_matches_plain(self, spec, memory_blocks):
        from repro.generators import level_fanout_events

        texts = []
        runs = []
        for compaction in (None, CompactionConfig()):
            _device, store = fresh_store(block_size=512)
            doc = Document.from_events(
                store,
                level_fanout_events([6, 5, 4], seed=11, pad_bytes=24),
                compaction=compaction,
            )
            result, report = xsort(doc, spec, "root", memory_blocks)
            texts.append(result.to_string())
            runs.append(report.initial_runs)
        assert texts[0] == texts[1]
        # M=4 takes the external child-list path, M=64 the in-memory one.
        assert runs[0] == runs[1] == (6 if memory_blocks == 4 else 0)


class TestValidation:
    def test_subtree_spec_rejected(self):
        from repro.baselines import XSorter

        with pytest.raises(SortSpecError):
            XSorter(SortSpec(default=ByText()), "a", 8)

    def test_too_little_memory_rejected(self, spec):
        from repro.baselines import XSorter

        with pytest.raises(SortSpecError):
            XSorter(spec, "a", 2)
