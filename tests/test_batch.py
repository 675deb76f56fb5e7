"""Tests for batch update application (paper Section 1)."""

import pytest

from repro.baselines import is_fully_sorted
from repro.core import nexsort
from repro.errors import MergeError
from repro.generators import figure1_d1, figure1_spec
from repro.io import BlockDevice, RunStore
from repro.keys import ByText, SortSpec
from repro.merge import BatchApplier, apply_batch
from repro.xml import Document, Element


def fresh_store():
    device = BlockDevice(block_size=256)
    return device, RunStore(device)


def sorted_figure1(store):
    spec = figure1_spec()
    doc = Document.from_element(store, figure1_d1())
    result, _ = nexsort(doc, spec, memory_blocks=8)
    return result, spec


def batch_of(store, xml: str) -> Document:
    return Document.from_element(store, Element.parse(xml))


class TestUpserts:
    def test_insert_new_employee(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="AC"><branch name="Durham">'
            '<employee ID="999"><name>New</name></employee>'
            "</branch></region></company>",
        )
        result, report = apply_batch(base, batch, spec, memory_blocks=8)
        assert report.upserts >= 1
        employees = [
            e.attrs["ID"]
            for region in result.to_element().find_all("region")
            for branch in region.find_all("branch")
            for e in branch.find_all("employee")
        ]
        assert "999" in employees

    def test_update_existing_element_merges_content(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="AC"><branch name="Durham">'
            '<employee ID="323" grade="senior"/></branch></region>'
            "</company>",
        )
        result, _report = apply_batch(base, batch, spec, memory_blocks=8)
        employee = [
            e
            for region in result.to_element().find_all("region")
            for branch in region.find_all("branch")
            for e in branch.find_all("employee")
            if e.attrs["ID"] == "323"
        ][0]
        assert employee.attrs["grade"] == "senior"
        assert employee.find("name").text == "Smith"  # old content kept

    def test_batch_text_replaces(self, spec):
        _device, store = fresh_store()
        base_doc = Document.from_element(
            store, Element.parse('<r name="k">old</r>')
        )
        base, _ = nexsort(base_doc, spec, memory_blocks=8)
        batch = batch_of(store, '<r name="k">new</r>')
        result, _report = apply_batch(base, batch, spec, memory_blocks=8)
        assert result.to_element().text == "new"

    def test_insert_whole_region(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="ZZ"><branch name="Omaha"/></region>'
            "</company>",
        )
        result, _report = apply_batch(base, batch, spec, memory_blocks=8)
        names = [
            r.attrs["name"] for r in result.to_element().find_all("region")
        ]
        assert names == ["AC", "NE", "ZZ"]  # still sorted


class TestDeletes:
    def test_delete_existing(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="AC"><branch name="Durham">'
            '<employee ID="454" op="delete"/></branch></region></company>',
        )
        result, report = apply_batch(base, batch, spec, memory_blocks=8)
        assert report.deletes == 1
        ids = [
            e.attrs["ID"]
            for region in result.to_element().find_all("region")
            for branch in region.find_all("branch")
            for e in branch.find_all("employee")
        ]
        assert "454" not in ids
        assert "323" in ids

    def test_delete_missing_is_counted(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="AC"><branch name="Durham">'
            '<employee ID="111" op="delete"/></branch></region></company>',
        )
        _result, report = apply_batch(base, batch, spec, memory_blocks=8)
        assert report.missed_deletes == 1
        assert report.deletes == 0


class TestSortedness:
    def test_result_remains_sorted(self):
        """The paper's guarantee: 'The result document remains sorted.'"""
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="AA"/><region name="ZZ"/>'
            '<region name="AC"><branch name="Aachen"/></region></company>',
        )
        result, _report = apply_batch(base, batch, spec, memory_blocks=8)
        assert is_fully_sorted(result.to_element(), spec)

    def test_unsorted_batch_is_sorted_first(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(
            store,
            '<company><region name="ZZ"/><region name="AA"/></company>',
        )
        result, _report = apply_batch(
            base, batch, spec, memory_blocks=8, batch_is_sorted=False
        )
        names = [
            r.attrs["name"] for r in result.to_element().find_all("region")
        ]
        assert names == sorted(names)

    def test_presorted_batch_skips_the_sort(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch_doc = Document.from_element(
            store,
            Element.parse(
                '<company><region name="AA"/><region name="ZZ"/></company>'
            ),
        )
        result, _report = apply_batch(
            base, batch_doc, spec, memory_blocks=8, batch_is_sorted=True
        )
        assert is_fully_sorted(result.to_element(), spec)


class TestValidation:
    def test_subtree_spec_rejected(self):
        with pytest.raises(MergeError):
            BatchApplier(SortSpec(default=ByText()))

    def test_mismatched_roots_rejected(self):
        _device, store = fresh_store()
        base, spec = sorted_figure1(store)
        batch = batch_of(store, "<wrong/>")
        with pytest.raises(MergeError):
            apply_batch(base, batch, spec, memory_blocks=8)

    def test_unsorted_document_rejected(self, spec):
        """A document out of key order raises instead of yielding a wrong
        result (here, one with ``<a name="1">`` twice)."""
        _device, store = fresh_store()
        document = batch_of(
            store, '<r name="r"><a name="3"/><a name="1"/></r>'
        )
        batch = batch_of(store, '<r name="r"><a name="1" x="y"/></r>')
        with pytest.raises(MergeError, match="not sorted"):
            apply_batch(document, batch, spec, batch_is_sorted=True)
