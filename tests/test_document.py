"""Unit tests for disk-resident documents."""

import pytest

from repro.baselines import external_merge_sort
from repro.core import nexsort
from repro.errors import CodecError, XMLSyntaxError
from repro.keys import SortSpec
from repro.xml import CompactionConfig, Document, Element
from repro.xml.tokens import EndTag, StartTag, Text

from .conftest import random_tree

XML = (
    '<company><region name="NE"/><region name="AC">'
    '<branch name="Durham"><employee ID="454"/>'
    '<employee ID="323"><name>Smith</name></employee></branch>'
    "</region></company>"
)


class TestStats:
    def test_measurements(self, store):
        doc = Document.from_string(store, XML)
        assert doc.element_count == 7
        assert doc.max_fanout == 2
        assert doc.height == 5
        assert doc.stats.root_tag == "company"
        assert doc.block_count >= 1

    def test_multiple_roots_rejected(self, store):
        events = [StartTag("a"), EndTag("a"), StartTag("b"), EndTag("b")]
        with pytest.raises(XMLSyntaxError):
            Document.from_events(store, events)

    def test_unbalanced_rejected(self, store):
        with pytest.raises(XMLSyntaxError):
            Document.from_events(store, [StartTag("a")])

    def test_empty_rejected(self, store):
        with pytest.raises(XMLSyntaxError):
            Document.from_events(store, [])

    @pytest.mark.parametrize("sort", [nexsort, external_merge_sort])
    @pytest.mark.parametrize(
        "events, message",
        [
            ([EndTag("r")], "end tag </r> does not close <None>"),
            ([StartTag("r"), EndTag("s")], "end tag </s> does not close <r>"),
            (
                [StartTag("r"), EndTag("r"), Text("t")],
                "text outside the root element",
            ),
            (
                [Text("t"), StartTag("r"), EndTag("r")],
                "text outside the root element",
            ),
        ],
        ids=["end-with-nothing-open", "wrong-end", "trailing-text",
             "leading-text"],
    )
    def test_malformed_stream_is_refused_before_any_sort(
        self, store, events, message, sort
    ):
        """Worded as the parser words it; no sorter sees the stream."""
        with pytest.raises(XMLSyntaxError, match=message):
            document = Document.from_events(store, events)
            sort(document, SortSpec.by_attribute("name"), memory_blocks=8)

    def test_stored_text_after_the_root_is_a_codec_error(self, store):
        """A corrupt stored record stream (a text record after the root
        closes) fails NEXSORT typed, not by assertion."""
        document = Document.from_events(store, [StartTag("r"), EndTag("r")])
        writer = store.create_writer("load")
        for token in (StartTag("r"), EndTag("r"), Text("t")):
            writer.write_record(document.codec.encode(token))
        corrupt = Document(store, writer.finish(), document.stats)
        with pytest.raises(CodecError):
            nexsort(corrupt, SortSpec.by_attribute("name"), memory_blocks=8)


class TestRoundTrips:
    def test_plain_round_trip(self, store):
        doc = Document.from_string(store, XML)
        assert doc.to_element() == Element.parse(XML)

    def test_compact_round_trip(self, store):
        doc = Document.from_string(store, XML, CompactionConfig())
        assert doc.to_element() == Element.parse(XML)

    def test_compaction_really_shrinks(self, store):
        tree = random_tree(11, depth=4, max_fanout=4)
        plain = Document.from_element(store, tree)
        compact = Document.from_element(store, tree, CompactionConfig())
        assert compact.payload_bytes < plain.payload_bytes

    def test_compact_tokens_have_no_end_tags(self, store):
        doc = Document.from_string(store, XML, CompactionConfig())
        tokens = list(doc.iter_tokens("export"))
        assert not any(isinstance(t, EndTag) for t in tokens)
        events = list(doc.iter_events("export"))
        assert any(isinstance(t, EndTag) for t in events)

    def test_to_string_round_trip(self, store):
        doc = Document.from_string(store, XML)
        assert Element.parse(doc.to_string()) == Element.parse(XML)

    def test_random_trees_round_trip_both_modes(self, store):
        for seed in range(5):
            tree = random_tree(seed, depth=4, max_fanout=4, text_leaves=True)
            plain = Document.from_element(store, tree)
            compact = Document.from_element(
                store, tree, CompactionConfig()
            )
            assert plain.to_element() == tree
            assert compact.to_element() == tree


class TestIOAccounting:
    def test_loading_writes_blocks(self, device, store):
        Document.from_string(store, XML, category="load")
        assert device.stats.by_category["load"].writes >= 1

    def test_scanning_reads_every_block_once(self, device, store):
        tree = random_tree(3, depth=5, max_fanout=5)
        doc = Document.from_element(store, tree)
        before = device.stats.snapshot()
        for _ in doc.iter_events("input_scan"):
            pass
        delta = device.stats.since(before)
        assert delta.category_total("input_scan") == doc.block_count

    def test_free_releases_blocks(self, device, store):
        doc = Document.from_string(store, XML)
        occupied = device.occupied_blocks
        doc.free()
        assert device.occupied_blocks < occupied
