"""Unit tests for XML serialization."""

import contextlib
import io
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _emit
from repro.errors import CodecError, XMLSyntaxError
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.xml import Document, Element, element_to_string, events_to_string
from repro.xml.codec import encode_name, encode_tag_attrs
from repro.xml.compact import CompactionConfig
from repro.xml.document import DocumentStats
from repro.xml.tokens import EndTag, StartTag, Text
from repro.xml.writer import escape_attr, escape_text


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attr_escapes(self):
        assert escape_attr('he said "hi" & left') == (
            "he said &quot;hi&quot; &amp; left"
        )

    def test_escaped_output_reparses(self):
        tree = Element("a", {"v": '<&">'}, 'text <&> "quoted"')
        assert Element.parse(element_to_string(tree)) == tree


class TestCompactOutput:
    def test_empty_element_self_closes(self):
        assert element_to_string(Element("a")) == "<a/>"

    def test_attributes_in_insertion_order(self):
        tree = Element("a", {"z": "1", "a": "2"})
        assert element_to_string(tree) == '<a z="1" a="2"/>'

    def test_text_and_children(self):
        tree = Element.parse("<a>t<b/></a>")
        assert element_to_string(tree) == "<a>t<b/></a>"

    def test_unbalanced_stream_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events_to_string([StartTag("a")])
        with pytest.raises(XMLSyntaxError):
            events_to_string([StartTag("a"), EndTag("a"), EndTag("b")])


class TestPrettyOutput:
    def test_indentation(self):
        tree = Element.parse("<a><b><c/></b></a>")
        text = element_to_string(tree, indent="  ")
        assert "\n  <b>" in text
        assert "\n    <c/>" in text

    def test_leaf_text_stays_inline(self):
        tree = Element.parse("<a><b>value</b></a>")
        text = element_to_string(tree, indent="  ")
        assert "<b>value</b>" in text

    def test_pretty_output_reparses_to_same_tree(self):
        tree = Element.parse(
            '<company><region name="NE"><branch name="D">'
            "<employee ID=\"1\"><name>Smith</name></employee>"
            "</branch></region></company>"
        )
        assert Element.parse(element_to_string(tree, indent="  ")) == tree

    def test_events_to_string_accepts_text_events(self):
        text = events_to_string(
            [StartTag("a"), Text("x"), Text("y"), EndTag("a")]
        )
        assert text == "<a>xy</a>"


# -- the record writer: stored documents to text ----------------------------

STORAGE = {
    "plain": lambda: None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "levels": lambda: CompactionConfig(names=None),
    "full": CompactionConfig,
}

_TEXTS = st.sampled_from(
    ["", "a", "x & y", "<b>", 'say "hi"', "1 > 0", "café", "  ", "\n"]
)
_VALUES = st.sampled_from(["", "v", "a&b", '"q"', "<x>", "1 > 0", "it's"])


@st.composite
def mixed_documents(draw):
    """Token streams whose texts and attribute values hold characters XML
    escapes, with mixed content, adjacent and empty texts, and elements
    with no content at all."""

    def element(depth: int) -> list:
        tag = draw(st.sampled_from(["a", "bb", "item"]))
        attrs = draw(
            st.dictionaries(
                st.sampled_from(["k", "name"]), _VALUES, max_size=2
            )
        )
        children = draw(st.integers(0, 3)) if depth < 4 else 0
        tokens: list = [StartTag(tag, tuple(attrs.items()))]
        for index in range(children + 1):
            texts = draw(st.lists(_TEXTS, max_size=2))
            tokens.extend(Text(text) for text in texts)
            if index < children:
                tokens.extend(element(depth + 1))
        tokens.append(EndTag(tag))
        return tokens

    return element(1)


def _stored(tokens, storage: str, block_size: int) -> Document:
    store = RunStore(BlockDevice(block_size=block_size))
    return Document.from_events(store, tokens, STORAGE[storage]())


def _cli_bytes(document: Document) -> tuple[bytes, bytes]:
    """What ``repro sort`` writes with ``-o`` and to stdout."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "out.xml")
        _emit(document, path)
        with open(path, "rb") as handle:
            written = handle.read()
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        _emit(document, None)
    return written, shown.getvalue().encode("utf-8")


class TestRecordWriter:
    """``Document.to_string`` and the CLI's streamed output are the token
    serializer's text of the stored document, in every storage dialect."""

    @settings(max_examples=80, deadline=None)
    @given(
        tokens=mixed_documents(),
        storage=st.sampled_from(sorted(STORAGE)),
        block_size=st.sampled_from([64, 96, 4096]),
    )
    def test_text_equals_the_token_serializer(
        self, tokens, storage, block_size
    ):
        document = _stored(tokens, storage, block_size)
        for indent in (None, "  "):
            expected = events_to_string(document.iter_events(), indent)
            assert document.to_string(indent) == expected
        written, shown = _cli_bytes(document)
        assert written == shown == expected.encode("utf-8")

    @pytest.mark.parametrize("storage", sorted(STORAGE))
    def test_records_spanning_blocks(self, storage):
        """Starts and texts longer than a block go through the reader's
        record read and come out whole."""
        tokens = [
            StartTag("r", (("name", "n" * 150),)),
            Text("t&" * 100),
            StartTag("e", (("v", '"' * 140),)),
            EndTag("e"),
            Text("tail"),
            EndTag("r"),
        ]
        document = _stored(tokens, storage, 64)
        for indent in (None, "  "):
            assert document.to_string(indent) == events_to_string(
                tokens, indent
            )

    def test_text_comes_in_bounded_chunks(self):
        document = _stored(
            level_fanout_events([16, 16, 16], seed=3, pad_bytes=24),
            "plain", 1024,
        )
        chunks = list(document.text_chunks(indent="  "))
        text = "".join(chunks)
        assert text == events_to_string(document.iter_events(), "  ")
        assert len(chunks) > 20
        assert max(map(len, chunks)) < len(text) // 10

    def test_memory_stays_within_the_text(self, tmp_path):
        """``to_string`` holds its chunks and their one join, at most 2.5x
        the text; the CLI writes each chunk as it comes and never holds
        the whole text.  The document repeats its start tags (161
        distinct among 4,369 elements, as in the Figure-5/6 shapes), so
        the writer's bounded memo of distinct starts stays small beside
        the text."""
        document = _stored(
            level_fanout_events([16, 16, 16], seed=3, pad_bytes=24),
            "plain", 1024,
        )
        path = str(tmp_path / "out.xml")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            text = document.to_string(indent="  ")
            joined_peak = tracemalloc.get_traced_memory()[1] - base
            size = len(text)
            del text
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _emit(document, path)
            written_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) == size  # ASCII: one byte a character
        assert joined_peak <= 2.5 * size
        assert written_peak < 0.5 * size


def _raw_document(records: list[bytes]) -> Document:
    """A plain document holding ``records`` as stored, whatever they are."""
    store = RunStore(BlockDevice(block_size=64))
    writer = store.create_writer("load")
    writer.write_records(records)
    return Document(store, writer.finish(), DocumentStats())


class TestMalformedRecords:
    """Records the writer cannot show raise a typed error."""

    START = b"\x01\x00" + encode_tag_attrs("a", ())
    END = b"\x03\x00" + encode_name("a")

    @pytest.mark.parametrize(
        "records",
        [
            [START, b"\x02\x00\x09ab", END],  # text longer than its record
            [START, b"\x02\x00\x02\xff\xfe", END],  # not UTF-8
            [START, b"", END],  # an empty record has no type
            [START, b"\x02", END],  # a text with no length
            [START, b"\x04\x00\x01\x01\x01", END],  # a run pointer
            [END],  # an end tag that closes nothing
            [START[:3]],  # a start cut inside its tag
        ],
    )
    def test_typed_codec_error(self, records):
        with pytest.raises(CodecError):
            _raw_document(records).to_string()

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError):
            _raw_document([self.START]).to_string()

    def test_failed_cli_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.xml"
        with pytest.raises(CodecError):
            _emit(_raw_document([self.START, b"", self.END]), str(path))
        assert not path.exists()
