"""Tests for the incremental (streaming) XML tokenizer."""

import random
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.io import BlockDevice, RunStore
from repro.xml import (
    Document,
    element_to_string,
    parse_events,
    parse_events_incremental,
)

from .conftest import random_tree, sha256_records
from .test_document_edges import rich_document
from .test_parser import MALFORMED_REFERENCES


def incremental(text: str, chunk: int = 7, **kwargs):
    return list(
        parse_events_incremental(
            StringIO(text), chunk_chars=chunk, **kwargs
        )
    )


SAMPLES = [
    "<a/>",
    "<a></a>",
    '<a x="1" y="two words"><b/>text<c>deep</c></a>',
    "<a><!-- comment --><b/><![CDATA[raw <stuff>]]></a>",
    '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>',
    "<a>&amp;&lt;&#65;</a>",
    '<ns:tag attr="v&quot;q"/>',
    "<a>" + "x" * 5000 + "</a>",  # text run far larger than a chunk
    "<a " + " ".join(f'k{i}="v{i}"' for i in range(50)) + "/>",
]


class TestEquivalenceWithOneShotParser:
    @pytest.mark.parametrize("xml", SAMPLES)
    @pytest.mark.parametrize("chunk", [3, 16, 1024])
    def test_same_events(self, xml, chunk):
        assert incremental(xml, chunk) == list(parse_events(xml))

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_random_documents(self, chunk):
        for seed in range(6):
            tree = random_tree(seed, depth=4, max_fanout=4,
                               text_leaves=True)
            text = element_to_string(tree, indent="  ")
            assert incremental(text, chunk) == list(parse_events(text))

    def test_whitespace_preservation_option(self):
        xml = "<a> <b/> </a>"
        assert incremental(xml, 4, strip_whitespace=False) == list(
            parse_events(xml, strip_whitespace=False)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100),
        chunk=st.integers(min_value=2, max_value=200),
    )
    def test_chunk_size_never_changes_the_events(self, seed, chunk):
        tree = random_tree(seed, depth=3, max_fanout=4, text_leaves=True)
        text = element_to_string(tree)
        assert incremental(text, chunk) == list(parse_events(text))


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "</a>",
            "<a></b>",
            "<a/><b/>",
            "text only",
            "<a><!-- unterminated",
            "<a><![CDATA[open",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLSyntaxError):
            incremental(bad)

    def test_construct_spanning_chunks_still_errors_cleanly(self):
        with pytest.raises(XMLSyntaxError):
            incremental('<aaaa bbbb="cccc', chunk=2)

    @pytest.mark.parametrize("reference", MALFORMED_REFERENCES)
    @pytest.mark.parametrize("chunk", [3, 1024])
    def test_malformed_character_reference_is_a_syntax_error(
        self, reference, chunk
    ):
        for text in (f"<a>x{reference}</a>", f'<a><b v="{reference}"/></a>'):
            with pytest.raises(XMLSyntaxError):
                incremental(text, chunk)

    def test_invalid_utf8_file_is_a_syntax_error(self, tmp_path, store):
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<a>\xff\xfe</a>")
        with pytest.raises(XMLSyntaxError):
            Document.from_file(store, str(path))


class TestFromFile:
    def test_document_from_file(self, tmp_path, store):
        tree = random_tree(9, depth=4, max_fanout=4, text_leaves=True)
        path = tmp_path / "doc.xml"
        path.write_text(element_to_string(tree, indent="  "))
        doc = Document.from_file(store, str(path), chunk_chars=64)
        assert doc.to_element() == tree

    def test_from_file_matches_from_string(self, tmp_path, store):
        tree = random_tree(10, depth=3, max_fanout=5)
        text = element_to_string(tree)
        path = tmp_path / "doc.xml"
        path.write_text(text)
        via_file = Document.from_file(store, str(path))
        via_string = Document.from_string(store, text)
        assert via_file.to_element() == via_string.to_element()
        assert via_file.element_count == via_string.element_count

    def test_bom_prefixed_file_loads_and_emits_no_bom(self, tmp_path, store):
        text = element_to_string(random_tree(4, depth=3), indent="  ")
        path = tmp_path / "bom.xml"
        path.write_text("\ufeff" + text, encoding="utf-8")
        doc = Document.from_file(store, str(path), chunk_chars=16)
        out = doc.to_string(indent="  ")
        assert not out.startswith("\ufeff")
        assert out == text


def _records(document: Document) -> str:
    return sha256_records(
        document.store.open_reader(document.handle, category="check")
    )


class TestChunkBoundaries:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_chunk_size_loads_the_same_document(
        self, tmp_path_factory, seed
    ):
        text = rich_document(
            random_tree(seed, depth=3, max_fanout=3, text_leaves=True), seed
        )
        expected = list(parse_events(text))
        reference = Document.from_string(RunStore(BlockDevice(512)), text)
        records = _records(reference)
        path = tmp_path_factory.mktemp("chunks") / "doc.xml"
        path.write_text(text, encoding="utf-8")
        for chunk in range(1, len(text) + 1):
            assert incremental(text, chunk) == expected, chunk
            loaded = Document.from_file(
                RunStore(BlockDevice(512)), str(path), chunk_chars=chunk
            )
            assert _records(loaded) == records, chunk
            assert loaded.stats == reference.stats, chunk


#: What the fuzzer inserts: markup that opens or closes constructs.
_INSERTS = [b"<", b"&", b'"', b"]]>", b"--"]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte flips, truncations or markup insertions."""
    for _ in range(rng.randint(1, 3)):
        operation = rng.randrange(3)
        at = rng.randrange(len(data) + 1)
        if operation == 0 and data:
            at = min(at, len(data) - 1)
            flipped = data[at] ^ (1 << rng.randrange(8))
            data = data[:at] + bytes([flipped]) + data[at + 1 :]
        elif operation == 1:
            data = data[:at]
        else:
            data = data[:at] + rng.choice(_INSERTS) + data[at:]
    return data


def _outcome(parse):
    """The events, or the (position, line) of the XMLSyntaxError raised."""
    try:
        return list(parse())
    except XMLSyntaxError as error:
        return ("error", error.position, error.line)


class TestFuzz:
    """Mutated documents parse identically through every entry point or
    raise XMLSyntaxError, never another exception."""

    @pytest.mark.parametrize("base", range(4))
    def test_mutants_fail_only_with_syntax_errors(self, tmp_path, base):
        tree = random_tree(base, depth=3, max_fanout=3, text_leaves=True)
        source = rich_document(tree, base).encode("utf-8")
        rng = random.Random(base)
        path = tmp_path / "mutant.xml"
        for _ in range(150):
            mutant = _mutate(source, rng)
            path.write_bytes(mutant)
            try:
                text = mutant.decode("utf-8")
            except UnicodeDecodeError:
                with pytest.raises(XMLSyntaxError):
                    Document.from_file(RunStore(BlockDevice(512)), str(path))
                continue
            chunk = rng.randint(1, 64)
            whole = _outcome(lambda: parse_events(text))
            assert _outcome(lambda: incremental(text, chunk)) == whole
            # Files are read with universal newlines.
            newlines = text.replace("\r\n", "\n").replace("\r", "\n")
            stored = []
            for load in (
                lambda store: Document.from_string(store, newlines),
                lambda store: Document.from_file(
                    store, str(path), chunk_chars=chunk
                ),
            ):
                try:
                    stored.append(_records(load(RunStore(BlockDevice(512)))))
                except XMLSyntaxError as error:
                    stored.append(("error", error.position, error.line))
            assert stored[0] == stored[1]
