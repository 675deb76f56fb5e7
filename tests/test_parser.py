"""Unit and property tests for the XML tokenizer."""

from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xml import (
    Element,
    element_to_string,
    parse_events,
    parse_events_incremental,
)
from repro.xml.tokens import EndTag, StartTag, Text

#: Character references that are not well-formed or denote no character.
MALFORMED_REFERENCES = [
    "&#xZZ;",
    "&#;",
    "&#-5;",
    "&#x110000;",
    "&#99999999999;",
]


def events(text, **kwargs):
    return list(parse_events(text, **kwargs))


class TestBasicParsing:
    def test_single_element(self):
        assert events("<a></a>") == [StartTag("a"), EndTag("a")]

    def test_self_closing(self):
        assert events("<a/>") == [StartTag("a"), EndTag("a")]

    def test_attributes(self):
        (start, _end) = events('<a x="1" y=\'two\'/>')
        assert start.attrs == (("x", "1"), ("y", "two"))

    def test_attribute_whitespace_tolerance(self):
        (start, _end) = events('<a  x = "1"   />')
        assert start.attrs == (("x", "1"),)

    def test_nesting(self):
        got = events("<a><b><c/></b></a>")
        assert [type(t).__name__ for t in got] == [
            "StartTag",
            "StartTag",
            "StartTag",
            "EndTag",
            "EndTag",
            "EndTag",
        ]

    def test_text_content(self):
        assert events("<a>hello</a>") == [
            StartTag("a"),
            Text("hello"),
            EndTag("a"),
        ]

    def test_whitespace_only_text_stripped_by_default(self):
        got = events("<a>\n  <b/>\n</a>")
        assert not any(isinstance(t, Text) for t in got)

    def test_whitespace_preserved_on_request(self):
        got = events("<a> <b/> </a>", strip_whitespace=False)
        assert sum(isinstance(t, Text) for t in got) == 2

    def test_namespace_prefix_is_part_of_name(self):
        (start, _end) = events("<ns:a/>")
        assert start.tag == "ns:a"

    def test_names_with_digits_dots_dashes(self):
        (start, _end) = events("<a-1.b_2/>")
        assert start.tag == "a-1.b_2"


class TestEntitiesAndSections:
    def test_predefined_entities_in_text(self):
        got = events("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>")
        assert got[1] == Text("<x> & \"y\" 'z'")

    def test_numeric_entities(self):
        got = events("<a>&#65;&#x42;</a>")
        assert got[1] == Text("AB")

    def test_entities_in_attributes(self):
        (start, _end) = events('<a v="&amp;&lt;"/>')
        assert start.attrs == (("v", "&<"),)

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events("<a>&nope;</a>")

    def test_cdata(self):
        got = events("<a><![CDATA[<not> & parsed]]></a>")
        assert got[1] == Text("<not> & parsed")

    def test_comments_skipped(self):
        assert events("<a><!-- hi --><b/><!-- bye --></a>") == events(
            "<a><b/></a>"
        )

    def test_processing_instruction_skipped(self):
        got = events('<?xml version="1.0"?><a/>')
        assert got == [StartTag("a"), EndTag("a")]

    def test_doctype_skipped(self):
        got = events('<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>')
        assert got == [StartTag("a"), EndTag("a")]


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "</a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            "text only",
            "<a>unclosed",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a><!-- unterminated </a>",
            "<a><![CDATA[open</a>",
            "<>",
            "< a/>",
            "",
            "<a ='v'/>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLSyntaxError):
            events(bad)

    @pytest.mark.parametrize(
        "parse",
        [
            events,
            lambda text: list(parse_events_incremental(StringIO(text))),
            lambda text: list(
                parse_events_incremental(StringIO(text), chunk_chars=2)
            ),
        ],
        ids=["one-shot", "incremental", "incremental-chunk-2"],
    )
    def test_error_carries_line_number(self, parse):
        with pytest.raises(XMLSyntaxError) as info:
            parse("<a>\n<b>\n</a>")
        assert info.value.line == 3
        assert info.value.position == 8

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events("<a/>trailing")

    @pytest.mark.parametrize("reference", MALFORMED_REFERENCES)
    @pytest.mark.parametrize("where", ["text", "attribute"])
    def test_malformed_character_reference_is_a_syntax_error(
        self, reference, where
    ):
        text = (
            f"<a>\nx{reference}</a>"
            if where == "text"
            else f'<a>\n<b v="{reference}"/></a>'
        )
        with pytest.raises(XMLSyntaxError) as info:
            events(text)
        assert info.value.line == 2

    def test_reference_to_an_illegal_character_rejected(self):
        for reference in ("&#0;", "&#xD800;", "&#xFFFE;"):
            with pytest.raises(XMLSyntaxError):
                events(f"<a>{reference}</a>")


class TestByteOrderMark:
    def test_leading_bom_is_skipped(self):
        assert events("\ufeff<a/>") == events("<a/>")

    def test_only_one_leading_bom(self):
        with pytest.raises(XMLSyntaxError):
            events("\ufeff\ufeff<a/>")

    def test_bom_inside_the_root_is_text(self):
        assert events("<a>\ufeff</a>")[1] == Text("\ufeff")


@st.composite
def xml_tree(draw, depth=3):
    tag = draw(
        st.text(alphabet="abcdefgh", min_size=1, max_size=5)
    )
    attrs = draw(
        st.dictionaries(
            st.text(alphabet="xyzw", min_size=1, max_size=4),
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"),
                ),
                max_size=12,
            ),
            max_size=3,
        )
    )
    children = []
    if depth > 0:
        children = draw(
            st.lists(xml_tree(depth=depth - 1), max_size=3)
        )
    text = ""
    if not children:
        text = draw(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=15,
            )
        ).strip()
    return Element(tag, attrs, text, children)


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(tree=xml_tree())
    def test_serialize_then_parse_is_identity(self, tree):
        text = element_to_string(tree)
        parsed = Element.parse(text)
        assert parsed == tree

    @settings(max_examples=40, deadline=None)
    @given(tree=xml_tree())
    def test_pretty_printed_output_also_round_trips(self, tree):
        text = element_to_string(tree, indent="  ")
        parsed = Element.parse(text)
        assert parsed == tree
