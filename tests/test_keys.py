"""Unit tests for ordering criteria and the streaming key evaluator."""

import pytest
from hypothesis import given, settings

from repro.errors import SortSpecError
from repro.keys import (
    ByAttribute,
    ByChildPath,
    ByTag,
    ByText,
    DocumentOrder,
    KeyEvaluator,
    SortSpec,
)
from repro.xml import Element, parse_events
from repro.xml.tokens import (
    EndTag,
    KEY_NUMBER,
    KEY_STRING,
    MISSING_KEY,
    StartTag,
    Text,
)

from .conftest import CHILD_PATH_CASES, child_path_documents


class TestRules:
    def test_by_attribute_string(self):
        rule = ByAttribute("name")
        element = Element("region", {"name": "Durham"})
        assert rule.key_of_element(element) == (KEY_STRING, "Durham")

    def test_by_attribute_numeric_coercion(self):
        rule = ByAttribute("ID")
        assert rule.key_of_element(Element("e", {"ID": "454"})) == (
            KEY_NUMBER,
            454.0,
        )

    def test_by_attribute_coercion_disabled(self):
        rule = ByAttribute("ID", numeric_coercion=False)
        assert rule.key_of_element(Element("e", {"ID": "454"})) == (
            KEY_STRING,
            "454",
        )

    def test_by_attribute_missing(self):
        rule = ByAttribute("name")
        assert rule.key_of_element(Element("e")) == MISSING_KEY

    def test_by_attribute_missing_uses_tag(self):
        rule = ByAttribute("name", missing_uses_tag=True)
        assert rule.key_of_element(Element("phone")) == (
            KEY_STRING,
            "phone",
        )

    def test_by_tag(self):
        assert ByTag().key_of_element(Element("zeta")) == (KEY_STRING, "zeta")

    def test_document_order_always_missing(self):
        assert DocumentOrder().key_of_element(Element("a")) == MISSING_KEY

    def test_by_text(self):
        assert ByText().key_of_element(Element("a", {}, "42")) == (
            KEY_NUMBER,
            42.0,
        )
        assert ByText().key_of_element(Element("a", {}, "word")) == (
            KEY_STRING,
            "word",
        )
        assert ByText().key_of_element(Element("a")) == MISSING_KEY

    def test_by_child_path(self):
        rule = ByChildPath("personalInfo/name/lastName")
        employee = Element.parse(
            "<employee><personalInfo><name>"
            "<lastName>Smith</lastName></name></personalInfo></employee>"
        )
        assert rule.key_of_element(employee) == (KEY_STRING, "Smith")

    def test_by_child_path_missing(self):
        rule = ByChildPath("a/b")
        assert rule.key_of_element(Element("e")) == MISSING_KEY

    def test_by_child_path_empty_rejected(self):
        with pytest.raises(SortSpecError):
            ByChildPath("").steps()

    def test_start_computable_flags(self):
        assert ByAttribute("x").start_computable
        assert ByTag().start_computable
        assert DocumentOrder().start_computable
        assert not ByText().start_computable
        assert not ByChildPath("a").start_computable

    def test_end_rule_rejects_start_evaluation(self):
        with pytest.raises(SortSpecError):
            ByText().key_from_start(StartTag("a"))


class TestSortSpec:
    def test_rule_for_dispatch(self):
        spec = SortSpec(
            default=ByAttribute("name"), rules={"employee": ByAttribute("ID")}
        )
        assert spec.rule_for("employee").attribute == "ID"
        assert spec.rule_for("region").attribute == "name"

    def test_by_attribute_shorthand(self):
        spec = SortSpec.by_attribute("name", employee="ID")
        assert spec.rule_for("employee").attribute == "ID"
        assert spec.rule_for("anything").attribute == "name"
        assert spec.rule_for("anything").missing_uses_tag

    def test_start_computable_aggregation(self):
        assert SortSpec(default=ByAttribute("x")).start_computable
        assert not SortSpec(
            default=ByAttribute("x"), rules={"a": ByText()}
        ).start_computable

    def test_element_order_is_stable(self):
        spec = SortSpec(default=ByAttribute("name"))
        a1 = Element("a", {"name": "same", "id": "1"})
        a2 = Element("a", {"name": "same", "id": "2"})
        ordered = spec.element_order([a2, a1])
        assert ordered == [a2, a1]  # stable: original order kept on ties

    def test_default_spec_is_document_order(self):
        spec = SortSpec()
        assert isinstance(spec.default, DocumentOrder)


def annotate(xml: str, spec: SortSpec):
    return list(KeyEvaluator(spec).annotate(parse_events(xml)))


class TestKeyEvaluator:
    def test_positions_are_preorder(self):
        spec = SortSpec(default=ByAttribute("name"))
        events = annotate("<a><b><c/></b><d/></a>", spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert [s.pos for s in starts] == [0, 1, 2, 3]
        ends = [e for e in events if isinstance(e, EndTag)]
        assert sorted(e.pos for e in ends) == [0, 1, 2, 3]

    def test_levels_assigned(self):
        spec = SortSpec(default=ByAttribute("name"))
        events = annotate("<a><b><c/></b></a>", spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert [s.level for s in starts] == [1, 2, 3]

    def test_start_keys_for_start_computable_spec(self):
        spec = SortSpec(default=ByAttribute("name"))
        events = annotate('<a name="root"><b name="kid"/></a>', spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert starts[0].key == (KEY_STRING, "root")
        assert starts[1].key == (KEY_STRING, "kid")
        ends = [e for e in events if isinstance(e, EndTag)]
        assert all(e.key is None for e in ends)

    def test_end_keys_for_subtree_spec(self):
        spec = SortSpec(default=ByText())
        events = annotate("<a><b>two</b><b>one</b></a>", spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert all(s.key is None for s in starts)
        end_keys = {
            e.pos: e.key for e in events if isinstance(e, EndTag)
        }
        assert end_keys[1] == (KEY_STRING, "two")
        assert end_keys[2] == (KEY_STRING, "one")

    def test_child_path_key_on_end_tag(self):
        spec = SortSpec(
            rules={"employee": ByChildPath("personalInfo/name/lastName")}
        )
        xml = (
            "<company><employee><personalInfo><name>"
            "<lastName>Smith</lastName></name></personalInfo></employee>"
            "</company>"
        )
        events = annotate(xml, spec)
        employee_end = [
            e
            for e in events
            if isinstance(e, EndTag) and e.tag == "employee"
        ][0]
        assert employee_end.key == (KEY_STRING, "Smith")

    def test_child_path_ignores_wrong_depth(self):
        """A lastName at the wrong depth must not match the path."""
        spec = SortSpec(rules={"employee": ByChildPath("name/lastName")})
        xml = (
            "<company><employee><lastName>Wrong</lastName>"
            "<name><lastName>Right</lastName></name></employee></company>"
        )
        events = annotate(xml, spec)
        end = [
            e
            for e in events
            if isinstance(e, EndTag) and e.tag == "employee"
        ][0]
        assert end.key == (KEY_STRING, "Right")

    def test_child_path_nested_same_tag_elements(self):
        """Nested employees each evaluate their own path expression."""
        spec = SortSpec(rules={"emp": ByChildPath("name")})
        xml = (
            "<r><emp><name>outer</name>"
            "<emp><name>inner</name></emp></emp></r>"
        )
        events = annotate(xml, spec)
        keys = [
            e.key
            for e in events
            if isinstance(e, EndTag) and e.tag == "emp"
        ]
        assert keys == [(KEY_STRING, "inner"), (KEY_STRING, "outer")]

    def test_child_path_first_match_wins(self):
        spec = SortSpec(rules={"e": ByChildPath("v")})
        events = annotate("<r><e><v>first</v><v>second</v></e></r>", spec)
        end = [
            e for e in events if isinstance(e, EndTag) and e.tag == "e"
        ][0]
        assert end.key == (KEY_STRING, "first")

    def test_mixed_spec_puts_all_keys_on_ends(self):
        spec = SortSpec(
            default=ByAttribute("name"), rules={"leaf": ByText()}
        )
        events = annotate('<a name="x"><leaf>7</leaf></a>', spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert all(s.key is None for s in starts)
        end_keys = {e.tag: e.key for e in events if isinstance(e, EndTag)}
        assert end_keys["a"] == (KEY_STRING, "x")
        assert end_keys["leaf"] == (KEY_NUMBER, 7.0)

    def test_text_passes_through(self):
        spec = SortSpec(default=ByAttribute("name"))
        events = annotate("<a>hello</a>", spec)
        assert Text("hello") in events


def _assert_end_keys_match_oracle(events, spec):
    """Every end tag's streamed key equals the DOM oracle's key of its
    element (end tags carry the preorder position)."""
    end_keys = {
        event.pos: event.key
        for event in KeyEvaluator(spec).annotate(events)
        if isinstance(event, EndTag)
    }
    elements = list(Element.from_events(events).iter())
    assert [end_keys[pos] for pos in range(len(elements))] == [
        spec.key_of_element(element) for element in elements
    ]


class TestChildPathMatchesOracle:
    """The streamed child-path key is ``ByChildPath.key_of_element``'s:
    each step binds the first child with its tag, and the key is every
    direct text of the last bound element."""

    @pytest.mark.parametrize("xml", CHILD_PATH_CASES)
    def test_cases(self, xml):
        _assert_end_keys_match_oracle(
            list(parse_events(xml)), SortSpec.parse("a=b/c")
        )

    @settings(max_examples=150, deadline=None)
    @given(document=child_path_documents())
    def test_random_documents(self, document):
        events, path = document
        _assert_end_keys_match_oracle(
            events, SortSpec(default=ByChildPath(path))
        )


class TestByAttributes:
    def test_composite_orders_by_priority(self):
        from repro.keys import ByAttributes

        rule = ByAttributes(("name", "value"))
        a = rule.key_of_element(Element("s", {"name": "temp", "value": "1"}))
        b = rule.key_of_element(Element("s", {"name": "temp", "value": "2"}))
        c = rule.key_of_element(Element("s", {"name": "wind", "value": "0"}))
        assert a < b < c

    def test_all_missing_is_missing(self):
        from repro.keys import ByAttributes

        rule = ByAttributes(("name", "value"))
        assert rule.key_of_element(Element("s")) == MISSING_KEY

    def test_partial_values_still_key(self):
        from repro.keys import ByAttributes

        rule = ByAttributes(("name", "value"))
        key = rule.key_of_element(Element("s", {"name": "temp"}))
        assert key != MISSING_KEY

    def test_start_computable_and_streaming(self):
        from repro.keys import ByAttributes

        spec = SortSpec(default=ByAttributes(("a", "b")))
        assert spec.start_computable
        events = annotate('<r a="1" b="2"><x a="1" b="9"/></r>', spec)
        starts = [e for e in events if isinstance(e, StartTag)]
        assert starts[0].key is not None
        assert starts[0].key < starts[1].key

    def test_nexsort_with_composite_keys(self, store):
        from repro.core import nexsort
        from repro.keys import ByAttributes
        from repro.baselines import sort_element
        from repro.xml import Document

        spec = SortSpec(default=ByAttributes(("name", "value")))
        tree = Element.parse(
            '<r name="r"><s name="t" value="9"/><s name="t" value="1"/>'
            '<s name="a" value="5"/></r>'
        )
        doc = Document.from_element(store, tree)
        result, _ = nexsort(doc, spec, memory_blocks=8)
        assert result.to_element() == sort_element(tree, spec)


class TestNormalizedKeyEdgeCases:
    """Normalized-key ordering edge cases the columnar argsort leans on.

    Sorts and merges compare these bytes directly, so the byte order must
    be total and match tuple-key order exactly - including empty strings,
    multi-byte UTF-8, and keys that differ only after a long common
    prefix.
    """

    def test_empty_text_sorts_before_everything(self):
        from repro.merge.engine import normalized_path_key

        empty = normalized_path_key((((KEY_STRING, ""), 0),))
        space = normalized_path_key((((KEY_STRING, " "), 0),))
        word = normalized_path_key((((KEY_STRING, "a"), 0),))
        assert empty < space < word
        # ... but missing still sorts before the empty string, matching
        # tuple order (KEY_MISSING=0 < KEY_STRING=2).
        missing = normalized_path_key((((0, 0.0), 0),))
        assert missing < empty

    def test_multibyte_utf8_orders_by_codepoint(self):
        from repro.merge.engine import normalized_path_key

        def key(value):
            return normalized_path_key((((KEY_STRING, value), 0),))

        # UTF-8 byte order == codepoint order; check across 1-, 2-, 3-
        # and 4-byte encodings.
        values = ["z", "é", "Ł", "中", "\U0001f600"]
        normalized = sorted(key(v) for v in values)
        by_codepoint = [key(v) for v in sorted(values)]
        assert normalized == by_codepoint
        assert key("z") < key("é")

    def test_keys_longer_than_prefix_tiebreak_on_tail(self):
        from repro.core.columnar import argsort_normalized
        from repro.merge.engine import normalized_path_key

        shared = "x" * 32  # keys differ only after a long common prefix
        keys = [
            normalized_path_key((((KEY_STRING, shared + tail), 0),))
            for tail in ("d", "b", "c", "a", "b")
        ]
        # Ordered by tail; the two equal keys keep input order.
        assert argsort_normalized(keys) == [3, 1, 4, 2, 0]

    def test_numeric_keys_order_including_negatives_and_zero(self):
        from repro.merge.engine import normalized_path_key

        def key(value):
            return normalized_path_key((((KEY_NUMBER, value), 0),))

        assert key(-0.0) == key(0.0)
        increasing = [-1e300, -2.5, 0.0, 1.0, float("inf")]
        normalized = [key(v) for v in increasing]
        assert normalized == sorted(normalized)
        assert len(set(normalized)) == len(normalized)

    def test_parent_is_strict_prefix_of_child(self):
        from repro.merge.engine import normalized_path_key

        parent = (((KEY_STRING, "a"), 1),)
        child = parent + (((KEY_STRING, "b"), 2),)
        parent_key = normalized_path_key(parent)
        child_key = normalized_path_key(child)
        assert child_key.startswith(parent_key)
        assert parent_key < child_key
