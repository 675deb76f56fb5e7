"""Tests for DTD parsing, validation, and dictionary seeding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, XMLSyntaxError
from repro.xml import Document, Element
from repro.xml.dtd import DTD

COMPANY_DTD = """
<!DOCTYPE company [
  <!ELEMENT company (region*)>
  <!ELEMENT region (branch*)>
  <!ELEMENT branch (employee*)>
  <!ELEMENT employee (name?, phone?, salary?, bonus?)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT phone (#PCDATA)>
  <!ELEMENT salary (#PCDATA)>
  <!ELEMENT bonus (#PCDATA)>
  <!ATTLIST region name CDATA #REQUIRED>
  <!ATTLIST branch name CDATA #REQUIRED>
  <!ATTLIST employee ID CDATA #REQUIRED
                     grade (junior|senior) "junior">
]>
"""


@pytest.fixture
def dtd() -> DTD:
    return DTD.parse(COMPANY_DTD)


class TestParsing:
    def test_elements_parsed(self, dtd):
        assert set(dtd.elements) == {
            "company",
            "region",
            "branch",
            "employee",
            "name",
            "phone",
            "salary",
            "bonus",
        }
        assert dtd.elements["name"].kind == "MIXED"
        assert dtd.elements["company"].kind == "CHILDREN"

    def test_attributes_parsed(self, dtd):
        employee = dtd.attributes["employee"]
        assert employee["ID"].presence == "#REQUIRED"
        assert employee["grade"].att_type == "ENUM"
        assert employee["grade"].enum_values == ("junior", "senior")
        assert employee["grade"].default == "junior"

    def test_empty_and_any(self):
        dtd = DTD.parse("<!ELEMENT a EMPTY><!ELEMENT b ANY>")
        assert dtd.elements["a"].kind == "EMPTY"
        assert dtd.elements["b"].kind == "ANY"

    def test_comments_skipped(self):
        dtd = DTD.parse("<!-- note --><!ELEMENT a EMPTY><!-- also -->")
        assert "a" in dtd.elements

    def test_allowed_children(self, dtd):
        assert dtd.elements["employee"].allowed_children() == {
            "name",
            "phone",
            "salary",
            "bonus",
        }

    def test_bad_model_rejected(self):
        with pytest.raises(XMLSyntaxError):
            DTD.parse("<!ELEMENT a WRONG>")

    @pytest.mark.parametrize(
        "text",
        [
            "<!ATTLIST a id>",  # attribute without a type
            "<!ELEMENT a (b*|>",  # content model cut after a separator
            "<!ATTLIST a id ID #>",  # '#' names no default keyword
        ],
    )
    def test_malformed_declaration_is_syntax_error(self, text):
        with pytest.raises(XMLSyntaxError):
            DTD.parse(text)


_DTD_ALPHABET = "<>!()|,*?+#\"' \nabEMPTYANYPCDATAREQUIREDFIXEDATTLIST"


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_dtd_parses_or_fails_typed(self, data):
        """Byte-level edits of a valid DTD either parse or raise a
        ``ReproError`` - never ``IndexError`` or another untyped error."""
        text = list(COMPANY_DTD)
        for _ in range(data.draw(st.integers(1, 4))):
            index = data.draw(st.integers(0, max(0, len(text) - 1)))
            op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
            char = data.draw(st.sampled_from(_DTD_ALPHABET))
            if op == "insert" or not text:
                text.insert(index, char)
            elif op == "replace":
                text[index] = char
            else:
                del text[index]
        try:
            DTD.parse("".join(text))
        except ReproError:
            pass


class TestValidation:
    def test_valid_document(self, dtd):
        from repro.generators import figure1_d1

        assert dtd.is_valid(figure1_d1())

    def test_undeclared_element(self, dtd):
        tree = Element.parse("<company><intruder/></company>")
        violations = dtd.validate(tree)
        messages = " | ".join(str(v) for v in violations)
        assert "not declared" in messages

    def test_missing_required_attribute(self, dtd):
        tree = Element.parse("<company><region/></company>")
        violations = dtd.validate(tree)
        assert any("required attribute 'name'" in str(v) for v in violations)

    def test_enum_value_checked(self, dtd):
        tree = Element.parse(
            '<company><region name="r"><branch name="b">'
            '<employee ID="1" grade="wizard"/></branch></region></company>'
        )
        violations = dtd.validate(tree)
        assert any("grade" in str(v) for v in violations)

    def test_sequence_model_enforced(self):
        dtd = DTD.parse("<!ELEMENT r (a, b)><!ELEMENT a EMPTY>"
                        "<!ELEMENT b EMPTY>")
        assert dtd.is_valid(Element.parse("<r><a/><b/></r>"))
        assert not dtd.is_valid(Element.parse("<r><b/><a/></r>"))
        assert not dtd.is_valid(Element.parse("<r><a/></r>"))

    def test_choice_and_repetition(self):
        dtd = DTD.parse(
            "<!ELEMENT r ((a|b)+, c?)><!ELEMENT a EMPTY>"
            "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        )
        assert dtd.is_valid(Element.parse("<r><a/><b/><a/><c/></r>"))
        assert dtd.is_valid(Element.parse("<r><b/></r>"))
        assert not dtd.is_valid(Element.parse("<r><c/></r>"))
        assert not dtd.is_valid(Element.parse("<r><a/><c/><c/></r>"))

    def test_empty_model_rejects_content(self):
        dtd = DTD.parse("<!ELEMENT a EMPTY>")
        assert not dtd.is_valid(Element.parse("<a>text</a>"))
        assert dtd.is_valid(Element.parse("<a/>"))

    def test_text_in_element_only_model(self):
        dtd = DTD.parse("<!ELEMENT r (a*)><!ELEMENT a EMPTY>")
        assert not dtd.is_valid(Element.parse("<r>words<a/></r>"))

    def test_fixed_attribute(self):
        dtd = DTD.parse(
            '<!ELEMENT a EMPTY><!ATTLIST a v CDATA #FIXED "1">'
        )
        assert dtd.is_valid(Element.parse('<a v="1"/>'))
        assert not dtd.is_valid(Element.parse('<a v="2"/>'))

    def test_apply_defaults(self, dtd):
        tree = Element.parse(
            '<company><region name="r"><branch name="b">'
            '<employee ID="1"/></branch></region></company>'
        )
        dtd.apply_defaults(tree)
        employee = tree.find_path("region/branch/employee")
        assert employee.attrs["grade"] == "junior"


class TestDictionarySeeding:
    def test_name_dictionary_covers_all_names(self, dtd):
        names = dtd.name_dictionary()
        for name in ("company", "region", "employee", "ID", "grade"):
            assert name in names

    def test_compaction_config_round_trips_documents(self, dtd, store):
        from repro.generators import figure1_d1

        config = dtd.compaction_config()
        doc = Document.from_element(store, figure1_d1(), config)
        assert doc.to_element() == figure1_d1()

    def test_seeded_dictionary_is_deterministic(self, dtd):
        """Two documents stored with DTD-seeded configs agree on ids -
        the property the structural merge of compacted documents needs."""
        first = dtd.name_dictionary()
        second = dtd.name_dictionary()
        assert first.intern("region") == second.intern("region")
        assert first.intern("ID") == second.intern("ID")
