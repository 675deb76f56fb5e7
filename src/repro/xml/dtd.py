"""Document Type Definitions: parsing, validation, and dictionary seeding.

The paper's compaction discussion (Section 3.2) notes that "the
availability of a DTD can greatly simplify this conversion" - a DTD names
every tag and attribute up front, so the name dictionary can be built
before any document is scanned (and shared across documents, which the
structural merge needs anyway).

This module implements the classic DTD subset:

* ``<!ELEMENT name EMPTY|ANY|(#PCDATA|a|b)*|(content model)>`` with
  sequences ``,``, choices ``|``, and the ``? * +`` occurrence operators;
* ``<!ATTLIST elem attr CDATA|ID|IDREF|NMTOKEN|(enum) #REQUIRED|#IMPLIED|
  #FIXED "v"|"default">``.

Content models compile to small NFAs (Thompson construction), so
validation checks each element's child-tag sequence against the grammar
exactly.  :meth:`DTD.name_dictionary` seeds a
:class:`~repro.xml.compact.NameDictionary`;
:meth:`DTD.compaction_config` wires it into document storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import XMLSyntaxError
from .compact import CompactionConfig, NameDictionary
from .model import Element

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
)
_NAME_CHARS = _NAME_START | set("0123456789-.")

#: The ``#``-keyword attribute defaults of an ATTLIST declaration.
_PRESENCES = ("#REQUIRED", "#IMPLIED", "#FIXED")


# -- content-model expression tree -------------------------------------------


@dataclass(frozen=True)
class _Name:
    name: str


@dataclass(frozen=True)
class _Seq:
    parts: tuple


@dataclass(frozen=True)
class _Choice:
    parts: tuple


@dataclass(frozen=True)
class _Repeat:
    inner: object
    operator: str  # '?', '*', or '+'


@dataclass(frozen=True)
class ContentModel:
    """One element's declared content.

    Attributes:
        kind: 'EMPTY', 'ANY', 'MIXED', or 'CHILDREN'.
        mixed_names: for MIXED, the element names allowed among #PCDATA.
        expression: for CHILDREN, the parsed model tree.
    """

    kind: str
    mixed_names: frozenset = frozenset()
    expression: object = None

    def allowed_children(self) -> frozenset:
        """Every tag that may appear as a child (ANY -> None sentinel)."""
        if self.kind == "EMPTY":
            return frozenset()
        if self.kind == "MIXED":
            return self.mixed_names
        if self.kind == "ANY":
            return frozenset()  # unconstrained; validator special-cases
        names: set[str] = set()

        def collect(node) -> None:
            if isinstance(node, _Name):
                names.add(node.name)
            elif isinstance(node, (_Seq, _Choice)):
                for part in node.parts:
                    collect(part)
            elif isinstance(node, _Repeat):
                collect(node.inner)

        collect(self.expression)
        return frozenset(names)


@dataclass(frozen=True)
class AttributeDef:
    """One declared attribute."""

    name: str
    att_type: str  # CDATA, ID, IDREF, NMTOKEN, or 'ENUM'
    enum_values: tuple = ()
    presence: str = "#IMPLIED"  # #REQUIRED, #IMPLIED, #FIXED, or DEFAULT
    default: str | None = None


@dataclass
class Violation:
    """One validation failure."""

    element: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.element}>: {self.message}"


# -- NFA compilation of content models ----------------------------------------


class _NFA:
    """Thompson-constructed NFA over child tag names."""

    def __init__(self):
        self.transitions: list[dict[str, set[int]]] = []
        self.epsilon: list[set[int]] = []
        self.start = self._new_state()
        self.accept = self._new_state()

    def _new_state(self) -> int:
        self.transitions.append({})
        self.epsilon.append(set())
        return len(self.transitions) - 1

    def add(self, source: int, symbol: str, target: int) -> None:
        self.transitions[source].setdefault(symbol, set()).add(target)

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon[source].add(target)

    def _closure(self, states: set[int]) -> set[int]:
        stack = list(states)
        closed = set(states)
        while stack:
            state = stack.pop()
            for target in self.epsilon[state]:
                if target not in closed:
                    closed.add(target)
                    stack.append(target)
        return closed

    def matches(self, symbols: list[str]) -> bool:
        current = self._closure({self.start})
        for symbol in symbols:
            following: set[int] = set()
            for state in current:
                following |= self.transitions[state].get(symbol, set())
            if not following:
                return False
            current = self._closure(following)
        return self.accept in current


def _compile(expression) -> _NFA:
    nfa = _NFA()

    def build(node, entry: int, exit_: int) -> None:
        if isinstance(node, _Name):
            nfa.add(entry, node.name, exit_)
        elif isinstance(node, _Seq):
            previous = entry
            for part in node.parts[:-1]:
                mid = nfa._new_state()
                build(part, previous, mid)
                previous = mid
            build(node.parts[-1], previous, exit_)
        elif isinstance(node, _Choice):
            for part in node.parts:
                build(part, entry, exit_)
        elif isinstance(node, _Repeat):
            inner_entry = nfa._new_state()
            inner_exit = nfa._new_state()
            build(node.inner, inner_entry, inner_exit)
            nfa.add_epsilon(entry, inner_entry)
            nfa.add_epsilon(inner_exit, exit_)
            if node.operator in ("?", "*"):
                nfa.add_epsilon(entry, exit_)
            if node.operator in ("*", "+"):
                nfa.add_epsilon(inner_exit, inner_entry)
        else:  # pragma: no cover - defensive
            raise XMLSyntaxError(f"bad content model node {node!r}")

    build(expression, nfa.start, nfa.accept)
    return nfa


# -- the DTD ----------------------------------------------------------------


class DTD:
    """A parsed document type definition."""

    def __init__(self):
        self.elements: dict[str, ContentModel] = {}
        self.attributes: dict[str, dict[str, AttributeDef]] = {}
        self._nfas: dict[str, _NFA] = {}

    # -- parsing ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DTD":
        """Parse DTD declarations (a bare DTD or a full DOCTYPE)."""
        dtd = cls()
        scanner = _DTDScanner(text)
        scanner.skip_to_declarations()
        while True:
            declaration = scanner.next_declaration()
            if declaration is None:
                break
            kind, body = declaration
            if kind == "ELEMENT":
                name, model = _parse_element_declaration(body)
                dtd.elements[name] = model
            elif kind == "ATTLIST":
                name, attribute_defs = _parse_attlist_declaration(body)
                dtd.attributes.setdefault(name, {}).update(attribute_defs)
        return dtd

    # -- uses -------------------------------------------------------------

    def name_dictionary(self) -> NameDictionary:
        """Every declared element and attribute name, pre-interned."""
        names = NameDictionary()
        for element in self.elements:
            names.intern(element)
        for element, attrs in self.attributes.items():
            names.intern(element)
            for attr in attrs:
                names.intern(attr)
        return names

    def compaction_config(
        self, eliminate_end_tags: bool = True
    ) -> CompactionConfig:
        """A compaction config seeded from this DTD (Section 3.2)."""
        return CompactionConfig(
            names=self.name_dictionary(),
            eliminate_end_tags=eliminate_end_tags,
        )

    def validate(self, root: Element) -> list[Violation]:
        """Check a document against the DTD; returns all violations."""
        violations: list[Violation] = []
        for node in root.iter():
            model = self.elements.get(node.tag)
            if model is None:
                violations.append(
                    Violation(node.tag, "element not declared")
                )
            else:
                self._check_content(node, model, violations)
            self._check_attributes(node, violations)
        return violations

    def is_valid(self, root: Element) -> bool:
        return not self.validate(root)

    def _check_content(
        self, node: Element, model: ContentModel, violations: list
    ) -> None:
        child_tags = [child.tag for child in node.children]
        if model.kind == "EMPTY":
            if node.children or node.text:
                violations.append(
                    Violation(node.tag, "declared EMPTY but has content")
                )
            return
        if model.kind == "ANY":
            return
        if model.kind == "MIXED":
            bad = [
                tag for tag in child_tags if tag not in model.mixed_names
            ]
            if bad:
                violations.append(
                    Violation(
                        node.tag,
                        f"children {sorted(set(bad))} not in mixed model",
                    )
                )
            return
        # CHILDREN: match the child sequence against the model's NFA.
        if node.text and node.text.strip():
            violations.append(
                Violation(
                    node.tag, "text content in an element-only model"
                )
            )
        nfa = self._nfas.get(node.tag)
        if nfa is None:
            nfa = _compile(model.expression)
            self._nfas[node.tag] = nfa
        if not nfa.matches(child_tags):
            violations.append(
                Violation(
                    node.tag,
                    f"child sequence {child_tags} does not match the "
                    "content model",
                )
            )

    def _check_attributes(self, node: Element, violations: list) -> None:
        declared = self.attributes.get(node.tag, {})
        for attr in node.attrs:
            if attr not in declared:
                violations.append(
                    Violation(node.tag, f"attribute {attr!r} not declared")
                )
        for attr, definition in declared.items():
            value = node.attrs.get(attr)
            if value is None:
                if definition.presence == "#REQUIRED":
                    violations.append(
                        Violation(
                            node.tag,
                            f"required attribute {attr!r} missing",
                        )
                    )
                continue
            if (
                definition.att_type == "ENUM"
                and value not in definition.enum_values
            ):
                violations.append(
                    Violation(
                        node.tag,
                        f"attribute {attr!r} value {value!r} not in "
                        f"{definition.enum_values}",
                    )
                )
            if (
                definition.presence == "#FIXED"
                and value != definition.default
            ):
                violations.append(
                    Violation(
                        node.tag,
                        f"attribute {attr!r} must be fixed to "
                        f"{definition.default!r}",
                    )
                )

    def apply_defaults(self, root: Element) -> None:
        """Fill in declared default attribute values, in place."""
        for node in root.iter():
            for attr, definition in self.attributes.get(
                node.tag, {}
            ).items():
                if attr not in node.attrs and definition.default is not None:
                    node.attrs[attr] = definition.default


# -- declaration scanning ------------------------------------------------------


class _DTDScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_to_declarations(self) -> None:
        doctype = self.text.find("<!DOCTYPE")
        if doctype >= 0:
            bracket = self.text.find("[", doctype)
            if bracket >= 0:
                self.pos = bracket + 1

    def next_declaration(self) -> tuple[str, str] | None:
        while True:
            start = self.text.find("<!", self.pos)
            if start < 0:
                return None
            if self.text.startswith("<!--", start):
                end = self.text.find("-->", start)
                if end < 0:
                    raise XMLSyntaxError("unterminated comment in DTD")
                self.pos = end + 3
                continue
            end = self.text.find(">", start)
            if end < 0:
                raise XMLSyntaxError("unterminated declaration in DTD")
            self.pos = end + 1
            body = self.text[start + 2 : end].strip()
            if body.startswith("ELEMENT"):
                return "ELEMENT", body[len("ELEMENT") :].strip()
            if body.startswith("ATTLIST"):
                return "ATTLIST", body[len("ATTLIST") :].strip()
            if body.startswith("DOCTYPE"):
                continue  # DOCTYPE without internal subset braces
            # ENTITY/NOTATION and others: skipped.


def _read_name(text: str, pos: int) -> tuple[str, int]:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    start = pos
    if pos >= len(text) or text[pos] not in _NAME_START:
        raise XMLSyntaxError(f"expected a name in DTD at {text[pos:pos+20]!r}")
    while pos < len(text) and text[pos] in _NAME_CHARS:
        pos += 1
    return text[start:pos], pos


def _parse_element_declaration(body: str) -> tuple[str, ContentModel]:
    name, pos = _read_name(body, 0)
    rest = body[pos:].strip()
    if rest == "EMPTY":
        return name, ContentModel("EMPTY")
    if rest == "ANY":
        return name, ContentModel("ANY")
    if not rest.startswith("("):
        raise XMLSyntaxError(f"bad content model for {name}: {rest!r}")
    if "#PCDATA" in rest:
        inner = rest.strip()
        inner = inner.rstrip("*").strip()
        inner = inner[1:-1]  # parentheses
        names = frozenset(
            part.strip()
            for part in inner.split("|")
            if part.strip() and part.strip() != "#PCDATA"
        )
        return name, ContentModel("MIXED", mixed_names=names)
    expression, end = _parse_model(rest, 0)
    if body[pos:].strip()[end:].strip():
        raise XMLSyntaxError(
            f"trailing content-model text for {name}: {rest[end:]!r}"
        )
    return name, ContentModel("CHILDREN", expression=expression)


def _parse_model(text: str, pos: int):
    """Parse one parenthesized group (with its occurrence suffix)."""
    if text[pos] != "(":
        raise XMLSyntaxError(f"expected '(' at {text[pos:pos+10]!r}")
    pos += 1
    parts = []
    separators: set[str] = set()
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise XMLSyntaxError("unterminated content model")
        if text[pos] == "(":
            node, pos = _parse_model(text, pos)
        else:
            name, pos = _read_name(text, pos)
            node = _Name(name)
            node, pos = _maybe_repeat(text, pos, node)
        parts.append(node)
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise XMLSyntaxError("unterminated content model")
        if text[pos] in (",", "|"):
            separators.add(text[pos])
            pos += 1
            continue
        if text[pos] == ")":
            pos += 1
            break
        raise XMLSyntaxError(
            f"unexpected character in content model: {text[pos]!r}"
        )
    if len(separators) > 1:
        raise XMLSyntaxError(
            "content model mixes ',' and '|' at one level"
        )
    if len(parts) == 1:
        node = parts[0]
    elif "|" in separators:
        node = _Choice(tuple(parts))
    else:
        node = _Seq(tuple(parts))
    return _maybe_repeat(text, pos, node)


def _maybe_repeat(text: str, pos: int, node):
    if pos < len(text) and text[pos] in "?*+":
        return _Repeat(node, text[pos]), pos + 1
    return node, pos


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    return pos


def _parse_attlist_declaration(
    body: str,
) -> tuple[str, dict[str, AttributeDef]]:
    element, pos = _read_name(body, 0)
    definitions: dict[str, AttributeDef] = {}
    while True:
        pos = _skip_ws(body, pos)
        if pos >= len(body):
            break
        attr, pos = _read_name(body, pos)
        pos = _skip_ws(body, pos)
        if pos >= len(body):
            raise XMLSyntaxError(
                f"ATTLIST {element}: attribute {attr} has no type"
            )
        enum_values: tuple = ()
        if body[pos] == "(":
            end = body.find(")", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated enumeration in ATTLIST")
            enum_values = tuple(
                value.strip() for value in body[pos + 1 : end].split("|")
            )
            att_type = "ENUM"
            pos = end + 1
        else:
            att_type, pos = _read_name(body, pos)
        pos = _skip_ws(body, pos)
        presence = "#IMPLIED"
        default: str | None = None
        if body[pos : pos + 1] == "#":
            hash_name_end = pos + 1
            while (
                hash_name_end < len(body)
                and body[hash_name_end] in _NAME_CHARS
            ):
                hash_name_end += 1
            presence = body[pos:hash_name_end]
            pos = hash_name_end
            if presence not in _PRESENCES:
                raise XMLSyntaxError(
                    f"ATTLIST {element}: unknown default {presence!r} "
                    f"for attribute {attr}"
                )
            if presence == "#FIXED":
                pos = _skip_ws(body, pos)
                default, pos = _read_quoted(body, pos)
        elif body[pos : pos + 1] in ("'", '"'):
            presence = "DEFAULT"
            default, pos = _read_quoted(body, pos)
        definitions[attr] = AttributeDef(
            name=attr,
            att_type=att_type,
            enum_values=enum_values,
            presence=presence,
            default=default,
        )
    return element, definitions


def _read_quoted(text: str, pos: int) -> tuple[str, int]:
    quote = text[pos : pos + 1]
    if quote not in ("'", '"'):
        raise XMLSyntaxError("expected a quoted default value")
    end = text.find(quote, pos + 1)
    if end < 0:
        raise XMLSyntaxError("unterminated default value")
    return text[pos + 1 : end], end + 1
