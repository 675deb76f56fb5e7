"""Ordering criteria for XML sorting.

A fully sorted document orders the children of *every* non-leaf element
under a criterion chosen per element (Figure 1: regions by ``name``,
branches by ``name``, employees by ``ID``).  A :class:`SortSpec` carries one
:class:`KeyRule` per tag plus a default.

Rules come in two flavours, mirroring the paper:

* **start-computable** (Section 3: "simple ordering criteria that can be
  evaluated for each element using its tag name and/or attribute values") -
  :class:`ByAttribute`, :class:`ByTag`, :class:`DocumentOrder`.  The key is
  known the moment the start tag is scanned.
* **subtree-evaluated** (Section 3.2, "complex ordering criteria") -
  :class:`ByText`, :class:`ByChildPath` (e.g. order employees by
  ``personalInfo/name/lastName``).  The key requires a single pass over the
  element's subtree; by the time the end tag is scanned the key is ready and
  travels on the end tag, exactly as the paper's augmented path stack does.

Keys are made unique among siblings by appending the element's document
position ("if not [unique], we can make it unique by appending it with the
element's location in the input"), which also makes every sort stable.

Streaming key evaluation implements the paper's path-stack augmentation
for subtree expressions: one constant-size frame per open element, with a
small state machine for each element that needs one.  Its three steps -
:func:`enter_element`, :func:`element_text` and :func:`leave_element`
(with :func:`end_key`) - are driven over token streams by
:class:`KeyEvaluator` and over raw stored records by NEXSORT's document
scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import SortSpecError
from .xml.tokens import (
    EndTag,
    KeyAtom,
    MISSING_KEY,
    StartTag,
    Text,
    Token,
    coerce_key,
    string_key,
)

if TYPE_CHECKING:
    from .xml.model import Element


class KeyRule:
    """Base class: how to compute one element's sort key."""

    #: True when the key is known from the start tag alone.
    start_computable = False

    def key_from_start(self, start: StartTag) -> KeyAtom:
        """Key from the start tag (start-computable rules only)."""
        raise SortSpecError(
            f"{type(self).__name__} cannot compute keys from a start tag"
        )

    def key_of_element(self, element: Element) -> KeyAtom:
        """Key from a materialized element (oracle / in-memory path)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ByAttribute(KeyRule):
    """Order by an attribute value (``order region by name``).

    Args:
        attribute: attribute name.
        numeric_coercion: interpret numeric-looking values as numbers, so
            ``ID="454"`` sorts numerically.
        missing_uses_tag: elements without the attribute key by their tag
            name instead of the MISSING atom - the convention of the
            paper's Table 1, where ``<name>`` and ``<phone>`` contribute
            their tags to the key path.
    """

    attribute: str
    numeric_coercion: bool = True
    missing_uses_tag: bool = False
    start_computable = True

    def key_from_start(self, start: StartTag) -> KeyAtom:
        return self._atom(start.attr(self.attribute), start.tag)

    def key_of_element(self, element: Element) -> KeyAtom:
        return self._atom(element.attrs.get(self.attribute), element.tag)

    def _atom(self, value: str | None, tag: str) -> KeyAtom:
        if value is None:
            if self.missing_uses_tag:
                return string_key(tag)
            return MISSING_KEY
        return coerce_key(value) if self.numeric_coercion else string_key(
            value
        )


@dataclass(frozen=True)
class ByAttributes(KeyRule):
    """Order by several attributes at once (a composite key).

    The component values are joined into one string atom with an
    unprintable separator, so the composite orders lexicographically by
    attribute priority.  Useful when an element's identity spans more
    than one attribute - e.g. the archiving application keys readings by
    ``(name, value)`` so a changed value is a *different* element, the
    deterministic-model convention of Buneman et al.
    """

    attributes: tuple[str, ...]
    start_computable = True

    def key_from_start(self, start: StartTag) -> KeyAtom:
        return self._atom(
            [start.attr(name) for name in self.attributes]
        )

    def key_of_element(self, element: Element) -> KeyAtom:
        return self._atom(
            [element.attrs.get(name) for name in self.attributes]
        )

    @staticmethod
    def _atom(values: list[str | None]) -> KeyAtom:
        if all(value is None for value in values):
            return MISSING_KEY
        return string_key(
            "\x1f".join(value if value is not None else "" for value in values)
        )


@dataclass(frozen=True)
class ByTag(KeyRule):
    """Order children by their tag name."""

    start_computable = True

    def key_from_start(self, start: StartTag) -> KeyAtom:
        return string_key(start.tag)

    def key_of_element(self, element: Element) -> KeyAtom:
        return string_key(element.tag)


@dataclass(frozen=True)
class DocumentOrder(KeyRule):
    """Keep children in their original document order.

    Every key is MISSING; the position tie-break preserves input order.
    This is the rule behind the paper's remark that merge "can be adapted to
    preserve the original document ordering (by recording an additional
    sequence number ...)".
    """

    start_computable = True

    def key_from_start(self, start: StartTag) -> KeyAtom:
        return MISSING_KEY

    def key_of_element(self, element: Element) -> KeyAtom:
        return MISSING_KEY


@dataclass(frozen=True)
class ByText(KeyRule):
    """Order by the element's own text content (a subtree expression)."""

    numeric_coercion: bool = True

    def key_of_element(self, element: Element) -> KeyAtom:
        if not element.text:
            return MISSING_KEY
        return (
            coerce_key(element.text)
            if self.numeric_coercion
            else string_key(element.text)
        )


@dataclass(frozen=True)
class ByChildPath(KeyRule):
    """Order by the text of a descendant reached via a child-tag path.

    The paper's example: order employee elements by
    ``personalInfo/name/lastName``.  Evaluable in a single pass over the
    subtree with constant space, which is exactly the class of expressions
    Section 3.2 supports.
    """

    path: str
    numeric_coercion: bool = True

    def steps(self) -> tuple[str, ...]:
        steps = tuple(step for step in self.path.split("/") if step)
        if not steps:
            raise SortSpecError(f"empty child path {self.path!r}")
        return steps

    def key_of_element(self, element: Element) -> KeyAtom:
        target = element.find_path("/".join(self.steps()))
        if target is None or not target.text:
            return MISSING_KEY
        return (
            coerce_key(target.text)
            if self.numeric_coercion
            else string_key(target.text)
        )


class SortSpec:
    """Per-tag ordering rules with a default.

    Args:
        default: rule for tags without a specific rule.
        rules: mapping of tag name to rule.
    """

    def __init__(
        self,
        default: KeyRule | None = None,
        rules: dict[str, KeyRule] | None = None,
    ):
        self.default = default if default is not None else DocumentOrder()
        self.rules = dict(rules) if rules else {}

    @classmethod
    def by_attribute(cls, attribute: str, **tag_attributes: str) -> "SortSpec":
        """Shorthand: default ByAttribute, plus per-tag attribute overrides.

        ``SortSpec.by_attribute("name", employee="ID")`` orders everything
        by ``name`` except employees, ordered by ``ID`` - the Figure 1 spec.
        Elements missing the attribute key by their tag, as in Table 1.
        """
        rules = {
            tag: ByAttribute(attr, missing_uses_tag=True)
            for tag, attr in tag_attributes.items()
        }
        return cls(
            default=ByAttribute(attribute, missing_uses_tag=True),
            rules=rules,
        )

    @classmethod
    def parse(cls, text: str, missing_uses_tag: bool = True) -> "SortSpec":
        """Build a spec from a compact clause syntax.

        Comma-separated ``selector=expression`` clauses; ``*`` (or an
        omitted selector) sets the default rule.  Expressions:

        * ``@attr``                - order by an attribute
        * ``@a+@b``                - composite attribute key
        * ``text()``               - order by the element's text
        * ``tag()``                - order by the tag name
        * ``document()``           - keep document order
        * ``path/to/elem``         - order by a descendant's text
          (the paper's ``personalInfo/name/lastName`` example)

        Example::

            SortSpec.parse("*=@name, employee=@ID, note=text()")
        """
        default: KeyRule | None = None
        rules: dict[str, KeyRule] = {}
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "=" in clause:
                selector, expression = clause.split("=", 1)
                selector = selector.strip()
            else:
                selector, expression = "*", clause
            rule = cls._parse_rule(
                expression.strip(), missing_uses_tag
            )
            if selector in ("*", ""):
                default = rule
            else:
                rules[selector] = rule
        return cls(default=default, rules=rules)

    @staticmethod
    def _parse_rule(expression: str, missing_uses_tag: bool) -> KeyRule:
        if not expression:
            raise SortSpecError("empty ordering expression")
        if expression == "text()":
            return ByText()
        if expression == "tag()":
            return ByTag()
        if expression == "document()":
            return DocumentOrder()
        if expression.startswith("@"):
            names = [part.strip() for part in expression.split("+")]
            if any(not name.startswith("@") or len(name) < 2
                   for name in names):
                raise SortSpecError(
                    f"bad attribute expression {expression!r}"
                )
            if len(names) == 1:
                return ByAttribute(
                    names[0][1:], missing_uses_tag=missing_uses_tag
                )
            return ByAttributes(tuple(name[1:] for name in names))
        if "(" in expression or ")" in expression:
            raise SortSpecError(
                f"unknown ordering expression {expression!r}"
            )
        rule = ByChildPath(expression)
        name_start = set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
        )
        for step in rule.steps():
            if step[0] not in name_start:
                raise SortSpecError(
                    f"bad child-path step {step!r} in {expression!r}"
                )
        return rule

    def rule_for(self, tag: str) -> KeyRule:
        return self.rules.get(tag, self.default)

    @property
    def start_computable(self) -> bool:
        """True when every rule is evaluable from start tags alone."""
        rules = [self.default, *self.rules.values()]
        return all(rule.start_computable for rule in rules)

    def key_of_element(self, element: Element) -> KeyAtom:
        return self.rule_for(element.tag).key_of_element(element)

    def element_order(self, children: Iterable[Element]) -> list[Element]:
        """Children sorted under this spec (stable)."""
        return sorted(children, key=self.key_of_element)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortSpec(default={self.default!r}, rules={self.rules!r})"


class _PathMatchState:
    """Single-pass evaluator for one open element's ByChildPath rule.

    Matches as :meth:`ByChildPath.key_of_element` does: each step binds
    the *first* child with its tag of the element bound to the previous
    step, and the key is every direct text of the element bound to the
    last step - none of its descendants' texts.  Once a bound element
    closes, no later sibling can bind, so the match is over.
    """

    __slots__ = ("steps", "progress", "capturing", "done", "value", "numeric")

    def __init__(self, rule: ByChildPath):
        self.steps = rule.steps()
        self.progress = 0
        # True while the innermost open element is the matched one.
        self.capturing = False
        self.done = False
        self.value = ""
        self.numeric = rule.numeric_coercion

    def enter(self, tag: str, relative_depth: int) -> bool:
        """A descendant opened at 1-based depth below the rule's element.

        Returns True if ``leave`` must be called when it closes: it bound
        a step, or it is a child of the matched element (whose texts are
        not direct texts of the match).
        """
        if self.done or relative_depth != self.progress + 1:
            return False
        if self.progress == len(self.steps):
            self.capturing = False
            return True
        if self.steps[self.progress] != tag:
            return False
        self.progress += 1
        self.capturing = self.progress == len(self.steps)
        return True

    def leave(self) -> None:
        if self.done:
            return
        if self.progress == len(self.steps) and not self.capturing:
            # A child of the matched element closed.
            self.capturing = True
        else:
            self.done = True
            self.capturing = False

    def text(self, content: str) -> None:
        if self.capturing:
            self.value += content

    def key(self) -> KeyAtom:
        if not self.value:
            return MISSING_KEY
        return coerce_key(self.value) if self.numeric else string_key(
            self.value
        )


class _Frame:
    """Per-open-element state during streaming key evaluation: the
    constant-size entry the paper's augmented path stack carries."""

    __slots__ = (
        "pos",
        "rule",
        "start_key",
        "own_text",
        "matcher",
        "advanced",
    )

    def __init__(self, pos: int, rule: KeyRule, start_key: KeyAtom | None):
        self.pos = pos
        self.rule = rule
        # The rule's key when it is start-computable, else None.
        self.start_key = start_key
        self.own_text: list[str] = []
        self.matcher = (
            _PathMatchState(rule) if isinstance(rule, ByChildPath) else None
        )
        # The ancestor matchers that must hear this element close.
        self.advanced: list[_PathMatchState] = []


# The three steps of streaming key evaluation.  ``frames`` is the caller's
# stack of open elements; KeyEvaluator.annotate and NEXSORT's document scan
# both drive it through these steps.


def enter_element(
    frames: list[_Frame],
    tag: str,
    rule: KeyRule,
    start_key: KeyAtom | None,
    pos: int,
) -> None:
    """An element opened: advance the ancestors' child-path matchers and
    push its frame.  ``start_key`` is ``rule``'s key from the start tag
    when the rule is start-computable, else None."""
    frame = _Frame(pos, rule, start_key)
    for depth_below, ancestor in enumerate(reversed(frames), start=1):
        matcher = ancestor.matcher
        if matcher is not None and matcher.enter(tag, depth_below):
            frame.advanced.append(matcher)
    frames.append(frame)


def element_text(frames: list[_Frame], text: str) -> None:
    """Text inside the innermost open element."""
    frames[-1].own_text.append(text)
    for frame in frames:
        if frame.matcher is not None:
            frame.matcher.text(text)


def leave_element(frames: list[_Frame]) -> _Frame:
    """The innermost element closed: pop its frame and tell the matchers
    it entered.  :func:`end_key` of the frame is its key."""
    frame = frames.pop()
    for matcher in frame.advanced:
        matcher.leave()
    return frame


def end_key(frame: _Frame) -> KeyAtom:
    """The key of a closed element, as the single pass evaluates it."""
    rule = frame.rule
    if rule.start_computable:
        # Mixed spec: this rule could have keyed the start, but the
        # spec as a whole is end-keyed, so the key travels on the end.
        return frame.start_key
    if isinstance(rule, ByChildPath):
        assert frame.matcher is not None
        return frame.matcher.key()
    if isinstance(rule, ByText):
        text = "".join(frame.own_text)
        if not text:
            return MISSING_KEY
        return (
            coerce_key(text)
            if rule.numeric_coercion
            else string_key(text)
        )
    raise SortSpecError(f"rule {rule!r} cannot be evaluated at end tag")


class KeyEvaluator:
    """Streams events, attaching positions and sort keys.

    Start tags always receive ``pos`` (preorder index) and ``level``; when
    the spec is start-computable they also receive ``key``.  End tags
    receive ``pos`` and, for subtree-evaluated specs, the element's ``key``
    (evaluated by the single pass, per Section 3.2).
    """

    def __init__(self, spec: SortSpec):
        self.spec = spec
        self._start_computable = spec.start_computable

    def annotate(self, events: Iterable[Token]) -> Iterator[Token]:
        frames: list[_Frame] = []
        rule_for = self.spec.rule_for
        start_keyed = self._start_computable
        next_pos = 0
        for event in events:
            if isinstance(event, StartTag):
                pos = next_pos
                next_pos += 1
                rule = rule_for(event.tag)
                start_key = (
                    rule.key_from_start(event)
                    if rule.start_computable
                    else None
                )
                enter_element(frames, event.tag, rule, start_key, pos)
                yield event.with_annotations(
                    key=start_key if start_keyed else None,
                    pos=pos,
                    level=len(frames),
                )
            elif isinstance(event, Text):
                if frames:
                    element_text(frames, event.text)
                yield event
            elif isinstance(event, EndTag):
                frame = leave_element(frames)
                yield EndTag(
                    event.tag,
                    key=None if start_keyed else end_key(frame),
                    pos=frame.pos,
                )
            else:
                raise SortSpecError(
                    f"unexpected token during key evaluation: {event!r}"
                )
