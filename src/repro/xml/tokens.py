"""Token model for disk-resident XML.

Everything that flows through NEXSORT - the input scan, the data stack,
sorted runs, the output phase - is a stream of four token kinds:

* :class:`StartTag` - a start tag with its attributes.  During sorting it is
  annotated with the element's document *position* (preorder index, used as
  the uniqueness tie-break the paper describes: "we can make it unique by
  appending it with the element's location in the input") and, for
  start-computable ordering criteria, the element's sort *key*.  In
  compacted mode it also carries the element's *level* (root = 1), which is
  what allows end tags to be eliminated (paper Section 3.2).
* :class:`Text` - character data owned by the nearest open element.
* :class:`EndTag` - an end tag.  For ordering criteria that must see the
  subtree (e.g. ``personalInfo/name/lastName``), the key is evaluated by the
  time the end tag is reached and travels on it (paper Section 3.2,
  "complex ordering criteria").
* :class:`RunPointer` - a collapsed subtree: the pointer to a sorted run
  that NEXSORT pushes back onto the data stack in place of a subtree it has
  sorted (Figure 4, Line 12).  It carries the subtree root's key so that the
  enclosing subtree can be sorted without touching the run again.

Sort keys are *atoms*: ``(kind, value)`` tuples where kind 0 = missing,
1 = number, 2 = string.  Tuples of this shape compare correctly under
Python's ordering without ever comparing a str to a float.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Key atom kinds.
KEY_MISSING = 0
KEY_NUMBER = 1
KEY_STRING = 2

#: The atom used when an element has no value under the ordering criterion.
#: Missing keys sort before every number and string.
MISSING_KEY = (KEY_MISSING, 0.0)

KeyAtom = tuple  # (kind, value)


def string_key(value: str) -> KeyAtom:
    """Key atom for a string value."""
    return (KEY_STRING, value)


def number_key(value: float) -> KeyAtom:
    """Key atom for a numeric value."""
    return (KEY_NUMBER, float(value))


def coerce_key(value: str) -> KeyAtom:
    """Interpret an attribute/text value as a number when possible.

    The paper's experiments order by attributes such as ``ID=454`` and
    ``name="Durham"``; numeric-looking values should sort numerically.
    """
    try:
        return (KEY_NUMBER, float(value))
    except ValueError:
        return (KEY_STRING, value)


@dataclass(frozen=True)
class StartTag:
    """Start of an element."""

    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    key: KeyAtom | None = None
    pos: int | None = None
    level: int | None = None

    def with_annotations(
        self,
        key: KeyAtom | None = None,
        pos: int | None = None,
        level: int | None = None,
    ) -> "StartTag":
        return replace(
            self,
            key=key if key is not None else self.key,
            pos=pos if pos is not None else self.pos,
            level=level if level is not None else self.level,
        )

    def attr(self, name: str) -> str | None:
        for attr_name, attr_value in self.attrs:
            if attr_name == name:
                return attr_value
        return None


@dataclass(frozen=True)
class Text:
    """Character data belonging to the nearest open element.

    In compacted streams (end tags eliminated) the owning element's level
    travels on the text: without end tags, a text following a child subtree
    would otherwise be ambiguous between the parent and the child.
    """

    text: str
    level: int | None = None


@dataclass(frozen=True)
class EndTag:
    """End of an element; may carry the element's evaluated sort key."""

    tag: str
    key: KeyAtom | None = None
    pos: int | None = None


@dataclass(frozen=True)
class RunPointer:
    """A collapsed, already-sorted subtree stored in a run.

    Attributes:
        run_id: the sorted run holding the entire subtree (root included).
        key: the subtree root's sort key (for sorting among its siblings).
        pos: the subtree root's document position (tie-break).
        level: the subtree root's absolute level (compacted mode only).
        element_count: elements inside the run (statistics/invariants).
        payload_bytes: encoded size of the subtree (statistics/invariants).
    """

    run_id: int
    key: KeyAtom | None = None
    pos: int | None = None
    level: int | None = None
    element_count: int = 0
    payload_bytes: int = 0


Token = StartTag | Text | EndTag | RunPointer


def sort_key_of(token: Token) -> tuple:
    """The (key, pos) ordering tuple of a child-starting token."""
    key = token.key if token.key is not None else MISSING_KEY
    pos = token.pos if token.pos is not None else 0
    return (key, pos)

