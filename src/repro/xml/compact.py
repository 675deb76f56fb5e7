"""XML compaction techniques (paper Section 3.2).

Two techniques, both implemented for NEXSORT *and* the external merge sort
baseline, matching the paper's experimental setup ("We implement some of the
XML compaction techniques in Section 3.2, including compression of tag names
and elimination of end tags, for both NEXSORT and external merge sort"):

* **Name-dictionary compression** - every distinct tag and attribute name
  maps to a small integer; the :class:`~repro.xml.codec.TokenCodec` encodes
  the id instead of the string.

* **End-tag elimination** - start tags carry the element's *level* (root is
  level 1) and end tags are not stored at all.  End tags are recovered with
  the paper's rule: "in a series of start tags, any transition from a start
  tag on level l1 to a start tag on the same or a higher level l2 <= l1 must
  have l1 - l2 + 1 end tags in between"; a stack of unclosed open tags
  supplies their names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import CodecError
from .codec import encode_varint as _varint  # re-export; one impl (ISSUE 10)
from .tokens import EndTag, RunPointer, StartTag, Text, Token


class NameDictionary:
    """Bidirectional string <-> integer mapping for tag/attribute names.

    Besides the id mapping itself, the dictionary caches the LEB128
    *frame* (encoded varint) of every id: encoding a dictionary-coded
    name is then one dict probe plus one cached-bytes append, which the
    byte-record kernels (:mod:`repro.core.columnar`) lean on.
    """

    def __init__(self, names: Iterable[str] = ()):
        self._by_name: dict[str, int] = {}
        self._by_id: list[str] = []
        self._frames: list[bytes] = []
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning a fresh one if needed."""
        name_id = self._by_name.get(name)
        if name_id is None:
            name_id = len(self._by_id)
            self._by_name[name] = name_id
            self._by_id.append(name)
            self._frames.append(_varint(name_id))
        return name_id

    def intern_frame(self, name: str) -> bytes:
        """The encoded varint of ``name``'s id (interning if needed)."""
        name_id = self._by_name.get(name)
        if name_id is None:
            name_id = self.intern(name)
        return self._frames[name_id]

    def lookup(self, name_id: int) -> str:
        try:
            return self._by_id[name_id]
        except IndexError:
            raise CodecError(f"unknown name id {name_id}") from None

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass
class CompactionConfig:
    """Which compaction techniques to apply to a stored document/stream.

    Attributes:
        names: shared dictionary for tag/attribute names, or None to store
            names as strings.
        eliminate_end_tags: drop end tags and put levels on start tags.
    """

    names: NameDictionary | None = field(default_factory=NameDictionary)
    eliminate_end_tags: bool = True

    @classmethod
    def none(cls) -> "CompactionConfig":
        """No compaction at all (plain mode)."""
        return cls(names=None, eliminate_end_tags=False)


def annotate_levels(events: Iterable[Token]) -> Iterator[Token]:
    """Attach absolute levels (root = 1) to starts and texts in a stream."""
    level = 0
    for event in events:
        if isinstance(event, StartTag):
            level += 1
            yield event.with_annotations(level=level)
        elif isinstance(event, EndTag):
            level -= 1
            yield event
        elif isinstance(event, Text):
            yield Text(event.text, level=level)
        else:
            yield event


def eliminate_end_tags(events: Iterable[Token]) -> Iterator[Token]:
    """Compact an event stream: levels on starts, no end tags stored."""
    for event in annotate_levels(events):
        if not isinstance(event, EndTag):
            yield event


def restore_end_tags(tokens: Iterable[Token]) -> Iterator[Token]:
    """Recover end tags from a level-annotated, end-tag-free stream.

    Works on streams containing :class:`RunPointer` tokens too (they carry
    the level of the subtree root they stand for); the pointer is passed
    through after closing deeper elements, since its run supplies its own
    start/end structure when expanded.
    """
    open_tags: list[tuple[str, int]] = []
    for token in tokens:
        if isinstance(token, (StartTag, RunPointer)):
            level = token.level
            if level is None:
                raise CodecError(
                    "compacted stream contains a start without a level"
                )
            while open_tags and open_tags[-1][1] >= level:
                tag, _ = open_tags.pop()
                yield EndTag(tag)
            if isinstance(token, StartTag):
                open_tags.append((token.tag, level))
            yield token
        elif isinstance(token, Text):
            if token.level is not None:
                # Close elements deeper than the text's owner.
                while open_tags and open_tags[-1][1] > token.level:
                    tag, _ = open_tags.pop()
                    yield EndTag(tag)
            yield Text(token.text)
        elif isinstance(token, EndTag):
            raise CodecError("compacted stream already contains end tags")
        else:  # pragma: no cover - defensive
            raise CodecError(f"unexpected token {token!r}")
    while open_tags:
        tag, _ = open_tags.pop()
        yield EndTag(tag)
