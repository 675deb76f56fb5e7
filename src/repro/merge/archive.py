"""Archiving document versions with nested merge (related work, §2).

Buneman et al. archive XML scientific data "by merging new versions of a
document into an archive document using the Nested Merge operation, which
needs to sort the input documents at every level.  Our work complements
theirs by providing an I/O-efficient sort that supports more scalable
merge operations."

This module is that application, built on NEXSORT + structural merge:

* an **archive** is a fully sorted document where every element carries a
  ``versions`` attribute - the comma-separated version ids in which the
  element (identified by its key path) appeared;
* :meth:`XMLArchive.add_version` sorts the incoming version, annotates it,
  and nested-merges it into the archive (one sort + one single-pass merge
  per version - the scalability NEXSORT buys);
* :meth:`XMLArchive.snapshot` reconstructs any archived version by
  filtering on the annotation.
"""

from __future__ import annotations

from typing import Iterator

from ..core.nexsort import nexsort
from ..errors import MergeError
from ..keys import SortSpec
from ..xml.document import Document
from ..xml.tokens import EndTag, StartTag, Token
from .structural import StructuralMerger

#: The annotation attribute on archived elements.
VERSIONS_ATTRIBUTE = "versions"


def _merge_version_sets(left_attrs: tuple, right_attrs: tuple) -> tuple:
    """Attribute union that combines the two sides' version sets."""
    attrs = dict(left_attrs)
    for name, value in right_attrs:
        if name == VERSIONS_ATTRIBUTE and name in attrs:
            combined = _parse_versions(attrs[name]) | _parse_versions(value)
            attrs[name] = _format_versions(combined)
        else:
            attrs.setdefault(name, value)
    return tuple(attrs.items())


def _parse_versions(value: str) -> set[int]:
    return {int(part) for part in value.split(",") if part}


def _format_versions(versions: set[int]) -> str:
    return ",".join(str(v) for v in sorted(versions))


class XMLArchive:
    """An archive document accumulating versions via nested merge."""

    def __init__(self, spec: SortSpec, memory_blocks: int = 16):
        if not spec.start_computable:
            raise MergeError(
                "archiving merges at start tags; the criterion must be "
                "start-computable"
            )
        self.spec = spec
        self.memory_blocks = memory_blocks
        self.document: Document | None = None
        self.version_ids: list[int] = []

    # -- building ----------------------------------------------------------

    def add_version(self, document: Document, version_id: int) -> None:
        """Merge one document version into the archive.

        Costs one NEXSORT of the incoming version plus one single-pass
        structural merge against the current archive.
        """
        if version_id in self.version_ids:
            raise MergeError(f"version {version_id} already archived")
        annotated = self._annotate(document, version_id)
        sorted_version, _report = nexsort(
            annotated, self.spec, memory_blocks=self.memory_blocks
        )
        if self.document is None:
            self.document = sorted_version
        else:
            merger = StructuralMerger(
                self.spec, attribute_merger=_merge_version_sets
            )
            self.document, _merge_report = merger.merge(
                [self.document, sorted_version]
            )
        self.version_ids.append(version_id)

    def _annotate(self, document: Document, version_id: int) -> Document:
        def annotated(events) -> Iterator[Token]:
            for event in events:
                if isinstance(event, StartTag):
                    yield StartTag(
                        event.tag,
                        event.attrs
                        + ((VERSIONS_ATTRIBUTE, str(version_id)),),
                    )
                else:
                    yield event

        return Document.from_events(
            document.store,
            annotated(document.iter_events("archive_annotate")),
            compaction=document.compaction,
            category="archive_annotate",
        )

    # -- queries -----------------------------------------------------------

    def snapshot(self, version_id: int) -> Document:
        """Reconstruct one archived version (annotation stripped)."""
        if self.document is None or version_id not in self.version_ids:
            raise MergeError(f"version {version_id} is not in the archive")

        def filtered(events) -> Iterator[Token]:
            # Depth below an excluded element; 0 means "emitting".
            skip_depth = 0
            for event in events:
                if isinstance(event, StartTag):
                    if skip_depth:
                        skip_depth += 1
                        continue
                    versions = _parse_versions(
                        event.attr(VERSIONS_ATTRIBUTE) or ""
                    )
                    if version_id not in versions:
                        skip_depth = 1
                        continue
                    yield StartTag(
                        event.tag,
                        tuple(
                            (name, value)
                            for name, value in event.attrs
                            if name != VERSIONS_ATTRIBUTE
                        ),
                    )
                elif isinstance(event, EndTag):
                    if skip_depth:
                        skip_depth -= 1
                        continue
                    yield event
                else:
                    if not skip_depth:
                        yield event

        return Document.from_events(
            self.document.store,
            filtered(self.document.iter_events("archive_snapshot")),
            compaction=self.document.compaction,
            category="archive_snapshot",
        )

    def element_versions(self) -> dict[tuple, set[int]]:
        """Map every archived element's key path to its version set."""
        if self.document is None:
            return {}
        mapping: dict[tuple, set[int]] = {}
        tree = self.document.to_element()

        def walk(element, path: tuple) -> None:
            key = self.spec.key_of_element(element)
            here = path + (key,)
            mapping[here] = _parse_versions(
                element.attrs.get(VERSIONS_ATTRIBUTE, "")
            )
            for child in element.children:
                walk(child, here)

        walk(tree, ())
        return mapping
