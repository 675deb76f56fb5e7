"""Workload profiling: the document statistics the planner prices.

The paper's evaluation establishes *when* each algorithm wins: NEXSORT on
hierarchical documents (Figures 5-7), external merge sort on flat ones
(Figure 7 at height 2).  What decides it is the document's shape - size,
height, fan-outs, subtree sizes per level - which this module measures
(:func:`profile_document`, one counted scan) or derives analytically
(:meth:`DocumentProfile.from_fanouts`).  The choice of sorter and knobs
itself is :mod:`repro.analysis.planner`'s, for ``repro sort --plan auto``
and ``repro analyze`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..errors import ReproError
from ..xml.document import Document

#: Encoded bytes of a padless generated element - header, tag, key
#: attribute.  The same estimate admission control uses before any bytes
#: are staged; profiles built from real documents measure it instead.
BASE_ELEMENT_BYTES = 45


def nearest_rank_percentile(values, fraction: float) -> float:
    """Standard nearest-rank percentile: index ``ceil(f * n) - 1``.

    ``values`` must already be sorted.  The previous ``int(f * n)``
    truncation was off by one: p95 of a 20-sample list returned the
    maximum, and p50 of two values returned the larger.
    """
    if not values:
        return 0.0
    index = ceil(fraction * len(values)) - 1
    return float(values[min(len(values) - 1, max(0, index))])


@dataclass
class DocumentProfile:
    """Structural statistics of one document.

    ``level_subtree_elements[d]`` is the mean subtree element count of a
    node at depth ``d`` (root = depth 0, so index 0 equals
    ``element_count``); the planner reads the sort-unit size - the
    smallest level whose subtrees exceed the threshold - straight off it.
    """

    element_count: int
    block_count: int
    height: int
    max_fanout: int
    fanout_p50: float
    fanout_p95: float
    internal_elements: int
    average_element_bytes: float
    level_subtree_elements: tuple[float, ...] = ()

    @property
    def flatness(self) -> float:
        """Fraction of all elements that are children of the root's level.

        1.0 means a two-level (flat) document; deeply nested documents
        approach ``max_fanout / N``.
        """
        if self.element_count <= 1:
            return 0.0
        return self.max_fanout / (self.element_count - 1)

    @property
    def is_nearly_flat(self) -> bool:
        """The Figure 7 regime where NEXSORT degenerates."""
        return self.height <= 2 or self.flatness > 0.5

    @classmethod
    def from_fanouts(
        cls,
        fanouts,
        pad_bytes: int = 0,
        block_size: int = 4096,
        element_bytes: float | None = None,
    ) -> "DocumentProfile":
        """Analytic profile of a ``level_fanout_events`` document.

        The exact shape is a pure function of the per-level fan-outs, so
        admission control and the planner benches can profile a workload
        before a single byte is staged.  ``element_bytes`` overrides the
        ``BASE_ELEMENT_BYTES + pad`` estimate when the real encoded size
        is known (e.g. from a recorded benchmark row).
        """
        fanouts = list(fanouts)
        if not fanouts or any(f < 1 for f in fanouts):
            raise ReproError(f"fan-outs must be positive: {fanouts}")
        # Mean subtree sizes per depth, leaves up: s_L = 1,
        # s_d = 1 + f_{d+1} * s_{d+1}.
        sizes = [1.0]
        for fanout in reversed(fanouts):
            sizes.append(1.0 + fanout * sizes[-1])
        sizes.reverse()
        element_count = int(sizes[0])
        # Fan-out multiset: prod(f_1..f_d) nodes at depth d have fan-out
        # f_{d+1}; the deepest level's nodes are leaves (fan-out 0).
        weighted = []
        nodes = 1
        for fanout in fanouts:
            weighted.append((fanout, nodes))
            nodes *= fanout
        weighted.append((0, nodes))
        weighted.sort()
        total = sum(count for _, count in weighted)

        def weighted_percentile(fraction: float) -> float:
            rank = max(1, ceil(fraction * total))
            seen = 0
            for value, count in weighted:
                seen += count
                if seen >= rank:
                    return float(value)
            return float(weighted[-1][0])

        bytes_per = (
            element_bytes
            if element_bytes is not None
            else float(BASE_ELEMENT_BYTES + max(0, pad_bytes))
        )
        return cls(
            element_count=element_count,
            block_count=max(1, ceil(element_count * bytes_per / block_size)),
            height=len(fanouts) + 1,
            max_fanout=max(fanouts),
            fanout_p50=weighted_percentile(0.50),
            fanout_p95=weighted_percentile(0.95),
            internal_elements=sum(
                count for value, count in weighted if value > 0
            ),
            average_element_bytes=bytes_per,
            level_subtree_elements=tuple(sizes),
        )


def profile_document(document: Document) -> DocumentProfile:
    """Measure a stored document (one counted scan)."""
    fanouts: list[int] = []
    stack: list[int] = []
    elements: list[int] = []
    depth_sums: list[float] = []
    depth_counts: list[int] = []
    from ..xml.tokens import EndTag, StartTag

    for event in document.iter_events("profile_scan"):
        if isinstance(event, StartTag):
            if stack:
                stack[-1] += 1
            stack.append(0)
            elements.append(1)
        elif isinstance(event, EndTag):
            fanouts.append(stack.pop())
            subtree = elements.pop()
            depth = len(elements)
            while len(depth_sums) <= depth:
                depth_sums.append(0.0)
                depth_counts.append(0)
            depth_sums[depth] += subtree
            depth_counts[depth] += 1
            if elements:
                elements[-1] += subtree
    internal = [fanout for fanout in fanouts if fanout > 0]
    ordered = sorted(fanouts)

    return DocumentProfile(
        element_count=document.element_count,
        block_count=document.block_count,
        height=document.height,
        max_fanout=document.max_fanout,
        fanout_p50=nearest_rank_percentile(ordered, 0.50),
        fanout_p95=nearest_rank_percentile(ordered, 0.95),
        internal_elements=len(internal),
        average_element_bytes=(
            document.payload_bytes / max(1, document.element_count)
        ),
        level_subtree_elements=tuple(
            depth_sums[d] / depth_counts[d]
            for d in range(len(depth_sums))
            if depth_counts[d]
        ),
    )
