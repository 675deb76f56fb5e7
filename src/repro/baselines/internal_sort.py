"""Internal-memory recursive sort - the paper's first "popular algorithm".

Read the whole document into a DOM, recursively sort every child list by
reordering pointers.  It "takes full advantage of the document structure but
assumes that the entire document fits in internal memory" (Section 1).  In
this package it is the *oracle* against which both external sorters are
verified in tests - any correct sort must produce exactly this tree.  It is
deliberately plain, one ``list.sort`` per child list, so it shares no code
with the byte-record kernels it checks.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SortSpecError
from ..keys import ByChildPath, SortSpec
from ..xml.model import Element


def sort_element(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> Element:
    """Return a new, fully sorted copy of ``element``.

    Children at every level are ordered by the spec's key (stably, so ties
    keep document order - equivalent to the paper's position tie-break).
    With ``depth_limit=d``, only elements at levels 1..d have their child
    lists sorted; deeper subtrees keep their original internal order
    (Section 3.2, depth-limited sorting; the root is level 1).  Every key
    is taken from the input subtree, as the external sorters' scan takes
    it: a child-path key names the first matching child in document
    order, not in sorted order.

    Iterative, so degenerate chain documents deeper than Python's
    recursion limit sort fine.
    """
    copies: dict[int, Element] = {}
    # Pass 1 (preorder): shallow-copy every node.
    for node in element.iter():
        copies[id(node)] = Element(node.tag, node.attrs, node.text, [])
    # Pass 2 (postorder via reversed preorder): attach sorted child lists.
    order: list[tuple[Element, int]] = []
    stack: list[tuple[Element, int]] = [(element, 1)]
    while stack:
        node, level = stack.pop()
        order.append((node, level))
        for child in node.children:
            stack.append((child, level + 1))
    for node, level in reversed(order):
        children = node.children
        if depth_limit is None or level <= depth_limit:
            children = sorted(children, key=spec.key_of_element)
        copies[id(node)].children = [copies[id(child)] for child in children]
    return copies[id(element)]


def sort_element_in_place(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> None:
    """Sort ``element``'s subtree in place (pointer reordering only).

    Top-down, so each child list is keyed before any subtree below it is
    reordered - the same input-subtree keys :func:`sort_element` uses.
    """
    stack: list[tuple[Element, int]] = [(element, 1)]
    while stack:
        node, level = stack.pop()
        if depth_limit is None or level <= depth_limit:
            node.children.sort(key=spec.key_of_element)
        for child in node.children:
            stack.append((child, level + 1))


def comparison_count(element: Element) -> int:
    """Analytic comparison count of the recursive sort (``n log n`` per
    child list), used by the CPU cost model."""
    from math import ceil, log2

    total = 0
    for node in element.iter():
        n = len(node.children)
        if n > 1:
            total += n * max(1, ceil(log2(n)))
    return total


def is_fully_sorted(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> bool:
    """True when every child list is non-decreasing under the spec.

    A child-path key names the first matching child in *input* order,
    and sorting reorders those children, so sortedness under such a key
    cannot be read off the output: a spec with a
    :class:`~repro.keys.ByChildPath` rule raises
    :class:`~repro.errors.SortSpecError`.  Compare with
    :func:`sort_element` instead.
    """
    rules = (spec.default, *spec.rules.values())
    if any(isinstance(rule, ByChildPath) for rule in rules):
        raise SortSpecError(
            "is_fully_sorted cannot check a child-path key on sorted "
            "output: the key depends on the input's child order"
        )
    key: Callable[[Element], tuple] = spec.key_of_element
    return element.is_sorted_by(key, depth_limit=depth_limit)
