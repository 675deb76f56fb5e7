"""The paper's I/O bounds (Theorems 4.4 and 4.5) as computable functions.

Parameters follow the standard external-memory model of Aggarwal & Vitter,
as the paper uses them:

* ``N`` - elements in the document,
* ``B`` - elements per block,
* ``M`` - elements that fit in internal memory (so ``m = M/B`` memory
  blocks),
* ``k`` - maximum fan-out,
* ``t`` - NEXSORT's sort threshold, in elements.

These are *asymptotic* bounds; the functions return the bound expression
with all constants 1, which is what the LB benchmark and the bound tests
compare measured I/O counts against (measured <= C * bound for a fixed
small C, and measured >= lower bound / C').
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

from ..errors import ReproError


@dataclass(frozen=True)
class ModelGeometry:
    """One experiment's external-memory geometry, in model units.

    Attributes:
        N: elements in the document.
        B: elements per block (document bytes / block size, element-wise).
        M: elements fitting in memory (``memory_blocks * B``).
        k: maximum fan-out.
    """

    N: int
    B: int
    M: int
    k: int

    @classmethod
    def from_document(cls, document, memory_blocks: int) -> "ModelGeometry":
        """Derive the geometry from a stored document."""
        per_block = max(
            1, round(document.element_count / max(1, document.block_count))
        )
        return cls(
            N=document.element_count,
            B=per_block,
            M=memory_blocks * per_block,
            k=max(1, document.max_fanout),
        )


def _check(N: int, B: int, M: int) -> None:
    if N < 1 or B < 1 or M < 1:
        raise ReproError(f"bad model parameters N={N} B={B} M={M}")
    if M < 2 * B:
        raise ReproError(
            f"the model needs at least two memory blocks (M={M}, B={B})"
        )


def _log_base(base: float, value: float) -> float:
    """log_base(value), clamped so degenerate arguments contribute 0."""
    if value <= 1.0 or base <= 1.0:
        return 0.0
    return log(value) / log(base)


def sorting_lower_bound_ios(N: int, B: int, M: int, k: int) -> float:
    """Theorem 4.4: Omega(max{N/B, (N/B) log_{M/B} (k/B)}).

    The number of I/Os any algorithm needs to sort an XML document of N
    elements with maximum fan-out k, in the comparison model.
    """
    _check(N, B, M)
    if k < 0:
        raise ReproError(f"bad fan-out {k}")
    n = N / B
    m = M / B
    return max(n, n * _log_base(m, k / B))


def flat_sorting_lower_bound_ios(N: int, B: int, M: int) -> float:
    """Aggarwal-Vitter: Omega((N/B) log_{M/B} (N/B)) for flat files."""
    _check(N, B, M)
    n = N / B
    m = M / B
    return max(n, n * _log_base(m, n))


def nexsort_upper_bound_ios(
    N: int, B: int, M: int, k: int, t: int | None = None
) -> float:
    """Theorem 4.5: O(N/B + (N/B) log_{M/B} (min{kt, N}/B)).

    ``t`` defaults to ``B`` (one block), the "natural choice" the paper
    analyzes right after the theorem.
    """
    _check(N, B, M)
    if t is None:
        t = B
    if t < 1 or k < 0:
        raise ReproError(f"bad parameters k={k} t={t}")
    n = N / B
    m = M / B
    subtree_cap = min(k * t, N)
    return n + n * _log_base(m, subtree_cap / B)


def merge_sort_ios(N: int, B: int, M: int) -> float:
    """The external merge sort cost: 2 (N/B) * (number of passes).

    Each pass reads and writes the data once; the pass count is
    ``1 + ceil(log_{m-1}(N/M))`` (formation plus merges).
    """
    _check(N, B, M)
    n = N / B
    return 2.0 * n * merge_sort_passes(N, B, M)


def merge_sort_passes(N: int, B: int, M: int) -> int:
    """Passes over the data for a flat external merge sort.

    Exactly ``1 + arge_thorup_merge_depth(N, B, M)``: the formation pass
    plus one pass per merge-tree level.  Both delegate to
    :func:`iterated_merge_depth` so the pass count has a single source of
    truth that cannot drift.
    """
    return 1 + arge_thorup_merge_depth(N, B, M)


def iterated_merge_depth(initial_runs: int, fan_in: int) -> int:
    """``ceil(log_fan_in(initial_runs))`` by iterated ceil-division.

    The one loop behind every pass count in this module: exact at fan-in
    powers where a float log could round either way
    (``ceil(ceil(r/f)/f) = ceil(r/f^2)`` and so on).
    """
    if fan_in < 2 or initial_runs < 1:
        raise ReproError(
            f"bad merge-tree parameters fan_in={fan_in} "
            f"initial_runs={initial_runs}"
        )
    depth = 0
    runs = initial_runs
    while runs > 1:
        runs = -(-runs // fan_in)
        depth += 1
    return depth


def arge_thorup_merge_depth(
    N: int,
    B: int,
    M: int,
    fan_in: int | None = None,
    initial_runs: int | None = None,
) -> int:
    """Merge-tree depth bound for multiway external merging.

    Arge & Thorup ("RAM-efficient external memory sorting", PAPERS.md)
    analyze external sorting as run formation plus a fan-in-``f`` merge
    tree of depth ``ceil(log_f r)`` over ``r`` initial runs - each level
    of the tree is one pass over the data, so this is the number of merge
    passes any fan-in-``f`` merger needs, and the bound an admission
    controller consults when deciding whether a degraded memory grant
    forces extra passes.

    Defaults instantiate the classic geometry: ``r = ceil(N/M)`` runs
    (memory-filling formation) and ``f = M/B - 1`` (one block per input
    run plus an output block).  Pass the *actual* ``fan_in`` /
    ``initial_runs`` of a measured row to get the bound that that row's
    merger provably cannot beat: ``ceil(log_f r)`` equals the iterated
    ceil-division pass count exactly (``ceil(ceil(r/f)/f) = ceil(r/f^2)``
    and so on), so an empirical merge depth below it indicates broken
    accounting, and above it a wasted pass.
    """
    _check(N, B, M)
    m = M // B
    if fan_in is None:
        fan_in = max(2, m - 1)
    if initial_runs is None:
        initial_runs = max(1, ceil(N / M))
    return iterated_merge_depth(initial_runs, fan_in)


def permutation_lower_bound_ios(N: int, B: int, M: int) -> float:
    """Aggarwal-Vitter's permuting bound: Omega(min{N, (N/B) log_{M/B} (N/B)}).

    The paper's conclusion conjectures that NEXSORT's constant-factor gap
    "can be made smaller when k < B and M is small.  In this case, the
    dominating cost is not sorting but permuting the input to generate the
    output ... we will try to improve the lower bound by considering the
    cost of permutation in external memory."  This is the flat-file
    permuting bound that program would start from.
    """
    _check(N, B, M)
    n = N / B
    m = M / B
    return min(float(N), max(n, n * _log_base(m, n)))


def xml_permutation_conjecture_ios(N: int, B: int, M: int, k: int) -> float:
    """The natural XML analogue of the permuting bound (conjectural).

    Replaces the flat bound's ``N/B`` log argument with the XML bound's
    ``k/B`` (Theorem 4.4), keeping the ``min{N, ...}`` element-wise
    escape: Omega(max{n, min{N, n log_{M/B}(k/B)}}).  Marked conjectural:
    the paper leaves proving this as future work; we expose it so the
    bounds bench can show where it would tighten Theorem 4.4.
    """
    _check(N, B, M)
    if k < 0:
        raise ReproError(f"bad fan-out {k}")
    n = N / B
    m = M / B
    return max(n, min(float(N), n * _log_base(m, k / B)))


def bounds_within_constant_factor(
    N: int, B: int, M: int, k: int, alpha: float = 1.5
) -> bool:
    """The Section 4.2 condition for NEXSORT to match the lower bound.

    "The two bounds differ only by a constant factor if k >= B^alpha or
    M >= B^alpha for some constant alpha > 1."
    """
    if alpha <= 1.0:
        raise ReproError(f"alpha must exceed 1, got {alpha}")
    threshold = B**alpha
    return k >= threshold or M >= threshold


def nexsort_over_lower_bound_ratio(
    N: int, B: int, M: int, k: int, t: int | None = None
) -> float:
    """Upper bound / lower bound - the constant-factor gap."""
    lower = sorting_lower_bound_ios(N, B, M, k)
    upper = nexsort_upper_bound_ios(N, B, M, k, t)
    return upper / lower if lower else float("inf")
