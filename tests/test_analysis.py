"""Tests for the theory module: Lemmas 4.1-4.2, Theorems 4.4-4.5."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ModelGeometry,
    adversarial_fanouts,
    adversarial_tree,
    bounds_within_constant_factor,
    fanouts_of,
    flat_sorting_lower_bound_ios,
    log2_factorial,
    log2_flat_outcomes,
    log2_max_outcomes,
    log2_sorting_outcomes,
    merge_sort_ios,
    merge_sort_passes,
    nexsort_over_lower_bound_ratio,
    nexsort_upper_bound_ios,
    sorting_lower_bound_ios,
)
from repro.errors import ReproError
from repro.xml import Element

from .conftest import random_tree


class TestOutcomeCounting:
    def test_log2_factorial_matches_math(self):
        for n in (0, 1, 2, 5, 10, 100):
            assert log2_factorial(n) == pytest.approx(
                math.log2(math.factorial(n)), rel=1e-9
            )

    def test_flat_file_allows_more_outcomes(self):
        """The heart of the paper: hierarchy shrinks the outcome space."""
        for seed in range(5):
            tree = random_tree(seed, depth=4, max_fanout=6)
            structured = log2_sorting_outcomes(tree)
            flat = log2_flat_outcomes(tree.element_count())
            assert structured < flat

    def test_adversarial_fanouts_edge_count(self):
        fanouts = adversarial_fanouts(100, 7)
        assert sum(fanouts) == 99
        assert all(0 < f <= 7 for f in fanouts)
        assert sum(1 for f in fanouts if f != 7) <= 1

    def test_lemma_4_2_closed_form(self):
        n, k = 100, 7
        expected = (99 // 7) * log2_factorial(7) + log2_factorial(99 % 7)
        assert log2_max_outcomes(n, k) == pytest.approx(expected)

    def test_adversarial_tree_realizes_the_maximum(self):
        tree = adversarial_tree(100, 7)
        assert tree.element_count() == 100
        assert tree.max_fanout() <= 7
        assert log2_sorting_outcomes(tree) == pytest.approx(
            log2_max_outcomes(100, 7)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=400),
        k=st.integers(min_value=1, max_value=30),
    )
    def test_lemma_4_1_no_tree_beats_the_adversary(self, n, k):
        """Random trees with fan-out <= k never exceed the Lemma 4.2 max."""
        rng = random.Random(n * 1000 + k)
        # Build a random tree with exactly n elements and fan-out <= k.
        root = Element("r")
        nodes = [root]
        for index in range(n - 1):
            parent = rng.choice(nodes)
            while len(parent.children) >= k:
                parent = rng.choice(nodes)
            child = Element("c", {"i": str(index)})
            parent.children.append(child)
            nodes.append(child)
        assert log2_sorting_outcomes(root) <= log2_max_outcomes(n, k) + 1e-6

    def test_exchange_argument_gain_positive(self):
        from repro.analysis import rebalance_increases_outcomes

        assert rebalance_increases_outcomes([3, 4], 10) > 0
        assert rebalance_increases_outcomes([10, 10], 10) == 0.0
        assert rebalance_increases_outcomes([5], 10) == 0.0

    def test_fanouts_of(self):
        tree = Element.parse("<a><b><c/><d/></b><e/></a>")
        assert sorted(fanouts_of(tree)) == [0, 0, 0, 2, 2]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            adversarial_fanouts(0, 5)
        with pytest.raises(ReproError):
            adversarial_fanouts(10, 0)


class TestBounds:
    def test_xml_bound_below_flat_bound(self):
        """Theorem 4.4 vs Aggarwal-Vitter: k/B < N/B makes XML easier."""
        N, B, M, k = 10**6, 30, 30 * 8, 50
        assert sorting_lower_bound_ios(
            N, B, M, k
        ) < flat_sorting_lower_bound_ios(N, B, M)

    def test_scan_floor(self):
        """With tiny fan-out the bound collapses to the scan cost N/B."""
        N, B, M = 10**5, 30, 30 * 8
        assert sorting_lower_bound_ios(N, B, M, k=2) == pytest.approx(
            N / B
        )

    def test_lower_bound_monotone_in_fanout(self):
        N, B, M = 10**6, 20, 20 * 8
        values = [
            sorting_lower_bound_ios(N, B, M, k) for k in (2, 50, 500, 5000)
        ]
        assert values == sorted(values)

    def test_upper_bound_dominates_lower_bound(self):
        for k in (2, 10, 100, 1000):
            N, B, M = 10**6, 25, 25 * 16
            assert nexsort_upper_bound_ios(
                N, B, M, k
            ) >= sorting_lower_bound_ios(N, B, M, k) - 1e-9

    def test_constant_factor_condition(self):
        # k >= B^alpha
        assert bounds_within_constant_factor(10**6, 10, 10 * 4, k=1000)
        # M >= B^alpha
        assert bounds_within_constant_factor(10**6, 10, 10**4, k=5)
        assert not bounds_within_constant_factor(
            10**6, 100, 100 * 2, k=5
        )

    def test_ratio_bounded_when_condition_holds(self):
        """Section 4.2: the gap is a constant when k >= B^alpha."""
        B = 10
        for k in (1000, 10**4, 10**5):
            ratio = nexsort_over_lower_bound_ratio(
                10**7, B, B * 8, k
            )
            assert ratio < 6.0

    def test_merge_sort_passes_match_manual_count(self):
        # N/M = 32 initial runs, fan-in 7: 32 -> 5 -> 1 = 2 merge passes.
        B = 10
        M = 8 * B
        N = 32 * M
        assert merge_sort_passes(N, B, M) == 3

    def test_merge_sort_passes_monotone_in_memory(self):
        N, B = 10**6, 25
        passes = [merge_sort_passes(N, B, m * B) for m in (3, 6, 12, 48)]
        assert passes == sorted(passes, reverse=True)

    def test_merge_sort_ios_formula(self):
        N, B, M = 10**5, 20, 20 * 10
        assert merge_sort_ios(N, B, M) == pytest.approx(
            2 * (N / B) * merge_sort_passes(N, B, M)
        )

    def test_nexsort_bound_uses_kt_cap(self):
        """min(kt, N): tiny documents cap the log argument at N."""
        B, M = 20, 20 * 8
        small = nexsort_upper_bound_ios(N=100, B=B, M=M, k=10**6)
        n = 100 / B
        assert small <= n + n * math.log(100 / B) / math.log(8) + 1e-9

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ReproError):
            sorting_lower_bound_ios(0, 10, 100, 5)
        with pytest.raises(ReproError):
            sorting_lower_bound_ios(100, 10, 10, 5)  # M < 2B

    @settings(max_examples=200, deadline=None)
    @given(
        blocks=st.integers(min_value=1, max_value=10**6),
        B=st.integers(min_value=1, max_value=512),
        m=st.integers(min_value=3, max_value=512),
    )
    def test_passes_are_one_more_than_merge_depth(self, blocks, B, m):
        """The dedup contract: one formation pass plus the merge tree.

        ``merge_sort_passes`` and ``arge_thorup_merge_depth`` used to
        run separate iterated ceil-division loops that could drift;
        both now reduce to ``iterated_merge_depth``, and this property
        pins the relation across the whole geometry grid.
        """
        from repro.analysis import arge_thorup_merge_depth

        N, M = blocks * B, m * B
        assert merge_sort_passes(N, B, M) == (
            1 + arge_thorup_merge_depth(N, B, M)
        )

    def test_iterated_merge_depth_hand_counts(self):
        from repro.analysis import iterated_merge_depth

        assert iterated_merge_depth(1, 7) == 0
        assert iterated_merge_depth(7, 7) == 1
        assert iterated_merge_depth(8, 7) == 2
        assert iterated_merge_depth(50, 7) == 3  # 50 -> 8 -> 2 -> 1

    def test_iterated_merge_depth_rejects_bad_parameters(self):
        from repro.analysis import iterated_merge_depth

        with pytest.raises(ReproError):
            iterated_merge_depth(10, 1)
        with pytest.raises(ReproError):
            iterated_merge_depth(0, 4)


class TestCostModel:
    def test_geometry_from_document(self, store):
        from repro.xml import Document

        tree = random_tree(3, depth=4, max_fanout=5, pad=16)
        doc = Document.from_element(store, tree)
        geometry = ModelGeometry.from_document(doc, memory_blocks=8)
        assert geometry.N == doc.element_count
        assert geometry.k == doc.max_fanout
        assert geometry.M == 8 * geometry.B


class TestPermutationBounds:
    """The conclusion's future-work program: permutation-aware bounds."""

    def test_permuting_bound_below_flat_sorting_bound(self):
        from repro.analysis import permutation_lower_bound_ios

        N, B, M = 10**6, 25, 25 * 8
        assert permutation_lower_bound_ios(
            N, B, M
        ) <= flat_sorting_lower_bound_ios(N, B, M) + 1e-9

    def test_permuting_bound_caps_at_elementwise_moves(self):
        from repro.analysis import permutation_lower_bound_ios

        # Tiny blocks: moving elements one at a time (N I/Os) can beat
        # block-granular sorting.
        N, B, M = 10**4, 2, 2 * 4
        assert permutation_lower_bound_ios(N, B, M) <= N

    def test_xml_conjecture_between_scan_and_theorem(self):
        from repro.analysis import xml_permutation_conjecture_ios

        N, B, M, k = 10**6, 30, 30 * 8, 300
        conjecture = xml_permutation_conjecture_ios(N, B, M, k)
        assert conjecture >= N / B  # never below the scan
        assert conjecture <= max(
            N / B, sorting_lower_bound_ios(N, B, M, k)
        ) + 1e-9

    def test_xml_conjecture_tightens_when_k_small(self):
        """For k < B (the paper's conjectured regime) the conjecture
        collapses to the scan bound, matching Theorem 4.4."""
        from repro.analysis import xml_permutation_conjecture_ios

        N, B, M, k = 10**6, 100, 100 * 8, 10
        assert xml_permutation_conjecture_ios(
            N, B, M, k
        ) == pytest.approx(N / B)
