"""Tests for workload profiling."""

import pytest

from repro.analysis import (
    DocumentProfile,
    nearest_rank_percentile,
    profile_document,
)
from repro.errors import ReproError
from repro.generators import level_fanout_events
from repro.generators.level_fanout import level_fanout_element_count
from repro.io import BlockDevice, RunStore
from repro.xml import Document, Element

from .conftest import flat_tree, random_tree


def load(events_or_tree, block_size=256):
    device = BlockDevice(block_size=block_size)
    store = RunStore(device)
    if isinstance(events_or_tree, Element):
        return Document.from_element(store, events_or_tree)
    return Document.from_events(store, events_or_tree)


class TestNearestRankPercentile:
    def test_empty_is_zero(self):
        assert nearest_rank_percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert nearest_rank_percentile([7], 0.01) == 7.0
        assert nearest_rank_percentile([7], 0.50) == 7.0
        assert nearest_rank_percentile([7], 0.99) == 7.0

    def test_even_count_hand_computed(self):
        # Nearest rank on [10, 20, 30, 40]: p50 -> ceil(0.5*4)=rank 2
        # -> 20 (the old int-truncation picked 30), p95 -> rank 4 -> 40.
        values = [10, 20, 30, 40]
        assert nearest_rank_percentile(values, 0.50) == 20.0
        assert nearest_rank_percentile(values, 0.25) == 10.0
        assert nearest_rank_percentile(values, 0.75) == 30.0
        assert nearest_rank_percentile(values, 0.95) == 40.0

    def test_odd_count_hand_computed(self):
        # [1, 2, 3, 4, 5]: p50 -> ceil(2.5)=rank 3 -> 3; p95 -> rank 5.
        values = [1, 2, 3, 4, 5]
        assert nearest_rank_percentile(values, 0.50) == 3.0
        assert nearest_rank_percentile(values, 0.95) == 5.0
        assert nearest_rank_percentile(values, 0.20) == 1.0

    def test_twenty_samples_p95_is_not_the_maximum(self):
        # The off-by-one this fix is about: p95 of 20 samples is the
        # 19th order statistic (rank ceil(0.95*20) = 19), not the max.
        values = list(range(1, 21))
        assert nearest_rank_percentile(values, 0.95) == 19.0
        assert nearest_rank_percentile(values, 1.00) == 20.0


class TestFromFanouts:
    def test_matches_generator_counts(self):
        shape = [4, 4, 4]
        profile = DocumentProfile.from_fanouts(shape, block_size=512)
        assert profile.element_count == level_fanout_element_count(shape)
        assert profile.height == len(shape) + 1
        assert profile.max_fanout == 4
        assert profile.level_subtree_elements[0] == profile.element_count

    def test_matches_measured_profile(self):
        shape = [5, 3, 2]
        doc = load(
            level_fanout_events(shape, seed=1, pad_bytes=0),
            block_size=512,
        )
        measured = profile_document(doc)
        analytic = DocumentProfile.from_fanouts(shape, block_size=512)
        assert analytic.element_count == measured.element_count
        assert analytic.height == measured.height
        assert analytic.max_fanout == measured.max_fanout
        assert analytic.level_subtree_elements == pytest.approx(
            measured.level_subtree_elements
        )

    def test_rejects_bad_fanouts(self):
        with pytest.raises(ReproError):
            DocumentProfile.from_fanouts([])
        with pytest.raises(ReproError):
            DocumentProfile.from_fanouts([4, 0, 4])


class TestProfile:
    def test_counts_match_document(self):
        doc = load(level_fanout_events([5, 4], seed=1))
        profile = profile_document(doc)
        assert profile.element_count == doc.element_count
        assert profile.height == doc.height
        assert profile.max_fanout == doc.max_fanout

    def test_flatness_of_flat_document(self):
        doc = load(flat_tree(100))
        profile = profile_document(doc)
        assert profile.flatness == 1.0
        assert profile.is_nearly_flat

    def test_flatness_of_deep_document(self):
        doc = load(level_fanout_events([5, 5, 5, 5], seed=2))
        profile = profile_document(doc)
        assert profile.flatness < 0.05
        assert not profile.is_nearly_flat

    def test_percentiles_ordered(self):
        doc = load(random_tree(3, depth=4, max_fanout=6))
        profile = profile_document(doc)
        assert profile.fanout_p50 <= profile.fanout_p95 <= profile.max_fanout

    def test_average_element_bytes_positive(self):
        doc = load(flat_tree(20))
        assert profile_document(doc).average_element_bytes > 0
