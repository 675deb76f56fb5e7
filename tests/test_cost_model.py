"""Tests for the cost-model bridge between bounds and simulated time."""

from repro.analysis import (
    ModelGeometry,
    lower_bound_seconds,
    measured_over_bound,
    predicted_merge_sort_seconds,
    predicted_nexsort_seconds,
    predicted_seconds_from_ios,
)
from repro.io import CostModel
from repro.io.stats import IOStats


class TestPredictedSeconds:
    def test_monotone_in_ios(self):
        values = [
            predicted_seconds_from_ios(ios) for ios in (10, 100, 1000)
        ]
        assert values == sorted(values)

    def test_random_fraction_increases_time(self):
        calm = predicted_seconds_from_ios(1000, random_fraction=0.0)
        seeky = predicted_seconds_from_ios(1000, random_fraction=0.5)
        assert seeky > calm

    def test_custom_cost_model_scales(self):
        slow = CostModel(seek_seconds=0.1, transfer_seconds=0.01)
        assert predicted_seconds_from_ios(
            1000, cost_model=slow
        ) > predicted_seconds_from_ios(1000)


class TestGeometryPredictors:
    def geometry(self) -> ModelGeometry:
        return ModelGeometry(N=10**5, B=25, M=25 * 16, k=50)

    def test_nexsort_prediction_positive(self):
        assert predicted_nexsort_seconds(self.geometry()) > 0

    def test_merge_sort_prediction_positive(self):
        assert predicted_merge_sort_seconds(self.geometry()) > 0

    def test_lower_bound_below_upper_bound_time(self):
        geometry = self.geometry()
        assert lower_bound_seconds(geometry) <= predicted_nexsort_seconds(
            geometry
        ) + 1e-9

    def test_threshold_parameter_respected(self):
        geometry = self.geometry()
        small = predicted_nexsort_seconds(geometry, threshold_elements=25)
        large = predicted_nexsort_seconds(
            geometry, threshold_elements=2500
        )
        assert large >= small


class TestMeasuredOverBound:
    def snapshot(self, ios: int):
        stats = IOStats()
        stats.record_reads("x", ios, ios)
        return stats.snapshot()

    def test_ratio(self):
        assert measured_over_bound(self.snapshot(200), 100.0) == 2.0

    def test_zero_bound_is_infinite(self):
        assert measured_over_bound(self.snapshot(1), 0.0) == float("inf")
