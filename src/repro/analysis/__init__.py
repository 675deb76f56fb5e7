"""Theory: outcome counting (Lemmas 4.1-4.2) and I/O bounds (Thms 4.4-4.5)."""

from .advisor import (
    DocumentProfile,
    nearest_rank_percentile,
    profile_document,
)
from .bounds import (
    ModelGeometry,
    arge_thorup_merge_depth,
    iterated_merge_depth,
    bounds_within_constant_factor,
    flat_sorting_lower_bound_ios,
    merge_sort_ios,
    merge_sort_passes,
    nexsort_over_lower_bound_ratio,
    nexsort_upper_bound_ios,
    permutation_lower_bound_ios,
    sorting_lower_bound_ios,
    xml_permutation_conjecture_ios,
)
from .planner import (
    Plan,
    PlanConfig,
    PlanCost,
    Planner,
)
from .outcomes import (
    adversarial_fanouts,
    adversarial_tree,
    fanouts_of,
    log2_factorial,
    log2_flat_outcomes,
    log2_max_outcomes,
    log2_outcomes_from_fanouts,
    log2_sorting_outcomes,
    rebalance_increases_outcomes,
)

__all__ = [
    "DocumentProfile",
    "ModelGeometry",
    "Plan",
    "PlanConfig",
    "PlanCost",
    "Planner",
    "adversarial_fanouts",
    "arge_thorup_merge_depth",
    "profile_document",
    "adversarial_tree",
    "bounds_within_constant_factor",
    "fanouts_of",
    "flat_sorting_lower_bound_ios",
    "log2_factorial",
    "log2_flat_outcomes",
    "log2_max_outcomes",
    "log2_outcomes_from_fanouts",
    "log2_sorting_outcomes",
    "iterated_merge_depth",
    "merge_sort_ios",
    "merge_sort_passes",
    "nearest_rank_percentile",
    "nexsort_over_lower_bound_ratio",
    "nexsort_upper_bound_ios",
    "permutation_lower_bound_ios",
    "rebalance_increases_outcomes",
    "sorting_lower_bound_ios",
    "xml_permutation_conjecture_ios",
]
