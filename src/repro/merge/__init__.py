"""Merging sorted XML documents, and the run-formation/merge engine.

The engine (:mod:`repro.merge.engine`) is imported eagerly - it is a leaf
module that the low-level merge machinery in :mod:`repro.baselines.merging`
depends on.  The document-merging applications (structural merge,
archive, dedup, batch...) sit *above* the core algorithms in the
dependency graph, so they are loaded lazily on first attribute access;
importing them eagerly here would close an import cycle (baselines ->
merge -> archive -> core -> baselines).
"""

from .engine import (
    DEFAULT_MERGE_OPTIONS,
    LoserTree,
    MERGE_KERNELS,
    MergeOptions,
    RUN_FORMATION_MODES,
    RunFormer,
    normalized_component_key,
    normalized_path_key,
    sort_with_accounting,
)

#: name -> (submodule, attribute) for lazily exported symbols.
_LAZY = {
    "VERSIONS_ATTRIBUTE": ("archive", "VERSIONS_ATTRIBUTE"),
    "XMLArchive": ("archive", "XMLArchive"),
    "DedupReport": ("dedup", "DedupReport"),
    "deduplicate": ("dedup", "deduplicate"),
    "BatchApplier": ("batch", "BatchApplier"),
    "BatchReport": ("batch", "BatchReport"),
    "apply_batch": ("batch", "apply_batch"),
    "NestedLoopMerger": ("nested_loop", "NestedLoopMerger"),
    "NestedLoopReport": ("nested_loop", "NestedLoopReport"),
    "nested_loop_merge": ("nested_loop", "nested_loop_merge"),
    "OrderPreservingReport": ("order_preserving", "OrderPreservingReport"),
    "annotate_sequence_numbers": (
        "order_preserving",
        "annotate_sequence_numbers",
    ),
    "merge_preserving_order": ("order_preserving", "merge_preserving_order"),
    "strip_sequence_numbers": ("order_preserving", "strip_sequence_numbers"),
    "MergeReport": ("structural", "MergeReport"),
    "StructuralMerger": ("structural", "StructuralMerger"),
    "kway_merge": ("structural", "kway_merge"),
    "structural_merge": ("structural", "structural_merge"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    value = getattr(import_module(f".{module_name}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BatchApplier",
    "BatchReport",
    "DEFAULT_MERGE_OPTIONS",
    "DedupReport",
    "LoserTree",
    "MERGE_KERNELS",
    "MergeOptions",
    "MergeReport",
    "NestedLoopMerger",
    "NestedLoopReport",
    "OrderPreservingReport",
    "RUN_FORMATION_MODES",
    "RunFormer",
    "StructuralMerger",
    "VERSIONS_ATTRIBUTE",
    "XMLArchive",
    "annotate_sequence_numbers",
    "apply_batch",
    "deduplicate",
    "kway_merge",
    "merge_preserving_order",
    "nested_loop_merge",
    "normalized_component_key",
    "normalized_path_key",
    "sort_with_accounting",
    "structural_merge",
]
