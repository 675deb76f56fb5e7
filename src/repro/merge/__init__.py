"""Merging sorted XML documents, and the run-formation/merge engine.

Names load their module on first access (see :mod:`repro._lazy`).  The
sorts use only the engine (:mod:`repro.merge.engine`); the
document-merging applications (structural merge, archive, dedup,
batch...) stay unloaded until a caller asks for one of their names.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "archive": ("VERSIONS_ATTRIBUTE", "XMLArchive"),
    "batch": ("BatchApplier", "BatchReport", "apply_batch"),
    "dedup": ("DedupReport", "deduplicate"),
    "engine": (
        "DEFAULT_MERGE_OPTIONS",
        "LoserTree",
        "MERGE_KERNELS",
        "MergeOptions",
        "RUN_FORMATION_MODES",
        "RunFormer",
        "normalized_component_key",
        "normalized_path_key",
        "sort_with_accounting",
    ),
    "nested_loop": (
        "NestedLoopMerger",
        "NestedLoopReport",
        "nested_loop_merge",
    ),
    "order_preserving": (
        "OrderPreservingReport",
        "annotate_sequence_numbers",
        "merge_preserving_order",
        "strip_sequence_numbers",
    ),
    "structural": (
        "MergeReport",
        "StructuralMerger",
        "kway_merge",
        "structural_merge",
    ),
})
