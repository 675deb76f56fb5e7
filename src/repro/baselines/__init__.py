"""Baseline algorithms the paper compares against.

Names load their module on first access (see :mod:`repro._lazy`), so
``external_merge_sort`` does not pay for XSort, the key-path encoding or
the in-memory recursive sort.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "internal_sort": (
        "is_fully_sorted",
        "sort_element",
        "sort_element_in_place",
    ),
    "keypath": (
        "KeyPathRecord",
        "decode_record",
        "encode_record",
        "format_key_path",
        "key_path_table",
        "records_from_annotated_events",
        "records_from_document_scan",
        "tokens_from_sorted_records",
    ),
    "merge_sort": (
        "ExternalMergeSorter",
        "MergeSortReport",
        "external_merge_sort",
    ),
    "merging": ("merge_pass", "merge_to_single_run", "merge_to_stream"),
    "xsort": ("XSortReport", "XSorter", "xsort"),
})
