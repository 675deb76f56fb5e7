"""NEXSORT core: the paper's primary contribution.

Names load their module on first access (see :mod:`repro._lazy`), so the
IDREF extension stays unloaded until a caller asks for it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "idref": (
        "ByIdRef",
        "nexsort_with_idrefs",
        "resolve_idref_keys",
        "sortable_atom_string",
    ),
    "nexsort": ("NexSorter", "NexsortOptions", "nexsort"),
    "output": ("output_phase",),
    "report": ("NexsortReport", "SubtreeSortInfo"),
    "subtree": ("SubtreeResult", "SubtreeSorter"),
})
