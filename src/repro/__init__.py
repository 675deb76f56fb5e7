"""NEXSORT: Sorting XML in External Memory - a full reproduction.

Reproduces Silberstein & Yang, "NEXSORT: Sorting XML in External Memory"
(ICDE 2004): the NEXSORT algorithm with all of its Section 3.2 extensions,
the external merge sort and internal recursive sort baselines, the
structural merge application, the I/O lower bound and cost analysis of
Section 4, and the full experimental evaluation of Section 5 - all on a
simulated block device with exact I/O accounting.

Quickstart::

    from repro import (
        BlockDevice, RunStore, Document, SortSpec, nexsort
    )

    device = BlockDevice(block_size=4096)
    store = RunStore(device)
    doc = Document.from_string(store, "<company>...</company>")
    spec = SortSpec.by_attribute("name", employee="ID")
    sorted_doc, report = nexsort(doc, spec, memory_blocks=16)
    print(sorted_doc.to_string(indent="  "))
    print(report.total_ios, report.simulated_seconds)
"""

from ._lazy import lazy_exports

# The quickstart's sort entry points load eagerly: a caller that imports
# the package goes on to sort, and paying for that code here keeps it out
# of the first sort call.  Every other name loads its module on first
# access (see ``_lazy``).
from .baselines.merge_sort import external_merge_sort
from .core.nexsort import nexsort
from .io.device import BlockDevice
from .io.runs import RunStore
from .keys import SortSpec
from .xml.document import Document

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baselines": (
        "ExternalMergeSorter",
        "MergeSortReport",
        "external_merge_sort",
        "is_fully_sorted",
        "key_path_table",
        "sort_element",
    ),
    "core": ("NexSorter", "NexsortOptions", "NexsortReport", "nexsort"),
    "errors": (
        "CodecError",
        "DeviceError",
        "DeviceFault",
        "FaultPlanError",
        "MemoryBudgetExceeded",
        "MergeError",
        "ReproError",
        "RunError",
        "SortRecoveryError",
        "SortSpecError",
        "StackError",
        "XMLSyntaxError",
    ),
    "faults": (
        "Checkpoint",
        "FaultInjector",
        "FaultPlan",
        "FaultRule",
        "RecoveryContext",
        "RetryingDevice",
        "RetryPolicy",
        "build_faulty_device",
    ),
    "io": (
        "BlockDevice",
        "CostModel",
        "ExternalStack",
        "IOStats",
        "MemoryBudget",
        "RunStore",
    ),
    "keys": (
        "ByAttribute",
        "ByAttributes",
        "ByChildPath",
        "ByTag",
        "ByText",
        "DocumentOrder",
        "KeyEvaluator",
        "KeyRule",
        "SortSpec",
    ),
    "merge": (
        "BatchReport",
        "MergeReport",
        "NestedLoopReport",
        "apply_batch",
        "nested_loop_merge",
        "structural_merge",
    ),
    "plan": ("PlanConfig", "run_plan"),
    "xml": (
        "CompactionConfig",
        "Document",
        "Element",
        "NameDictionary",
        "element_to_string",
        "events_to_string",
        "parse_events",
    ),
})

__version__ = "1.0.0"
