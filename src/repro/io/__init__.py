"""External-memory substrate: simulated device, budget, stacks, runs.

Names load their module on first access (see :mod:`repro._lazy`): the
buffer pool, run compression, the striped device, leases and the file
device stay unloaded until a caller asks for them.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "budget": (
        "CarvedBudget",
        "MemoryBudget",
        "MINIMUM_NEXSORT_BLOCKS",
        "Reservation",
    ),
    "bufferpool": ("BufferPool", "DEFAULT_READAHEAD"),
    "compress": (
        "CODEC_NAMES",
        "CompressionConfig",
        "RunSegment",
        "decode_document_wire",
        "decode_records",
        "encode_document_wire",
        "encode_records",
    ),
    "device": (
        "BlockDevice",
        "DEFAULT_BLOCK_SIZE",
        "DeviceLayer",
        "PREFETCH_POLICIES",
    ),
    "file_device": ("FileBackedBlockDevice",),
    "lease": ("ResourceLease", "ResourcePool", "TeeIOStats"),
    "parallel": (
        "DiskTimeline",
        "MergePrefetcher",
        "StripedDevice",
        "supports_prefetch",
    ),
    "runs": (
        "CompressedRunReader",
        "CompressedRunWriter",
        "RunHandle",
        "RunReader",
        "RunStore",
        "RunWriter",
    ),
    "stacks": ("ExternalStack",),
    "stats": ("CategoryCounters", "CostModel", "IOStats", "StatsSnapshot"),
})
