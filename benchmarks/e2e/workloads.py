"""The benchmark's four workloads: document shape, geometry, and criterion.

Each workload fixes what a ``repro sort`` user chooses - the algorithm, the
block size and the ordering spec; the memory is ``MEMORY_BLOCKS`` for all -
plus the document generator; ``--seed`` only reseeds the generator's keys
and sizes.  The documents keep the Figure-5/6 shapes and the auction
document, scaled to 24k-29k elements so one job takes 2-3.5 CPU seconds and
a timed run holds several jobs; the block size is scaled with them so each
workload keeps the behaviour it was chosen for (see README.md).  ``smoke``
shrinks every shape to at most 2k elements with the same behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's memory budget M in blocks (3 MB at its 64 KB blocks).
MEMORY_BLOCKS = 48

AUCTION_SPEC = (
    "*=@name, open_auction=item/quantity, bid=@amount+@at, item=@id"
)


@dataclass(frozen=True)
class Geometry:
    """One document size and the block size that keeps its behaviour."""

    params: dict
    block_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str  # "nexsort" or "mergesort"
    spec: str
    generator: str  # "level_fanout" or "auction"
    full: Geometry
    smoke: Geometry

    def geometry(self, smoke: bool) -> Geometry:
        return self.smoke if smoke else self.full

    def events(self, seed: int, smoke: bool):
        """The document's token stream for ``seed``."""
        from repro.generators import auction_events, level_fanout_events

        params = self.geometry(smoke).params
        if self.generator == "auction":
            return auction_events(seed=seed, **params)
        return level_fanout_events(seed=seed, **params)


_FIG6_FULL = Geometry({"fanouts": [85, 85, 3], "pad_bytes": 24}, 16384)
_FIG6_SMOKE = Geometry({"fanouts": [48, 10, 3], "pad_bytes": 24}, 2048)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Every subtree sort fits in memory: scan, internal subtree sorts
        # and the output walk; the merge engine is bypassed.
        Workload(
            "nexsort-fig5", "nexsort", "*=@name", "level_fanout",
            Geometry({"fanouts": [11, 11, 11, 20], "pad_bytes": 24}, 16384),
            Geometry({"fanouts": [6, 6, 6, 8], "pad_bytes": 24}, 1024),
        ),
        # The root subtree exceeds memory: one external subtree sort.
        Workload(
            "nexsort-fig6", "nexsort", "*=@name", "level_fanout",
            _FIG6_FULL, _FIG6_SMOKE,
        ),
        # The same document through run formation and merging, no scan.
        Workload(
            "mergesort-fig6", "mergesort", "*=@name", "level_fanout",
            _FIG6_FULL, _FIG6_SMOKE,
        ),
        # Child-path keys (token scan, keys at end tags), text-heavy skewed
        # subtrees, external region sorts, and small blocks: the
        # device-call-heavy workload.
        Workload(
            "nexsort-auction", "nexsort", AUCTION_SPEC, "auction",
            Geometry({"auctions_per_region": 200, "max_bids": 8}, 1024),
            Geometry(
                {"auctions_per_region": 50, "max_bids": 8, "regions": 2}, 768
            ),
        ),
    )
}
