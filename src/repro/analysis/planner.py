"""Cost-based self-tuning planner over the full engine knob grid.

The one answer to the paper's Section-5 question (NEXSORT or merge
sort?) and to the operational one around it - *given this workload
sketch and these resources, how should every knob be set?*  Both
``repro sort --plan auto`` and ``repro analyze`` print its plan.  It
enumerates candidate :class:`PlanConfig` settings over the grid the
engine actually exposes (algorithm, threshold, cache blocks, run
formation, merge kernel, compression, disks, prefetch),
prices each with the shared :class:`~repro.io.stats.CostModel`
using :func:`~repro.analysis.bounds.iterated_merge_depth` (the
Arge-Thorup merge-depth oracle) as the pass-count oracle, and returns a
:class:`Plan` carrying the chosen config, the predicted I/O/CPU/disk-time
breakdown, and a ranked rationale.  Configs are
:class:`~repro.plan.PlanConfig` points; :func:`~repro.plan.run_plan`
runs one.

The predictors are calibrated against the recorded ``BENCH_*.json``
phase breakdowns rather than the loose Theorem 4.5 constants:

* merge sort moves ``n`` input blocks plus ``r*n`` annotated run-record
  blocks per pass (``r`` = key-path annotation inflation), with partial
  intermediate merges and a streamed final pass - so
  I/O ~= ``2n + r*n * (1 + merge work)``;
* NEXSORT pays the scan/stage/output-walk pipeline (~``4n`` in the
  *internal regime*, where the smallest sort unit above the threshold
  fits in memory) plus two ``n``-passes per materialized merge level of
  an external sort unit, plus a reread tail the buffer pool absorbs;
* striping divides busy time across ``D`` disks at a seek surcharge,
  so the objective is predicted *disk* seconds (busiest disk) plus CPU.

``benchmarks/bench_planner.py`` and ``tests/test_planner.py`` hold the
planner to the empirical optimum of every recorded benchmark grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import ceil, log2

from ..errors import ReproError
from ..io.budget import MINIMUM_NEXSORT_BLOCKS
from ..io.stats import CostModel
from ..merge.engine import MERGE_KERNELS, RUN_FORMATION_MODES
from ..plan import PlanConfig
from .advisor import DocumentProfile
from .bounds import iterated_merge_depth

#: Key-path annotation bytes a merge-sort run record adds per element
#: (calibrated: run-formation writes / input blocks across BENCH rows).
RUN_ANNOTATION_BYTES = 34.0

#: NEXSORT's staging-pass size relative to the input (structural keys).
STAGE_INFLATION = 1.08

#: Fraction of input blocks the output walk rereads with no buffer pool.
OUTPUT_REREAD_FRACTION = 0.12

#: Heap-kernel surcharges vs. the loser tree (calibrated: the heap
#: merger re-touches blocks and breaks sequentiality at run boundaries).
HEAP_MERGE_IO_FACTOR = 1.28
HEAP_SEEKS_PER_RUN = 3.0

#: Seek surcharge of striping: busy(D) ~= serial/D + serial*alpha*(1-1/D).
STRIPE_SEEK_FRACTION = 0.15

#: Tokens decoded/encoded per element per data pass.
TOKENS_PER_ELEMENT = 4.0

#: The run-compression ratio the planner assumes when pricing the
#: ``compress`` knob (calibrated: BENCH_compress container-codec run
#: bytes on the Figure-5 grid land between 4x and 7x; 4.0 keeps the
#: predictions conservative for less redundant inputs).
PLANNED_COMPRESSION_RATIO = 4.0

#: Fraction of NEXSORT's staging I/O that lives in sorted runs - the
#: part run compression shrinks; the rest is data-stack spill, which
#: stays uncompressed (calibrated from the Figure-5 byte counters).
STAGE_RUN_FRACTION = 0.75


def threshold_of(config: PlanConfig, block_size: int) -> int:
    """The threshold ``config`` sorts with, in bytes (None is NEXSORT's
    default of two blocks)."""
    if config.threshold_bytes is None:
        return 2 * block_size
    return config.threshold_bytes


@dataclass(frozen=True)
class PlanCost:
    """Predicted cost breakdown of one :class:`PlanConfig`."""

    total_ios: float
    random_ios: float
    io_seconds: float
    cpu_seconds: float
    disk_seconds: float
    merge_depth: int
    initial_runs: int
    fan_in: int

    @property
    def total_seconds(self) -> float:
        """The planner's objective: busiest-disk time plus CPU."""
        return self.disk_seconds + self.cpu_seconds


@dataclass
class Plan:
    """The planner's verdict: a config, its predicted cost, and why."""

    config: PlanConfig
    cost: PlanCost
    rationale: list[str] = field(default_factory=list)
    ranked: list[tuple[PlanConfig, PlanCost]] = field(default_factory=list)
    considered: int = 0
    block_size: int = 4096

    def describe(self) -> str:
        c = self.config
        threshold = threshold_of(c, self.block_size) / self.block_size
        lines = [
            f"plan: {c.algorithm} memory={c.memory_blocks} "
            f"cache={c.cache_blocks} threshold={threshold:g}B "
            f"formation={c.run_formation} kernel={c.merge_kernel} "
            f"compress={c.compress or 'off'}"
            f"{'+capacity' if c.compress_capacity else ''} "
            f"disks={c.disks} prefetch={c.prefetch_depth}/"
            f"{c.prefetch_policy}",
            f"predicted: {self.cost.total_seconds:.4f}s "
            f"({self.cost.total_ios:.0f} I/Os, "
            f"{self.cost.io_seconds:.4f}s I/O, "
            f"{self.cost.cpu_seconds:.4f}s CPU, "
            f"{self.cost.disk_seconds:.4f}s busiest disk; "
            f"{self.cost.initial_runs} runs, fan-in "
            f"{self.cost.fan_in}, merge depth {self.cost.merge_depth}; "
            f"{self.considered} candidates)",
        ]
        lines.extend(f"- {line}" for line in self.rationale)
        return "\n".join(lines)


class Planner:
    """Enumerate, cost, and rank plans for one workload sketch.

    Args:
        profile: the workload sketch (measured by
            :func:`~repro.analysis.advisor.profile_document` or rebuilt
            analytically via :meth:`DocumentProfile.from_fanouts`).
        memory_blocks: total memory grant the plan may spend (sort
            memory plus buffer pool - "memory includes cache").
        block_size: device block size in bytes.
        disks: disks available for striping (`repro sort`) or sharing.
        cost_model: the device's charge model; defaults to the standard
            :class:`CostModel` every simulated device uses.
    """

    def __init__(
        self,
        profile: DocumentProfile,
        memory_blocks: int,
        block_size: int,
        disks: int = 1,
        cost_model: CostModel | None = None,
    ):
        if block_size <= 0:
            raise ReproError(f"block_size must be positive, got {block_size}")
        if memory_blocks < 2:
            raise ReproError(
                f"memory_blocks must be at least 2, got {memory_blocks}"
            )
        if disks < 1:
            raise ReproError(f"disks must be at least 1, got {disks}")
        self.profile = profile
        self.memory_blocks = memory_blocks
        self.block_size = block_size
        self.disks = disks
        self.cost_model = cost_model or CostModel()
        self.element_bytes = max(1.0, profile.average_element_bytes)
        #: Elements per block, from the measured profile when possible.
        if profile.block_count > 0 and profile.element_count > 0:
            self.B = max(
                1, round(profile.element_count / profile.block_count)
            )
        else:
            self.B = max(1, int(block_size / self.element_bytes))
        #: Input blocks - the `n` every predictor scales with.
        self.n = max(
            1,
            profile.block_count
            or ceil(profile.element_count / self.B),
        )

    # -- shared merge-tree pricing ---------------------------------------

    def _merge_tree(
        self, run_blocks: float, runs: int, fan_in: int, heap: bool
    ) -> tuple[float, float, float, int]:
        """Price a run merge: (I/Os, random I/Os, comparisons, depth).

        Intermediate passes are *partial* (merge just enough runs to
        reach the fan-in, as the engine does); the final pass streams
        into the output, so only its reads are charged here.  The depth
        equals :func:`iterated_merge_depth` by construction - each loop
        iteration plus the final streamed level is one tree level.
        """
        per_element = self.profile.element_count / max(1.0, run_blocks)
        io = 0.0
        random_io = 0.0
        comparisons = 0.0
        depth = 0
        while runs > fan_in:
            merged = runs - fan_in + 1
            blocks = run_blocks * merged / runs
            factor = HEAP_MERGE_IO_FACTOR if heap else 1.0
            io += 2.0 * blocks * factor
            if heap:
                random_io += HEAP_SEEKS_PER_RUN * merged
            width = min(merged, fan_in)
            charge = 2.0 if heap else 1.0
            comparisons += (
                blocks * per_element * charge * max(1.0, log2(width))
            )
            runs -= merged - 1
            depth += 1
        if runs > 1:
            # Final streamed pass: read every run record once.
            factor = HEAP_MERGE_IO_FACTOR if heap else 1.0
            io += run_blocks * factor
            if heap:
                random_io += HEAP_SEEKS_PER_RUN * runs
            charge = 2.0 if heap else 1.0
            comparisons += (
                run_blocks * per_element * charge * max(1.0, log2(runs))
            )
            depth += 1
        return io, random_io, comparisons, depth

    # -- per-algorithm predictors ----------------------------------------

    def _merge_sort_cost(self, config: PlanConfig) -> PlanCost:
        n = self.n
        N = self.profile.element_count
        working = config.working_blocks
        fan_in = max(2, working - 1)
        record_bytes = self.element_bytes + RUN_ANNOTATION_BYTES
        run_blocks = n * record_bytes / self.element_bytes
        ratio = PLANNED_COMPRESSION_RATIO if config.compress else 1.0
        # Run blocks *on disk*: the merge tree reads and writes stored
        # (compressed) blocks, while run counts and comparisons are set
        # by the logical record stream.
        stored_run_blocks = run_blocks / ratio
        run_length = working * (
            2 if config.run_formation == "replacement-selection" else 1
        )
        # Capacity compression packs ~ratio more records into a memory
        # budget, so initial runs get longer - this is the knob that can
        # push the run count below a pass boundary of the merge tree.
        effective_run_length = run_length * (
            ratio if config.compress_capacity else 1.0
        )
        runs = max(1, ceil(run_blocks / max(1.0, effective_run_length)))
        merge_io, merge_random, merge_cmp, depth = self._merge_tree(
            stored_run_blocks, runs, fan_in,
            heap=config.merge_kernel == "heap",
        )
        # scan + run writes + merge passes + output writes.
        io = n + stored_run_blocks + merge_io + n
        random_io = merge_random
        comparisons = N * max(1.0, log2(max(2, run_length * self.B)))
        comparisons += merge_cmp
        tokens = 2.0 * TOKENS_PER_ELEMENT * N
        tokens += TOKENS_PER_ELEMENT * N * depth
        compress_raw = decompress_raw = 0.0
        if config.compress:
            # Every stored run block is written once and read once per
            # tree touch; the codec processes the *raw* bytes behind it.
            touched = stored_run_blocks + merge_io
            raw = touched * self.block_size * ratio / 2.0
            compress_raw = decompress_raw = raw
            if config.compress_capacity:
                # Pending-batch chunks: one in-memory round trip per record.
                capacity_raw = run_blocks * self.block_size
                compress_raw += capacity_raw
                decompress_raw += capacity_raw
        return self._finish(
            config, io, random_io, comparisons, tokens,
            merge_depth=depth, initial_runs=runs, fan_in=fan_in,
            compress_raw=compress_raw, decompress_raw=decompress_raw,
        )

    def _sort_unit_elements(self, t_elements: int) -> tuple[float, float]:
        """(unit, child) mean subtree sizes around the sort threshold.

        The sort unit is the smallest per-level mean subtree size that
        exceeds the threshold - the subtree NEXSORT actually sorts as
        one batch; ``child`` is the mean size one level deeper (its
        presorted sub-units).  Falls back to the whole document when the
        profile carries no level sizes.
        """
        sizes = list(self.profile.level_subtree_elements)
        if not sizes:
            sizes = [float(self.profile.element_count)]
        unit = sizes[0]
        child = sizes[1] if len(sizes) > 1 else 1.0
        for depth in range(len(sizes) - 1, -1, -1):
            if sizes[depth] > t_elements:
                unit = sizes[depth]
                child = sizes[depth + 1] if depth + 1 < len(sizes) else 1.0
                break
        else:
            return 0.0, 1.0  # even the root fits under the threshold
        return unit, max(1.0, child)

    def _nexsort_cost(self, config: PlanConfig) -> PlanCost:
        if config.flat_optimization and self.profile.is_nearly_flat:
            # Graceful degeneration: runs form like merge sort but carry
            # the short structural keys instead of full key paths.
            return self._merge_sort_cost(
                replace(config, algorithm="merge_sort")
            )
        n = self.n
        N = self.profile.element_count
        working = config.working_blocks
        fan_in = max(2, working - 1)
        memory_elements = working * self.B
        t_elements = max(
            1, threshold_of(config, self.block_size) * self.B
            // self.block_size
        )
        stage_blocks = n * STAGE_INFLATION
        ratio = PLANNED_COMPRESSION_RATIO if config.compress else 1.0
        # scan read + stage write + output read + output write.
        io = n + stage_blocks + stage_blocks + n
        compress_raw = decompress_raw = 0.0
        if config.compress:
            # The staging tree is mostly sorted runs (the rest is
            # data-stack spill, untouched by run compression): the
            # run-backed share shrinks by the ratio, the codec chews
            # its raw bytes once each way.
            run_backed = stage_blocks * STAGE_RUN_FRACTION
            io -= 2.0 * run_backed * (1.0 - 1.0 / ratio)
            compress_raw += run_backed * self.block_size
            decompress_raw += run_backed * self.block_size
        random_io = 0.0
        comparisons = N * max(1.0, log2(max(2, t_elements)))
        tokens = 2.0 * TOKENS_PER_ELEMENT * N * 2
        depth = 0
        runs = 1
        unit, child = self._sort_unit_elements(t_elements)
        if unit > memory_elements:
            # External sort units: their merge levels are all
            # materialized inside the document scan.
            effective_memory = memory_elements * (
                ratio if config.compress_capacity else 1.0
            )
            if child >= self.B:
                runs = max(2, round(unit / child))
            else:
                # Degenerate unit (children below block grain): runs
                # form from memory-fulls, plus a wasted staging pass.
                runs = max(2, ceil(unit / effective_memory))
                io += 2.0 * n
            unit_blocks = stage_blocks / ratio
            merge_io, merge_random, merge_cmp, depth = self._merge_tree(
                unit_blocks, runs, fan_in,
                heap=config.merge_kernel == "heap",
            )
            if depth:
                # No streamed discount inside the scan: the last level
                # also writes its result back to the stage.
                merge_io += unit_blocks
            io += merge_io
            random_io += merge_random
            comparisons += merge_cmp
            tokens += TOKENS_PER_ELEMENT * N * depth
            if config.compress:
                raw = merge_io * self.block_size * ratio / 2.0
                compress_raw += raw
                decompress_raw += raw
        # Output-walk rereads, absorbed by the buffer pool.
        rereads = OUTPUT_REREAD_FRACTION * n
        cache = config.cache_blocks
        absorbed = rereads * (cache / (cache + 1.0))
        reread_io = rereads - absorbed
        io += reread_io
        random_io += reread_io
        if config.flat_optimization:
            # Degeneration detection on a hierarchical input: a small
            # insurance premium so the plain plan wins exact ties.
            io *= 1.002
        return self._finish(
            config, io, random_io, comparisons, tokens,
            merge_depth=depth, initial_runs=runs, fan_in=fan_in,
            compress_raw=compress_raw, decompress_raw=decompress_raw,
        )

    def _finish(
        self,
        config: PlanConfig,
        io: float,
        random_io: float,
        comparisons: float,
        tokens: float,
        merge_depth: int,
        initial_runs: int,
        fan_in: int,
        compress_raw: float = 0.0,
        decompress_raw: float = 0.0,
    ) -> PlanCost:
        model = self.cost_model
        sequential = max(0.0, io - random_io)
        io_seconds = (
            sequential * model.transfer_seconds
            + random_io * (model.seek_seconds + model.transfer_seconds)
        )
        cpu_seconds = model.cpu_seconds(
            round(comparisons), round(tokens)
        ) + model.compress_seconds(
            round(compress_raw), round(decompress_raw)
        )
        disks = config.disks
        disk_seconds = io_seconds / disks + (
            io_seconds * STRIPE_SEEK_FRACTION * (1.0 - 1.0 / disks)
        )
        return PlanCost(
            total_ios=io,
            random_ios=random_io,
            io_seconds=io_seconds,
            cpu_seconds=cpu_seconds,
            disk_seconds=disk_seconds,
            merge_depth=merge_depth,
            initial_runs=initial_runs,
            fan_in=fan_in,
        )

    # -- enumeration, ranking, and the verdict ---------------------------

    def cost(self, config: PlanConfig) -> PlanCost:
        """Predicted cost of one configuration."""
        config.validate()
        if config.algorithm == "merge_sort":
            return self._merge_sort_cost(config)
        return self._nexsort_cost(config)

    def _floor(self, algorithm: str) -> int:
        return MINIMUM_NEXSORT_BLOCKS if algorithm == "nexsort" else 3

    def enumerate_configs(
        self, fixed: dict | None = None
    ) -> list[PlanConfig]:
        """The full knob grid, honoring ``fixed`` pins."""
        fixed = dict(fixed or {})

        def axis(name: str, values: list) -> list:
            if name in fixed:
                return [fixed[name]]
            return values

        memory = int(fixed.get("memory_blocks", self.memory_blocks))
        caches = sorted(
            {0, 1, 2, memory // 8, memory // 4}
            & set(range(0, memory))
        )
        disk_values = sorted(
            {1, self.disks}
            | {d for d in (2, 4, 8) if d <= self.disks}
        )
        configs: list[PlanConfig] = []
        seen: set[PlanConfig] = set()
        for (
            algorithm, cache, threshold, flat, formation,
            merge_kernel, disks, compress, compress_capacity,
        ) in itertools.product(
            axis("algorithm", ["nexsort", "merge_sort"]),
            axis("cache_blocks", caches),
            axis(
                "threshold_bytes",
                [self.block_size, None, 4 * self.block_size],
            ),
            axis("flat_optimization", [False, True]),
            axis("run_formation", sorted(RUN_FORMATION_MODES)),
            axis("merge_kernel", sorted(MERGE_KERNELS)),
            axis("disks", disk_values),
            axis("compress", [None, "container"]),
            axis("compress_capacity", [False, True]),
        ):
            if memory - cache < self._floor(algorithm):
                continue
            if compress_capacity and compress is None:
                continue
            if algorithm == "merge_sort":
                # Threshold and degeneration are NEXSORT-only knobs:
                # canonicalize so equal plans are not double-counted.
                threshold = fixed.get("threshold_bytes")
                flat = fixed.get("flat_optimization", False)
            if merge_kernel == "heap":
                # Only loser-tree merges fetch ahead: canonicalize the
                # prefetch window of heap plans so equal plans are not
                # double-counted.
                prefetch = 0
            else:
                prefetch = fixed.get(
                    "prefetch_depth", 2 * disks if disks > 1 else 0
                )
            config = PlanConfig(
                algorithm=algorithm,
                memory_blocks=memory,
                cache_blocks=cache,
                threshold_bytes=threshold,
                flat_optimization=flat,
                run_formation=formation,
                merge_kernel=merge_kernel,
                disks=disks,
                prefetch_depth=prefetch,
                prefetch_policy=fixed.get("prefetch_policy", "forecast"),
                compress=compress,
                compress_capacity=compress_capacity,
                depth_limit=fixed.get("depth_limit"),
                compact=fixed.get("compact", False),
            )
            if config not in seen:
                seen.add(config)
                configs.append(config)
        if not configs:
            raise ReproError(
                f"no feasible plan: {memory} blocks cannot cover the "
                f"algorithm floor"
            )
        return configs

    def _tiebreak(self, config: PlanConfig) -> tuple:
        """Deterministic order among cost ties.

        Prefer the fewest knobs moved off the paper's defaults, then a
        stable lexicographic key.
        """
        defaults = PlanConfig(
            memory_blocks=config.memory_blocks,
            disks=config.disks,
            prefetch_depth=config.prefetch_depth,
        )
        moved = sum(
            1
            for name in (
                "cache_blocks", "threshold_bytes", "flat_optimization",
                "run_formation", "merge_kernel", "compress",
                "compress_capacity",
            )
            if getattr(config, name) != getattr(defaults, name)
        )
        return moved, repr(config)

    def rank(
        self, configs: list[PlanConfig]
    ) -> list[tuple[PlanConfig, PlanCost]]:
        """Configs with costs, cheapest objective first."""
        priced = [(config, self.cost(config)) for config in configs]
        priced.sort(
            key=lambda pair: (
                round(pair[1].total_seconds, 9),
                self._tiebreak(pair[0]),
            )
        )
        return priced

    def choose(
        self,
        configs: list[PlanConfig] | None = None,
        fixed: dict | None = None,
    ) -> Plan:
        """Pick the cheapest plan from ``configs`` or the full grid."""
        if configs is None:
            configs = self.enumerate_configs(fixed)
        ranked = self.rank(configs)
        best, cost = ranked[0]
        return Plan(
            config=best,
            cost=cost,
            rationale=self._rationale(best, cost, ranked),
            ranked=ranked[:5],
            considered=len(ranked),
            block_size=self.block_size,
        )

    def _rationale(
        self,
        best: PlanConfig,
        cost: PlanCost,
        ranked: list[tuple[PlanConfig, PlanCost]],
    ) -> list[str]:
        lines: list[str] = []
        by_algorithm: dict[str, float] = {}
        for config, priced in ranked:
            by_algorithm.setdefault(
                config.algorithm, priced.total_seconds
            )
        other = {
            name: seconds
            for name, seconds in by_algorithm.items()
            if name != best.algorithm
        }
        if other:
            rival, seconds = min(other.items(), key=lambda kv: kv[1])
            lines.append(
                f"{best.algorithm} predicted {cost.total_seconds:.4f}s "
                f"vs {rival} {seconds:.4f}s on this profile "
                f"(height {self.profile.height}, "
                f"{self.n} input blocks)"
            )
        else:
            lines.append(
                f"{best.algorithm} predicted {cost.total_seconds:.4f}s "
                f"(only candidate algorithm)"
            )
        lines.append(
            f"Arge-Thorup oracle: {cost.initial_runs} initial runs at "
            f"fan-in {cost.fan_in} -> merge depth {cost.merge_depth}"
        )
        if best.cache_blocks:
            lines.append(
                f"{best.cache_blocks} cache blocks absorb output-walk "
                f"rereads without forcing an extra merge level"
            )
        if best.run_formation == "replacement-selection":
            lines.append(
                "replacement selection halves the run count, cutting "
                "merge-boundary seeks"
            )
        if best.merge_kernel == "loser-tree":
            lines.append(
                "loser tree: ~log2(f) comparisons per record and "
                "sequential merge reads"
            )
        if best.compress:
            saved = 1.0 - 1.0 / PLANNED_COMPRESSION_RATIO
            lines.append(
                f"run compression ({best.compress}) past the CPU/IO "
                f"crossover: ~{saved:.0%} of run transfer saved beats "
                f"the codec's per-byte CPU at this block size"
                + (
                    "; capacity mode lengthens initial runs "
                    "(fewer merge passes in reach)"
                    if best.compress_capacity
                    else ""
                )
            )
        else:
            lines.append(
                "run compression rejected: codec CPU per raw byte would "
                "exceed the blocks it saves at this block size"
            )
        if best.disks > 1:
            lines.append(
                f"{best.disks} disks cut busiest-disk time to "
                f"{cost.disk_seconds:.4f}s (prefetch "
                f"{best.prefetch_depth}, {best.prefetch_policy})"
            )
        if best.algorithm == "nexsort":
            lines.append(
                f"threshold "
                f"{threshold_of(best, self.block_size) / self.block_size:g} "
                f"block(s); sort "
                f"units above it "
                + (
                    "need external merges"
                    if cost.merge_depth
                    else "fit in memory (internal regime, ~4n I/Os)"
                )
            )
        return lines
