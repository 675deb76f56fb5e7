"""Admission control: who gets in, at what memory grant, and why.

The controller stands between arriving :class:`~repro.service.workload.
JobSpec` requests and the shared :class:`~repro.io.lease.ResourcePool`.
For each request it picks one of four actions, grounded in the cost
bounds rather than ad-hoc thresholds:

* **admit** - the requested grant fits the free pool right now.
* **degrade** - the full request does not fit, but a smaller grant does.
  Degradation sheds, in order: the *incoming* job's cache blocks
  ("victims lose cache before anyone loses correctness" - in-flight
  jobs are never touched, which is what keeps every admitted job
  bit-identical to its solo run), then working memory, re-costed at
  each step against the Arge-Thorup merge-depth bound
  (:func:`~repro.analysis.bounds.arge_thorup_merge_depth`): the grant
  may shrink only while the predicted merge depth stays within
  ``max_extra_depth`` levels of the full-request depth.
* **queue** - no acceptable grant fits *now*, but one would fit an idle
  pool; wait for leases to release.
* **reject** - even an idle pool could never run the job acceptably:
  the floor grant exceeds the pool, or it sits below the engine's hard
  ``MINIMUM_NEXSORT_BLOCKS`` minimum.  Refusal past a provable boundary
  follows the Grohe-Koch-Schweikardt lower-bound argument: below the
  boundary extra passes are *forced*, so running the job degraded would
  not serve the tenant, just burn shared disk time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.advisor import BASE_ELEMENT_BYTES, DocumentProfile
from ..analysis.bounds import ModelGeometry, arge_thorup_merge_depth
from ..analysis.planner import Planner
from ..generators.level_fanout import level_fanout_element_count
from ..io.budget import MINIMUM_NEXSORT_BLOCKS
from ..plan import PlanConfig
from .workload import JobSpec

#: Baseline merge sort's hard minimum (2 I/O buffers + 1 formation block).
_MERGESORT_FLOOR = 3


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one job.

    Attributes:
        action: "admit", "degrade", "queue", or "reject".
        memory_blocks / cache_blocks: the effective grant ("admit" and
            "degrade" only; the request's own numbers otherwise).
        reason: one-line human explanation.
        merge_depth: Arge-Thorup merge-depth bound at the effective
            grant (0 = the job sorts in one formation pass).
        plan: re-planned knobs for a degraded grant (planner-enabled
            controllers only); None means run with the service defaults.
    """

    action: str
    memory_blocks: int
    cache_blocks: int
    reason: str
    merge_depth: int = 0
    plan: PlanConfig | None = None

    @property
    def admitted(self) -> bool:
        return self.action in ("admit", "degrade")


class AdmissionController:
    """Cost-bound-guided admission over one :class:`ResourcePool`.

    Args:
        pool: the shared resource pool leases are carved from.
        degrade: allow shrunken grants (False = admit-or-queue only).
        max_extra_depth: how many extra Arge-Thorup merge-tree levels a
            degraded grant may cost the job relative to its full
            request.  0 (default) shrinks memory only while provably
            free; raising it trades tenant latency for throughput.
        plan: re-plan a degraded job's knobs with the cost-based
            :class:`~repro.analysis.planner.Planner` instead of only
            shedding cache/memory; the chosen :class:`PlanConfig` rides
            on the decision for the scheduler to apply.
    """

    def __init__(
        self,
        pool,
        degrade: bool = True,
        max_extra_depth: int = 0,
        plan: bool = False,
    ):
        self.pool = pool
        self.degrade = degrade
        self.max_extra_depth = max_extra_depth
        self.plan = plan

    # -- geometry ---------------------------------------------------------

    def _geometry(self, job: JobSpec, memory_blocks: int) -> ModelGeometry:
        """Model geometry of the job at a hypothetical grant.

        Elements per block comes from the generator shape (the exact
        element count is a pure function of the fanouts) and the
        document's approximate encoded element size; admission runs
        before any bytes are staged, so this is an estimate - fine,
        because it feeds relative comparisons between grants of the
        *same* job, not cross-job accounting.
        """
        elements = level_fanout_element_count(list(job.fanouts))
        approx_bytes = BASE_ELEMENT_BYTES + (job.pad_bytes or 0)
        per_block = max(1, self.pool.block_size // approx_bytes)
        return ModelGeometry(
            N=elements,
            B=per_block,
            M=max(1, memory_blocks) * per_block,
            k=max(1, max(job.fanouts)),
        )

    def _floor_blocks(self, job: JobSpec) -> int:
        if job.algorithm == "nexsort":
            return MINIMUM_NEXSORT_BLOCKS
        return _MERGESORT_FLOOR

    def _depth(self, job: JobSpec, memory_blocks: int) -> int:
        g = self._geometry(job, memory_blocks)
        return arge_thorup_merge_depth(g.N, g.B, g.M)

    def arge_thorup_floor(self, job: JobSpec) -> int:
        """Smallest acceptable degraded grant for ``job``.

        The smallest block count whose Arge-Thorup merge depth stays
        within ``max_extra_depth`` of the depth at the job's *working*
        request (its memory net of cache - cache blocks are not sort
        memory, so costing the baseline at the cache-inflated request
        would compare grants against a depth the sorter never sees).
        Never below the engine's hard minimum.  Depth is non-increasing
        in the grant, so a binary search finds the boundary exactly.
        """
        floor = self._floor_blocks(job)
        working = max(floor, job.memory_blocks - job.cache_blocks)
        base_depth = self._depth(job, working)
        low, high = floor, working
        while low < high:
            mid = (low + high) // 2
            if self._depth(job, mid) - base_depth <= self.max_extra_depth:
                high = mid
            else:
                low = mid + 1
        return low

    def _replan(self, job: JobSpec, grant: int) -> PlanConfig | None:
        """Planner-chosen knobs for a degraded grant (opt-in).

        The algorithm and threshold stay the job's own (they change the
        output-identity contract a tenant verified against); the planner
        re-splits cache vs. working memory and picks the merge knobs for
        the shrunken grant.
        """
        if not self.plan:
            return None
        profile = DocumentProfile.from_fanouts(
            job.fanouts,
            pad_bytes=job.pad_bytes or 0,
            block_size=self.pool.block_size,
        )
        planner = Planner(
            profile,
            memory_blocks=grant,
            block_size=self.pool.block_size,
            disks=self.pool.disks,
            cost_model=self.pool.cost_model,
        )
        algorithm = (
            "merge_sort" if job.algorithm != "nexsort" else "nexsort"
        )
        plan = planner.choose(fixed={
            "algorithm": algorithm,
            "memory_blocks": grant,
            "threshold_bytes": None,
            "flat_optimization": False,
            "disks": 1,
            "prefetch_depth": 0,
        })
        return plan.config

    # -- the verdict ------------------------------------------------------

    def decide(self, job: JobSpec) -> AdmissionDecision:
        """Judge ``job`` against the pool's current free memory."""
        free = self.pool.available_blocks
        total = self.pool.total_blocks
        requested = job.memory_blocks
        floor = self._floor_blocks(job)

        if requested < floor + job.cache_blocks:
            return AdmissionDecision(
                action="reject",
                memory_blocks=requested,
                cache_blocks=job.cache_blocks,
                reason=(
                    f"request of {requested} blocks is below the "
                    f"algorithm's {floor}-block minimum plus "
                    f"{job.cache_blocks} cache blocks"
                ),
            )
        if floor > total:
            return AdmissionDecision(
                action="reject",
                memory_blocks=requested,
                cache_blocks=job.cache_blocks,
                reason=(
                    f"even the degraded floor of {floor} blocks exceeds "
                    f"the pool's {total}; extra passes would be forced "
                    f"below it (lower-bound boundary), so the job is "
                    f"refused rather than run degraded"
                ),
            )

        if requested <= free:
            return AdmissionDecision(
                action="admit",
                memory_blocks=requested,
                cache_blocks=job.cache_blocks,
                reason=f"{requested} blocks fit the {free} free",
                merge_depth=self._depth(job, requested),
            )

        if self.degrade and free >= floor:
            # Shed the incoming job's cache first, then working memory -
            # but never below the Arge-Thorup floor: the smallest grant
            # whose merge depth stays within max_extra_depth of the
            # job's working request.  A pool too drained to clear the
            # floor queues the job instead of running it degraded below
            # the lower bound.
            working = max(floor, requested - job.cache_blocks)
            base_depth = self._depth(job, working)
            at_floor = self.arge_thorup_floor(job)
            grant = min(working, free)
            if grant >= at_floor:
                depth = self._depth(job, grant)
                plan = self._replan(job, grant)
                dropped_cache = job.cache_blocks
                shed_memory = working - grant
                reason = (
                    f"degraded: shed {dropped_cache} cache + "
                    f"{shed_memory} working blocks; merge depth "
                    f"{base_depth} -> {depth} stays within "
                    f"+{self.max_extra_depth} of the full grant "
                    f"(Arge-Thorup floor {at_floor})"
                )
                if plan is not None:
                    reason += (
                        f"; re-planned: cache={plan.cache_blocks} "
                        f"formation={plan.run_formation} "
                        f"kernel={plan.merge_kernel}"
                    )
                return AdmissionDecision(
                    action="degrade",
                    memory_blocks=grant,
                    cache_blocks=(
                        plan.cache_blocks if plan is not None else 0
                    ),
                    reason=reason,
                    merge_depth=depth,
                    plan=plan,
                )

        if requested <= total or (self.degrade and floor <= total):
            return AdmissionDecision(
                action="queue",
                memory_blocks=requested,
                cache_blocks=job.cache_blocks,
                reason=(
                    f"{requested} blocks do not fit the {free} free now; "
                    f"an idle pool could serve the job, so it waits"
                ),
                merge_depth=self._depth(job, requested),
            )

        return AdmissionDecision(
            action="reject",
            memory_blocks=requested,
            cache_blocks=job.cache_blocks,
            reason=(
                f"{requested} blocks exceed the pool's {total} and "
                f"degradation is disabled"
            ),
        )
