"""Deterministic event-loop scheduler: many sort jobs, one machine.

The service runs jobs in **simulated time**, like everything else in
this repository, and the scheme resolves the central tension of
multi-tenancy - sharing the disks without perturbing any tenant's
counters - in two phases per job:

1. **Execute on the lease.**  At admission the job runs to completion on
   its private :class:`~repro.io.lease.ResourceLease`: document staged
   onto the lease's store, then NEXSORT or the merge-sort baseline with
   the lease's budget, tracer, and (for chaos runs) fault plan.  The
   lease's private device guarantees output, counters, comparisons, and
   traces bit-identical to a solo run at the same grant, and its
   :class:`~repro.io.lease.TeeIOStats` records the job's cost **event
   list** - one ``(io, seconds)`` entry per block access in charge
   order, CPU charges coalesced between them.
2. **Replay over the shared disks.**  The scheduler then interleaves
   the event lists of all concurrent jobs over one
   :class:`~repro.io.parallel.DiskTimeline` of ``D`` disks, one event
   per scheduling decision - block-granular interleaving.  An I/O event
   starts at ``max(job clock, disk free-at)`` on the least-loaded disk;
   CPU advances only the job's clock.  The *fair* policy always advances
   the job with the smallest clock (processor sharing at block grain);
   *priority* strictly prefers higher-priority jobs, so their events
   claim disks first and low-priority jobs see the queueing delay.

Within one job the replay is serial (its clock passes through every
event), so a job running alone finishes in exactly its lease's
``elapsed_seconds`` regardless of ``D`` - and the serial back-to-back
baseline equals the sum of solo times, which is what the ``>= 2x``
throughput claim in ``BENCH_service.json`` is measured against.

Arrivals come from :mod:`repro.service.workload`; verdicts from
:mod:`repro.service.admission`.  Queued jobs re-enter admission when a
completion releases memory, at the completing job's clock - so the whole
schedule is a deterministic function of (workload, policy, pool).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..analysis.advisor import nearest_rank_percentile
from ..errors import ServiceError
from ..io.compress import decode_document_wire, encode_document_wire
from ..io.lease import ResourceLease, ResourcePool
from ..io.parallel import DiskTimeline
from ..keys import ByAttribute, SortSpec
from ..plan import PlanConfig, run_plan
from ..xml.document import Document
from .admission import AdmissionController, AdmissionDecision
from .workload import JobSpec

POLICIES = ("fair", "priority")

#: The service's ordering criterion (the benchmark standard).
SERVICE_SPEC = SortSpec(default=ByAttribute("name"))


def output_digest(document) -> str:
    """Stable digest of a sorted document's serialized text, hashed a
    chunk at a time."""
    digest = hashlib.sha256()
    for chunk in document.text_chunks():
        digest.update(chunk.encode())
    return digest.hexdigest()


@dataclass
class JobResult:
    """Everything the service knows about one job after the run."""

    spec: JobSpec
    decision: AdmissionDecision
    admitted_seconds: float | None = None
    completed_seconds: float | None = None
    digest: str | None = None
    counters: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    service_seconds: float = 0.0
    wire_bytes: int | None = None
    wire_raw_bytes: int | None = None
    trace: object | None = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        return self.completed_seconds is not None

    @property
    def latency_seconds(self) -> float | None:
        """Arrival-to-completion time in simulated seconds."""
        if self.completed_seconds is None:
            return None
        return self.completed_seconds - self.spec.arrival

    @property
    def queue_seconds(self) -> float | None:
        if self.admitted_seconds is None:
            return None
        return self.admitted_seconds - self.spec.arrival


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (fraction in [0, 1]).

    Delegates to the one nearest-rank implementation shared with the
    document profiler (:mod:`repro.analysis.advisor`).
    """
    return nearest_rank_percentile(sorted(values), fraction)


@dataclass
class ServiceReport:
    """The outcome of one scheduled workload."""

    policy: str
    disks: int
    results: list[JobResult]
    makespan_seconds: float
    pool_totals: dict
    tenant_totals: dict

    @property
    def completed(self) -> list[JobResult]:
        return [r for r in self.results if r.completed]

    @property
    def rejected(self) -> list[JobResult]:
        return [r for r in self.results if r.decision.action == "reject"]

    @property
    def throughput_jobs_per_second(self) -> float:
        done = len(self.completed)
        if not done or self.makespan_seconds <= 0:
            return 0.0
        return done / self.makespan_seconds

    def latency_percentiles(self) -> dict[str, float]:
        latencies = [
            r.latency_seconds for r in self.completed
            if r.latency_seconds is not None
        ]
        return {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        }

    def isolation_errors(self) -> list[str]:
        """Per-tenant counters must tile exactly to the pool's globals."""
        errors = []
        keys = set(self.pool_totals) | set(self.tenant_totals)
        for key in sorted(keys):
            have = self.tenant_totals.get(key)
            want = self.pool_totals.get(key)
            if isinstance(have, float) or isinstance(want, float):
                ok = abs((have or 0.0) - (want or 0.0)) < 1e-9
            else:
                # A side with no tenants at all reports nothing; that
                # tiles to a zero total, not to a mismatch.
                ok = (have or 0) == (want or 0)
            if not ok:
                errors.append(
                    f"{key}: tenants sum to {have!r}, pool recorded {want!r}"
                )
        return errors

    def verify_isolation(self) -> None:
        errors = self.isolation_errors()
        if errors:
            raise ServiceError(
                "per-tenant counters do not tile to the pool totals: "
                + "; ".join(errors)
            )

    def summary(self) -> dict:
        """JSON-ready summary (the benchmark row body)."""
        return {
            "policy": self.policy,
            "disks": self.disks,
            "jobs": len(self.results),
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "degraded": sum(
                1 for r in self.results if r.decision.action == "degrade"
            ),
            "makespan_seconds": self.makespan_seconds,
            "throughput_jobs_per_second": self.throughput_jobs_per_second,
            **{
                f"latency_{name}_seconds": value
                for name, value in self.latency_percentiles().items()
            },
        }


class _ActiveJob:
    """Replay cursor of one admitted job."""

    __slots__ = (
        "result", "events", "cursor", "clock", "order", "priority",
    )

    def __init__(self, result: JobResult, events, clock: float, order: int):
        self.result = result
        self.events = events
        self.cursor = 0
        self.clock = clock
        self.order = order
        self.priority = result.spec.priority

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.events)


class Scheduler:
    """Admit, execute, and interleave a workload over one resource pool.

    Args:
        pool: shared :class:`ResourcePool` (memory ledger + D disks).
        policy: "fair" (min-clock processor sharing) or "priority"
            (strict: higher ``JobSpec.priority`` first).
        admission: controller; defaults to a degrading
            :class:`AdmissionController` over ``pool``.
        config: the knobs applied to every job (the algorithm, grant
            and cache split are each job's own); a planner-enabled
            admission decision replaces it for its job.
        fault_plan / retries: chaos configuration applied to every
            job's lease (per-tenant injection - each tenant's fault
            sequence depends only on its own access stream).
        keep_traces: finish and retain each tenant's Trace object
            (``results[i].phases``); disable for large fleets.
    """

    def __init__(
        self,
        pool: ResourcePool,
        policy: str = "fair",
        admission: AdmissionController | None = None,
        config: PlanConfig | None = None,
        fault_plan=None,
        retries: int = 0,
        keep_traces: bool = True,
    ):
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown scheduling policy {policy!r} "
                f"(expected one of {POLICIES})"
            )
        self.pool = pool
        self.policy = policy
        self.admission = admission or AdmissionController(pool)
        self.config = config or PlanConfig()
        self.fault_plan = fault_plan
        self.retries = retries
        self.keep_traces = keep_traces
        self.timeline = DiskTimeline(pool.disks)
        self.traces: dict[str, object] = {}

    # -- one job, for real, on its lease ---------------------------------

    def _execute(self, result: JobResult) -> ResourceLease:
        """Run the job to completion on a fresh lease; fill in ``result``."""
        spec = result.spec
        decision = result.decision
        lease = self.pool.lease(
            decision.memory_blocks,
            tenant=spec.tenant,
            fault_plan=self.fault_plan,
            retries=self.retries,
            trace=self.keep_traces,
        )
        document = self._stage(result, lease)
        # The algorithm is the job's own; the grant and the knobs are the
        # decision's (a planner-enabled admission re-plans them for this
        # job only), else the service-wide config's.
        config = replace(
            decision.plan or self.config,
            algorithm=(
                "nexsort" if spec.algorithm == "nexsort" else "merge_sort"
            ),
            memory_blocks=decision.memory_blocks,
            cache_blocks=decision.cache_blocks,
        )
        output, _report = run_plan(
            document, SERVICE_SPEC, config, tracer=lease.tracer, lease=lease
        )
        result.digest = output_digest(output)
        snapshot = lease.snapshot()
        result.counters = snapshot.counter_totals()
        result.service_seconds = snapshot.elapsed_seconds()
        if lease.tracer is not None:
            trace = lease.tracer.finish()
            result.phases = trace.phase_breakdown()
            result.trace = trace
            self.traces[spec.tenant] = trace
        return lease

    def _stage(self, result: JobResult, lease: ResourceLease):
        """Stage the job's input document onto the lease's store.

        Plain jobs hand their event stream straight to
        :meth:`Document.from_events`.  Wire jobs (``spec.wire``) travel
        as a compact container-codec blob: the scheduler encodes the
        submission (standing in for the tenant's client), decodes it on
        ingest, and charges the decode CPU against the lease so the
        smaller footprint is honestly paid for.  The decoded token list
        is exact, so the staged document - and everything downstream:
        digest, comparisons, trace spans - is bit-identical to a plain
        submission of the same job.
        """
        spec = result.spec
        if not spec.wire:
            return Document.from_events(lease.store, spec.events())
        blob = encode_document_wire(spec.events())
        tokens = decode_document_wire(blob)
        document = Document.from_events(lease.store, tokens)
        raw = document.handle.stream_bytes
        lease.store.device.stats.record_decompression(len(blob), raw)
        result.wire_bytes = len(blob)
        result.wire_raw_bytes = raw
        return document

    # -- policy picks ----------------------------------------------------

    def _pick(self, active: list[_ActiveJob]) -> _ActiveJob:
        if self.policy == "priority":
            return min(
                active, key=lambda j: (-j.priority, j.clock, j.order)
            )
        return min(active, key=lambda j: (j.clock, j.order))

    # -- the event loop --------------------------------------------------

    def run(self, jobs: list[JobSpec]) -> ServiceReport:
        """Schedule ``jobs``; returns the full :class:`ServiceReport`."""
        pending = sorted(jobs, key=lambda j: (j.arrival, j.tenant))
        results: list[JobResult] = []
        waiting: list[JobResult] = []
        active: list[_ActiveJob] = []
        leases: dict[str, ResourceLease] = {}
        tenant_sum = None
        order = 0
        completed_at = 0.0

        def admit(result: JobResult, at: float) -> None:
            nonlocal order, tenant_sum
            result.admitted_seconds = at
            lease = self._execute(result)
            leases[result.spec.tenant] = lease
            snapshot = lease.snapshot()
            tenant_sum = (
                snapshot if tenant_sum is None else tenant_sum.plus(snapshot)
            )
            active.append(_ActiveJob(result, lease.events, at, order))
            order += 1

        def try_admission(result: JobResult, at: float) -> bool:
            """Decide now; admit, queue, or reject.  True = admitted."""
            decision = self.admission.decide(result.spec)
            result.decision = decision
            if decision.admitted:
                admit(result, at)
                return True
            if decision.action == "queue":
                waiting.append(result)
            return False

        def drain_waiting(at: float) -> None:
            if self.policy == "priority":
                waiting.sort(
                    key=lambda r: (-r.spec.priority, r.spec.arrival)
                )
            progressed = True
            while progressed:
                progressed = False
                for result in list(waiting):
                    decision = self.admission.decide(result.spec)
                    if decision.admitted:
                        waiting.remove(result)
                        result.decision = decision
                        admit(result, at)
                        progressed = True

        while pending or active or waiting:
            # Admit arrivals that are due: a job is due once simulated
            # time - the smallest active clock, or the arrival itself on
            # an idle service - has reached its arrival instant.
            while pending:
                horizon = (
                    min(j.clock for j in active)
                    if active
                    else max(completed_at, pending[0].arrival)
                )
                if pending[0].arrival > horizon:
                    break
                spec = pending.pop(0)
                result = JobResult(
                    spec=spec,
                    decision=AdmissionDecision(
                        action="queue",
                        memory_blocks=spec.memory_blocks,
                        cache_blocks=spec.cache_blocks,
                        reason="pending",
                    ),
                )
                results.append(result)
                try_admission(result, max(spec.arrival, completed_at))

            if not active:
                if waiting and not pending:
                    # Memory can no longer free up on its own: everything
                    # admitted has completed, so re-admission must succeed
                    # against the idle pool.
                    drain_waiting(completed_at)
                    if not active:
                        stuck = ", ".join(
                            r.spec.tenant for r in waiting
                        )
                        raise ServiceError(
                            f"queued jobs cannot be admitted against an "
                            f"idle pool: {stuck}"
                        )
                    continue
                if pending:
                    continue
                break

            job = self._pick(active)
            kind, seconds = job.events[job.cursor]
            job.cursor += 1
            if kind == "io":
                job.clock = self.timeline.issue(job.clock, seconds)
            else:
                job.clock += seconds

            if job.done:
                active.remove(job)
                job.result.completed_seconds = job.clock
                completed_at = max(completed_at, job.clock)
                lease = leases.pop(job.result.spec.tenant)
                lease.release()
                drain_waiting(job.clock)

        makespan = max(
            (r.completed_seconds for r in results if r.completed),
            default=0.0,
        )
        pool_snapshot = self.pool.stats.snapshot()
        return ServiceReport(
            policy=self.policy,
            disks=self.pool.disks,
            results=results,
            makespan_seconds=makespan,
            pool_totals=pool_snapshot.counter_totals(),
            tenant_totals=(
                tenant_sum.counter_totals() if tenant_sum is not None else {}
            ),
        )


def run_solo(
    spec: JobSpec,
    memory_blocks: int | None = None,
    cache_blocks: int | None = None,
    block_size: int = 4096,
    config: PlanConfig | None = None,
    fault_plan=None,
    retries: int = 0,
) -> JobResult:
    """Run one job alone on a fresh single-tenant pool.

    The golden for bit-identity checks: a scheduled job must match its
    solo run at the same effective grant - digest, counter totals, and
    per-phase trace breakdown, all of it.
    """
    grant = memory_blocks if memory_blocks is not None else spec.memory_blocks
    cache = cache_blocks if cache_blocks is not None else spec.cache_blocks
    pool = ResourcePool(grant, block_size=block_size, disks=1)
    scheduler = Scheduler(
        pool,
        policy="fair",
        config=config,
        fault_plan=fault_plan,
        retries=retries,
    )
    solo_spec = JobSpec(
        tenant=spec.tenant,
        arrival=0.0,
        priority=spec.priority,
        algorithm=spec.algorithm,
        fanouts=spec.fanouts,
        doc_seed=spec.doc_seed,
        memory_blocks=grant,
        cache_blocks=cache,
        pad_bytes=spec.pad_bytes,
        wire=spec.wire,
    )
    report = scheduler.run([solo_spec])
    return report.results[0]
