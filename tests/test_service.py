"""Service-layer tests: workload parsing, scheduling, admission, chaos.

Everything the multi-tenant layer promises is pinned here at CI scale:
deterministic Poisson workloads, fair and strict-priority interleaving
over shared disks, per-tenant counter isolation that tiles exactly to
the pool totals, admission verdicts grounded in the cost bounds, and
the headline guarantee - a scheduled job is bit-identical (output
digest, counters, phase breakdown) to the same job run alone, fault
plans included.
"""

import pytest

from repro.errors import ServiceError
from repro.io.lease import ResourcePool
from repro.service import (
    AdmissionController,
    JobSpec,
    Scheduler,
    WorkloadSpec,
    parse_workload,
    percentile,
    run_solo,
)

BLOCK_SIZE = 512


def make_pool(blocks=64, disks=4):
    return ResourcePool(blocks, block_size=BLOCK_SIZE, disks=disks)


def schedule(workload, policy="fair", blocks=64, disks=4, **kwargs):
    pool = make_pool(blocks, disks)
    scheduler = Scheduler(pool, policy=policy, **kwargs)
    report = scheduler.run(parse_workload(workload))
    return report


class TestWorkloadParsing:
    def test_full_spec(self):
        spec = WorkloadSpec.parse(
            "jobs=8;rate=2.0;seed=7;shape=4x4x4;memory=24;cache=4;"
            "algorithm=mergesort;priority=0-3;pad=16"
        )
        assert spec.job_count == 8
        assert spec.rate == 2.0
        assert spec.shape == (4, 4, 4)
        assert spec.algorithm == "mergesort"
        assert spec.priority_range == (0, 3)
        assert spec.pad_bytes == 16

    def test_jobs_are_deterministic(self):
        text = "jobs=5;rate=3.0;seed=9;priority=0-5"
        assert parse_workload(text) == parse_workload(text)

    def test_rate_zero_means_burst_at_t0(self):
        jobs = parse_workload("jobs=3")
        assert [job.arrival for job in jobs] == [0.0, 0.0, 0.0]

    def test_arrivals_are_nondecreasing(self):
        jobs = parse_workload("jobs=6;rate=4.0;seed=1")
        arrivals = [job.arrival for job in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    @pytest.mark.parametrize(
        "bad",
        [
            "jobs",  # no '='
            "jobs=zero",
            "jobs=0",
            "rate=-1",
            "shape=4x0",
            "algorithm=quicksort",
            "priority=3-1",
            "tenancy=9",  # unknown key
        ],
    )
    def test_bad_clauses_raise(self, bad):
        with pytest.raises(ServiceError):
            parse_workload(bad)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile([], 0.5) == 0.0


class TestScheduling:
    WORKLOAD = "jobs=6;rate=3.0;seed=7;shape=4x4x4;memory=16;cache=2"

    def test_all_jobs_complete_and_tile(self):
        report = schedule(self.WORKLOAD)
        assert len(report.completed) == 6
        report.verify_isolation()
        assert report.isolation_errors() == []
        assert report.makespan_seconds > 0
        assert report.throughput_jobs_per_second > 0

    def test_deterministic_schedule(self):
        first = schedule(self.WORKLOAD)
        second = schedule(self.WORKLOAD)
        assert [r.completed_seconds for r in first.results] == (
            [r.completed_seconds for r in second.results]
        )
        assert [r.digest for r in first.results] == (
            [r.digest for r in second.results]
        )

    def test_scheduled_matches_solo_bit_for_bit(self):
        report = schedule(self.WORKLOAD)
        for result in report.completed:
            solo = run_solo(
                result.spec,
                memory_blocks=result.decision.memory_blocks,
                cache_blocks=result.decision.cache_blocks,
                block_size=BLOCK_SIZE,
            )
            assert result.digest == solo.digest
            assert result.counters == solo.counters
            assert result.phases == solo.phases

    def test_sharing_disks_beats_serial(self):
        # A burst at t=0 so the makespan has no arrival gaps in it:
        # overlapping I/O across 4 disks must beat back-to-back runs.
        report = schedule(
            "jobs=6;shape=4x4x4;memory=16;cache=2;seed=7", disks=4
        )
        serial = sum(r.service_seconds for r in report.completed)
        assert report.makespan_seconds < serial

    def test_priority_jumps_the_queue(self):
        # Two coexisting priority classes in one burst: strict priority
        # must complete every high-priority job before any low one.
        workload = (
            "jobs=4;seed=3;shape=4x4x4;memory=16;priority=0-1"
        )
        report = schedule(workload, policy="priority", blocks=80)
        done = {
            r.spec.tenant: r.completed_seconds for r in report.completed
        }
        jobs = parse_workload(workload)
        highs = [done[j.tenant] for j in jobs if j.priority == 1]
        lows = [done[j.tenant] for j in jobs if j.priority == 0]
        assert highs and lows  # seed 3 draws both classes
        assert max(highs) <= min(lows)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError, match="policy"):
            Scheduler(make_pool(), policy="lottery")


class TestAdmission:
    def job(self, memory=16, cache=0, algorithm="nexsort"):
        return JobSpec(
            tenant="t", arrival=0.0, algorithm=algorithm,
            fanouts=(4, 4, 4), memory_blocks=memory, cache_blocks=cache,
        )

    def test_admit_when_it_fits(self):
        controller = AdmissionController(make_pool(32))
        decision = controller.decide(self.job(memory=16))
        assert decision.action == "admit"
        assert decision.memory_blocks == 16

    def test_degrade_sheds_cache_first(self):
        pool = make_pool(32)
        pool.lease(20, tenant="incumbent")
        controller = AdmissionController(pool)
        decision = controller.decide(self.job(memory=16, cache=6))
        assert decision.action == "degrade"
        assert decision.cache_blocks == 0
        assert decision.memory_blocks == 10
        assert "cache" in decision.reason

    def test_degraded_grant_never_below_arge_thorup_floor(self):
        # Pool-draining regression: as incumbents eat the pool one
        # block at a time, every degraded grant must stay at or above
        # the Arge-Thorup floor - the old code degraded to whatever
        # was free, landing jobs below the provable-extra-pass
        # boundary it was supposed to refuse.
        job = self.job(memory=24, cache=4)
        for leased in range(1, 32):
            pool = make_pool(32)
            pool.lease(leased, tenant="incumbent")
            controller = AdmissionController(pool)
            floor = controller.arge_thorup_floor(job)
            decision = controller.decide(job)
            if decision.action == "degrade":
                assert decision.memory_blocks >= floor, (
                    f"leased={leased}: granted "
                    f"{decision.memory_blocks} < floor {floor}"
                )
            elif pool.available_blocks < floor:
                # Too drained to clear the floor: must wait, not run.
                assert decision.action == "queue"

    def test_drained_pool_queues_instead_of_degrading(self):
        job = self.job(memory=24, cache=4)
        pool = make_pool(32)
        controller = AdmissionController(pool)
        floor = controller.arge_thorup_floor(job)
        pool.lease(32 - floor + 1, tenant="incumbent")
        decision = controller.decide(job)
        assert decision.action == "queue"

    def test_degraded_grant_replans_its_knobs(self):
        pool = make_pool(32)
        pool.lease(20, tenant="incumbent")
        controller = AdmissionController(pool, plan=True)
        decision = controller.decide(self.job(memory=16, cache=6))
        assert decision.action == "degrade"
        assert decision.plan is not None
        assert decision.plan.algorithm == "nexsort"
        assert decision.plan.memory_blocks == decision.memory_blocks
        assert decision.cache_blocks == decision.plan.cache_blocks
        assert (
            decision.plan.working_blocks
            >= controller._floor_blocks(self.job())
        )
        assert "re-planned" in decision.reason

    def test_planless_controller_attaches_no_plan(self):
        pool = make_pool(32)
        pool.lease(20, tenant="incumbent")
        controller = AdmissionController(pool)
        decision = controller.decide(self.job(memory=16, cache=6))
        assert decision.action == "degrade"
        assert decision.plan is None

    def test_queue_when_nothing_fits_now(self):
        pool = make_pool(32)
        pool.lease(28, tenant="incumbent")
        controller = AdmissionController(pool)
        decision = controller.decide(self.job(memory=16))
        assert decision.action == "queue"

    def test_reject_below_the_floor(self):
        controller = AdmissionController(make_pool(32))
        decision = controller.decide(self.job(memory=4))
        assert decision.action == "reject"
        assert "minimum" in decision.reason

    def test_reject_when_the_pool_can_never_fit(self):
        controller = AdmissionController(make_pool(4), degrade=False)
        decision = controller.decide(self.job(memory=16))
        assert decision.action == "reject"

    def test_degradation_can_be_disabled(self):
        pool = make_pool(32)
        pool.lease(20, tenant="incumbent")
        controller = AdmissionController(pool, degrade=False)
        decision = controller.decide(self.job(memory=16, cache=6))
        assert decision.action == "queue"

    def test_all_rejected_still_tiles(self):
        # memory=4 is below nexsort's 6-block floor: both jobs are
        # refused, nothing runs, and empty tenant totals tile to the
        # pool's zeros instead of tripping the isolation check.
        report = schedule("jobs=2;memory=4", blocks=32)
        assert not report.completed
        assert len(report.rejected) == 2
        report.verify_isolation()

    def test_queued_jobs_run_after_release(self):
        # Pool fits one 16-block job at a time; both must complete.
        report = schedule(
            "jobs=2;shape=4x4x4;memory=16", blocks=16, disks=1
        )
        assert len(report.completed) == 2
        queued = [
            r for r in report.results if r.queue_seconds and
            r.queue_seconds > 0
        ]
        assert queued  # the second job waited for the first's lease


class TestChaos:
    WORKLOAD = "jobs=4;rate=2.0;seed=5;shape=4x4x4;memory=16"
    PLAN = "rate=0.02;seed=9"

    def test_chaos_run_is_bit_identical_to_solo(self):
        report = schedule(
            self.WORKLOAD, fault_plan=self.PLAN, retries=2
        )
        assert len(report.completed) == 4
        report.verify_isolation()
        assert report.pool_totals["penalty_seconds"] > 0
        for result in report.completed:
            solo = run_solo(
                result.spec,
                memory_blocks=result.decision.memory_blocks,
                cache_blocks=result.decision.cache_blocks,
                block_size=BLOCK_SIZE,
                fault_plan=self.PLAN,
                retries=2,
            )
            assert result.digest == solo.digest
            assert result.counters == solo.counters
