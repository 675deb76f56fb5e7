"""Tests for deterministic fault injection and checkpointed recovery.

Three layers, tested bottom-up: the :class:`FaultPlan` mini-language and
the attempt-counting :class:`FaultInjector`; the backoff-charging
:class:`RetryingDevice`; and the :class:`RecoveryContext` /
device-recovery-hold machinery that restarts failed units of sort work.
The end-to-end classes pin the headline guarantees: a sort that recovers
(by retry or by restart) produces bit-identical output, and a retry-only
recovery leaves every model counter identical too - the only trace is
``penalty_seconds`` on the simulated clock.
"""

import pytest

from repro.errors import (
    DeviceError,
    DeviceFault,
    FaultPlanError,
    RunError,
    SortRecoveryError,
)
from repro.faults import (
    Checkpoint,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RecoveryContext,
    RetryingDevice,
    RetryPolicy,
    build_faulty_device,
)
from repro.io import BlockDevice, RunStore
from repro.io.file_device import FileBackedBlockDevice
from repro.baselines import external_merge_sort
from repro.core import nexsort
from repro.generators import level_fanout_events
from repro.keys import ByAttribute, SortSpec
from repro.xml.document import Document


def make_device(nblocks=32, block_size=256):
    device = BlockDevice(block_size=block_size)
    start = device.allocate(nblocks)
    for i in range(nblocks):
        device.write_block(start + i, bytes([i]) * 8, "setup")
    return device, start


class TestFaultPlanParse:
    def test_single_clause(self):
        plan = FaultPlan.parse("read@5")
        assert plan.rules == (FaultRule("read", 5),)
        assert plan.rate == 0.0

    def test_count_suffix(self):
        (rule,) = FaultPlan.parse("write@3*4").rules
        assert (rule.op, rule.nth, rule.count) == ("write", 3, 4)

    def test_persistent_suffix(self):
        (rule,) = FaultPlan.parse("read@7:persistent").rules
        assert not rule.transient

    def test_category_scope(self):
        (rule,) = FaultPlan.parse("write@2:run_write").rules
        assert rule.category == "run_write"
        assert rule.transient

    def test_category_and_persistence_combine(self):
        (rule,) = FaultPlan.parse("write@2:run_write:persistent").rules
        assert rule.category == "run_write"
        assert not rule.transient

    def test_torn_clause(self):
        (rule,) = FaultPlan.parse("torn@1").rules
        assert rule.op == "torn"

    def test_rate_and_seed(self):
        plan = FaultPlan.parse("rate=0.01;seed=42")
        assert plan.rate == 0.01
        assert plan.seed == 42
        assert plan.rules == ()

    def test_separators_and_blank_clauses(self):
        plan = FaultPlan.parse("read@1, write@2; ;torn@3")
        assert [r.op for r in plan.rules] == ["read", "write", "torn"]

    def test_describe_roundtrips(self):
        for text in (
            "read@5",
            "write@3*4:persistent",
            "read@2:run_read;torn@1",
            "write@9;rate=0.25;seed=7",
        ):
            plan = FaultPlan.parse(text)
            assert FaultPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize(
        "bad",
        [
            "flush@3",
            "read@",
            "read@0",
            "write@2*0",
            "rate=lots",
            "seed=pi",
            "read@1:a:b",
            "rate=1.0",
        ],
    )
    def test_bad_plans_raise_typed(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_rule_validation(self):
        with pytest.raises(FaultPlanError):
            FaultRule("erase", 1)
        with pytest.raises(FaultPlanError):
            FaultRule("read", 0)
        with pytest.raises(FaultPlanError):
            FaultRule("read", 1, count=0)

    def test_covers_window(self):
        rule = FaultRule("read", 3, count=2)
        assert [rule.covers(n) for n in (2, 3, 4, 5)] == [
            False,
            True,
            True,
            False,
        ]

    def test_covers_persistent_is_open_ended(self):
        rule = FaultRule("read", 3, transient=False)
        assert not rule.covers(2)
        assert rule.covers(3)
        assert rule.covers(1000)


class TestFaultInjector:
    def test_nth_read_faults_once(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("read@2"))
        faulty.read_block(start, "s")
        with pytest.raises(DeviceFault) as info:
            faulty.read_block(start, "s")
        assert info.value.transient
        assert info.value.attempt == 2
        assert info.value.op == "read"
        # The failed attempt consumed index 2; attempt 3 succeeds.
        assert faulty.read_block(start, "s") == bytes([0]) * 8

    def test_failed_attempt_charges_nothing(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("read@1;write@1"))
        before = device.stats.snapshot()
        with pytest.raises(DeviceFault):
            faulty.read_block(start, "s")
        with pytest.raises(DeviceFault):
            faulty.write_block(start, b"x", "s")
        after = device.stats.snapshot().minus(before)
        assert after.total_ios == 0

    def test_category_scoped_counter(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("read@2:hot"))
        # Reads in other categories do not advance the scoped counter.
        faulty.read_block(start, "cold")
        faulty.read_block(start, "cold")
        faulty.read_block(start, "hot")
        with pytest.raises(DeviceFault) as info:
            faulty.read_block(start, "hot")
        assert info.value.category == "hot"
        assert info.value.attempt == 2

    def test_vectored_access_advances_by_block_count(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("read@3"))
        with pytest.raises(DeviceFault) as info:
            faulty.read_blocks([start, start + 1, start + 2], "s")
        assert info.value.attempt == 3
        # All three indices were consumed: the next single read is
        # attempt 4 and succeeds.
        assert faulty.read_block(start, "s")

    def test_persistent_faults_every_attempt(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("write@2:persistent"))
        faulty.write_block(start, b"a", "s")
        for _ in range(3):
            with pytest.raises(DeviceFault) as info:
                faulty.write_block(start, b"b", "s")
            assert not info.value.transient

    def test_torn_write_persists_prefix_uncounted(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("torn@1"))
        ids = [start, start + 1, start + 2, start + 3]
        before = device.stats.snapshot()
        with pytest.raises(DeviceFault) as info:
            faulty.write_blocks(ids, [b"a", b"b", b"c", b"d"], "s")
        assert info.value.torn
        # Half the blocks were persisted raw - visible, but never charged.
        assert device.stats.snapshot().minus(before).total_ios == 0
        assert device._blocks[start] == b"a"
        assert device._blocks[start + 1] == b"b"
        assert device._blocks[start + 2] == bytes([2]) * 8
        # The retried write is charged once, in full, like any other.
        faulty.write_blocks(ids, [b"a", b"b", b"c", b"d"], "s")
        assert device.stats.total_writes - before.total_writes == 4

    def test_torn_counter_ignores_single_block_writes(self):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse("torn@1"))
        faulty.write_block(start, b"x", "s")
        faulty.write_blocks([start + 1], [b"y"], "s")
        # Only a 2+ block vectored write is a torn candidate.
        with pytest.raises(DeviceFault):
            faulty.write_blocks([start + 2, start + 3], [b"a", b"b"], "s")

    def test_rate_faults_are_seed_deterministic(self):
        def fault_pattern(seed):
            device, start = make_device()
            faulty = FaultInjector(
                device, FaultPlan(rate=0.3, seed=seed)
            )
            pattern = []
            for _ in range(40):
                try:
                    faulty.read_block(start, "s")
                    pattern.append(False)
                except DeviceFault:
                    pattern.append(True)
            return pattern

        assert fault_pattern(7) == fault_pattern(7)
        assert any(fault_pattern(7))
        assert fault_pattern(7) != fault_pattern(8)

    def test_fault_stats_tally(self):
        device, start = make_device()
        faulty = FaultInjector(
            device, FaultPlan.parse("read@1;write@1:persistent;torn@1")
        )
        for fn in (
            lambda: faulty.read_block(start, "s"),
            lambda: faulty.write_block(start, b"x", "s"),
            lambda: faulty.write_blocks(
                [start, start + 1], [b"a", b"b"], "s"
            ),
        ):
            with pytest.raises(DeviceFault):
                fn()
        stats = faulty.fault_stats
        assert stats.injected == 3
        assert stats.transient == 2
        assert stats.persistent == 1
        assert stats.torn == 1
        assert stats.by_op == {"read": 1, "write": 1, "torn": 1}

    def test_mixed_single_and_vectored_attempt_numbering(self):
        # A k-block call advances its op counter by k; a single-block
        # call advances it by one and never tears.
        device, start = make_device(block_size=64)
        faulty = FaultInjector(
            device, FaultPlan.parse("read@3;write@2*2;torn@1")
        )
        pair = [start + 2, start + 3]
        script = [
            lambda: faulty.read_blocks([start, start + 1], "r"),
            lambda: faulty.read_block(start + 2, "r"),
            lambda: faulty.read_block(start + 2, "r"),
            lambda: faulty.write_block(start, b"a", "w"),
            lambda: faulty.write_block(start + 1, b"b", "w"),
            lambda: faulty.write_blocks(pair, [b"c", b"d"], "w"),
            lambda: faulty.write_blocks(pair, [b"c", b"d"], "w"),
            lambda: faulty.write_block_behind(start + 4, b"e", "w"),
            lambda: faulty.write_blocks(pair, [b"c", b"d"], "w"),
        ]
        raised = []
        for step, call in enumerate(script):
            try:
                call()
            except DeviceFault as fault:
                raised.append((step, fault.op, fault.attempt))
        assert raised == [
            (1, "read", 3),
            (4, "write", 2),
            (5, "torn", 1),
            (6, "write", 3),
        ]
        assert device.stats.summary()["w"]["writes"] == 4


class TestRetryPolicy:
    def test_exponential_delays(self):
        policy = RetryPolicy(backoff_seconds=0.01, multiplier=2.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultPlanError):
            RetryPolicy(backoff_seconds=-0.5)


class TestRetryingDevice:
    def stack(self, plan, policy=None):
        device, start = make_device()
        faulty = FaultInjector(device, FaultPlan.parse(plan))
        return device, start, RetryingDevice(faulty, policy)

    def test_transient_fault_absorbed_and_charged_once(self):
        device, start, retrier = self.stack("read@1")
        before = device.stats.snapshot()
        assert retrier.read_block(start, "s") == bytes([0]) * 8
        after = device.stats.snapshot().minus(before)
        assert after.total_reads == 1
        assert retrier.retry_stats.retries == 1
        assert device.stats.penalty_seconds == pytest.approx(
            retrier.policy.delay(0)
        )

    def test_backoff_escalates_per_retry(self):
        policy = RetryPolicy(max_retries=3, backoff_seconds=0.01)
        device, start, retrier = self.stack("read@1*3", policy)
        retrier.read_block(start, "s")
        assert retrier.retry_stats.retries == 3
        assert retrier.retry_stats.penalty_seconds == pytest.approx(
            0.01 + 0.02 + 0.04
        )

    def test_exhausted_retries_reraise(self):
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.01)
        device, start, retrier = self.stack("read@1*5", policy)
        with pytest.raises(DeviceFault):
            retrier.read_block(start, "s")
        assert retrier.retry_stats.exhausted == 1
        assert retrier.retry_stats.retries == 2
        # The failed access never charged a read.
        assert device.stats.total_reads == 0

    def test_persistent_fault_not_retried(self):
        device, start, retrier = self.stack("write@1:persistent")
        with pytest.raises(DeviceFault):
            retrier.write_block(start, b"x", "s")
        assert retrier.retry_stats.retries == 0
        assert device.stats.penalty_seconds == 0.0

    def test_penalty_is_simulated_clock_only(self):
        device, start, retrier = self.stack("read@1")
        retrier.read_block(start, "s")
        snapshot = device.stats.snapshot()
        # Backoff shows on the wall (elapsed) clock but never in the
        # counter-derived model time the trace diff compares.
        assert snapshot.elapsed_seconds() > snapshot.model_seconds()
        totals = snapshot.counter_totals()
        assert totals["penalty_seconds"] > 0
        assert totals["seconds"] == pytest.approx(snapshot.model_seconds())

    def test_vectored_paths_retry_too(self):
        device, start, retrier = self.stack("read@2;write@2")
        assert retrier.read_blocks([start, start + 1], "s") == [
            bytes([0]) * 8,
            bytes([1]) * 8,
        ]
        retrier.write_blocks([start, start + 1], [b"a", b"b"], "s")
        assert retrier.retry_stats.retries == 2
        assert device.read_block(start) == b"a"


class TestRecoveryHolds:
    def test_freed_blocks_restorable(self):
        device, start = make_device()
        device.push_hold()
        device.free_blocks([start])
        with pytest.raises(DeviceError):
            device.read_block(start)
        device.pop_hold(restore=True)
        assert device.read_block(start) == bytes([0]) * 8

    def test_commit_drops_for_good(self):
        device, start = make_device()
        device.push_hold()
        device.free_blocks([start])
        device.pop_hold(restore=False)
        with pytest.raises(DeviceError):
            device.read_block(start)

    def test_holds_nest(self):
        device, start = make_device()
        device.push_hold()
        device.free_blocks([start])
        device.push_hold()
        device.free_blocks([start + 1])
        # Inner commit: start+1 is gone for good...
        device.pop_hold(restore=False)
        # ...but the outer restore still brings start back.
        device.pop_hold(restore=True)
        assert device.read_block(start) == bytes([0]) * 8
        with pytest.raises(DeviceError):
            device.read_block(start + 1)

    def test_free_accounting_identical_under_hold(self):
        device, start = make_device()
        device.read_block(start, "s")
        device.push_hold()
        before = device.stats.snapshot()
        device.free_blocks([start])
        assert device.stats.snapshot().minus(before).total_ios == 0
        # The category forgot its last access exactly as without a hold:
        # the next read of the freed id starts a fresh (sequential) run.
        device.pop_hold(restore=True)
        assert device.occupied_blocks == 32

    def test_stash_block_restored(self):
        device, start = make_device()
        device.push_hold()
        device.free_blocks([start])
        # A dirty cached copy the device never saw is handed over for
        # safekeeping and wins over the stale freed contents.
        device.stash_block(start, b"dirty-cached")
        device.pop_hold(restore=True)
        assert device.read_block(start) == b"dirty-cached"

    def test_stash_without_hold_is_noop(self):
        device, start = make_device()
        device.stash_block(start, b"ignored")
        assert device.read_block(start) == bytes([0]) * 8

    def test_pop_without_hold_raises(self):
        device, _ = make_device()
        with pytest.raises(DeviceError):
            device.pop_hold(restore=True)

    def test_file_device_holds(self, tmp_path):
        device = FileBackedBlockDevice(
            str(tmp_path / "dev.bin"), block_size=256
        )
        start = device.allocate(4)
        for i in range(4):
            device.write_block(start + i, b"blk%d" % i, "setup")
        device.push_hold()
        device.free_blocks([start, start + 1])
        with pytest.raises(DeviceError):
            device.read_block(start)
        device.pop_hold(restore=True)
        assert device.read_block(start).startswith(b"blk0")
        assert device.read_block(start + 1).startswith(b"blk1")
        device.close()

    def test_file_device_raw_store(self, tmp_path):
        device = FileBackedBlockDevice(
            str(tmp_path / "dev.bin"), block_size=256
        )
        start = device.allocate(1)
        before = device.stats.snapshot()
        device.store_block_raw(start, b"torn-prefix")
        assert device.stats.snapshot().minus(before).total_ios == 0
        assert device.read_block(start).startswith(b"torn-prefix")
        device.close()


class TestRecoveryContext:
    def test_checkpoint_describe(self):
        assert Checkpoint("merge-pass-1", 3).describe() == "merge-pass-1#3"
        assert (
            Checkpoint("run-formation", 0, run_id=9).describe()
            == "run-formation#0 (run 9)"
        )

    def test_describe_last_fallback(self):
        recovery = RecoveryContext()
        assert recovery.describe_last() == "no completed checkpoint"
        recovery.checkpoint("run-formation", 0, run_id=1)
        recovery.checkpoint("merge-pass-1", 0, run_id=2)
        assert recovery.describe_last() == "merge-pass-1#0 (run 2)"

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(FaultPlanError):
            RecoveryContext(max_restarts=-1)

    def test_attempt_restarts_on_transient_fault(self):
        recovery = RecoveryContext()
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) == 1:
                raise DeviceFault("boom", transient=True)
            return "done"

        assert recovery.attempt("phase", 0, flaky) == "done"
        assert recovery.restarts == 1

    def test_attempt_gives_up_after_max_restarts(self):
        recovery = RecoveryContext(max_restarts=2)

        def always():
            raise DeviceFault("boom", transient=True)

        with pytest.raises(SortRecoveryError) as info:
            recovery.attempt("phase", 0, always)
        assert recovery.restarts == 2
        assert "unrecovered transient" in str(info.value)

    def test_persistent_fault_immediately_fatal(self):
        recovery = RecoveryContext()
        recovery.checkpoint("run-formation", 4, run_id=5)

        def always():
            raise DeviceFault("dead", transient=False)

        with pytest.raises(SortRecoveryError) as info:
            recovery.attempt("phase", 0, always)
        assert recovery.restarts == 0
        assert info.value.checkpoint == Checkpoint("run-formation", 4, 5)
        assert "run-formation#4 (run 5)" in str(info.value)

    def test_attempt_restores_held_inputs_for_restart(self):
        device, start = make_device()
        recovery = RecoveryContext()
        tries = []

        def unit():
            tries.append(None)
            # The unit drains and frees its input, then fails on try 1.
            data = device.read_block(start, "s")
            device.free_blocks([start])
            if len(tries) == 1:
                raise DeviceFault("late fault", transient=True)
            return data

        assert recovery.attempt("phase", 0, unit, device=device) == (
            bytes([0]) * 8
        )
        assert len(tries) == 2
        assert not device.holding
        # Success committed the hold: the input is gone for good now.
        with pytest.raises(DeviceError):
            device.read_block(start)

    def test_attempt_commits_hold_on_foreign_exception(self):
        device, start = make_device()
        recovery = RecoveryContext()

        def unit():
            device.free_blocks([start])
            raise ValueError("not a device fault")

        with pytest.raises(ValueError):
            recovery.attempt("phase", 0, unit, device=device)
        assert not device.holding
        with pytest.raises(DeviceError):
            device.read_block(start)


class TestRunWriterAbandon:
    def test_abandon_frees_partial_output(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        writer = store.create_writer()
        for i in range(20):
            writer.write_record(b"r%03d" % i * 8)
        occupied = device.occupied_blocks
        assert occupied > 0
        writer.abandon()
        assert device.occupied_blocks == 0
        with pytest.raises(RunError):
            writer.write_record(b"x")
        with pytest.raises(RunError):
            writer.finish()

    def test_abandon_after_finish_raises(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        writer = store.create_writer()
        writer.write_record(b"only")
        writer.finish()
        with pytest.raises(RunError):
            writer.abandon()


SPEC = SortSpec(default=ByAttribute("name"))


def small_events():
    return level_fanout_events([6, 6, 6], seed=3, pad_bytes=24)


def run_sort(algorithm, plan=None, retries=0, memory=16):
    """One sort on a fresh 512-byte-block device, optionally faulted."""
    base = BlockDevice(block_size=512)
    device, injector, retrier = build_faulty_device(
        base, plan, retries=retries
    )
    store = RunStore(device)
    document = Document.from_events(store, small_events())
    recovery = RecoveryContext() if plan is not None else None
    sorter = nexsort if algorithm == "nexsort" else external_merge_sort
    output, report = sorter(
        document, SPEC, memory_blocks=memory, recovery=recovery
    )
    return {
        "text": output.to_string(),
        "report": report,
        "totals": base.stats.snapshot().counter_totals(),
        "injector": injector,
        "retrier": retrier,
        "recovery": recovery,
    }


class TestEndToEndRecovery:
    def test_retried_nexsort_is_bit_identical(self):
        clean = run_sort("nexsort")
        faulted = run_sort(
            "nexsort", "read@7;write@9;rate=0.01;seed=3", retries=3
        )
        assert faulted["injector"].fault_stats.injected > 0
        assert faulted["recovery"].restarts == 0
        assert faulted["text"] == clean["text"]
        # Every model counter matches; the only difference is the backoff
        # penalty on the simulated clock.
        diffs = {
            key: (clean["totals"][key], value)
            for key, value in faulted["totals"].items()
            if value != clean["totals"][key]
        }
        assert set(diffs) == {"penalty_seconds"}
        assert faulted["totals"]["penalty_seconds"] > 0

    def test_unit_restart_reproduces_output(self):
        clean = run_sort("nexsort")
        faulted = run_sort("nexsort", "write@10:run_write")
        assert faulted["recovery"].restarts == 1
        assert faulted["text"] == clean["text"]
        # Restarted work is re-charged: strictly more I/O than clean.
        assert (
            faulted["totals"]["total_ios"] > clean["totals"]["total_ios"]
        )

    def test_merge_pass_restart_reproduces_output(self):
        clean = run_sort("merge", memory=5)
        for plan in ("read@5:merge_read", "read@20:merge_read"):
            faulted = run_sort("merge", plan, memory=5)
            assert faulted["recovery"].restarts == 1
            assert faulted["text"] == clean["text"]

    def test_persistent_fault_names_checkpoint(self):
        with pytest.raises(SortRecoveryError) as info:
            run_sort(
                "nexsort", "write@30:run_write:persistent", retries=2
            )
        assert "persistent device fault" in str(info.value)
        assert "last completed checkpoint: subtree-sort#" in str(info.value)
        assert info.value.checkpoint is not None
        assert info.value.checkpoint.run_id is not None

    def test_formation_fault_without_retries_names_checkpoint(self):
        # Run formation streams the input scan, so it is checkpointed but
        # not restartable: a fault escaping the retry layer is fatal and
        # must say how far the sort got.
        with pytest.raises(SortRecoveryError) as info:
            run_sort("merge", "write@40:run_write", memory=5)
        assert "last completed checkpoint: run-formation#" in str(info.value)

    def test_formation_fault_with_retries_recovers(self):
        clean = run_sort("merge", memory=5)
        faulted = run_sort("merge", "write@40:run_write", retries=2, memory=5)
        assert faulted["text"] == clean["text"]
        diffs = {
            key
            for key, value in faulted["totals"].items()
            if value != clean["totals"][key]
        }
        assert diffs == {"penalty_seconds"}

    def test_unrecoverable_phase_fault_is_typed(self):
        # This config's early run_read attempts land in the output
        # assembly, which has no restartable unit: with no retries the
        # sort must fail with the typed recovery error naming how far it
        # got, not a bare DeviceFault.
        with pytest.raises(SortRecoveryError) as info:
            run_sort("nexsort", "read@5:run_read")
        assert "last completed checkpoint: subtree-sort#" in str(info.value)

    def test_load_phase_fault_raises_before_sorting(self):
        # Faults during the document load happen before any sorter (and
        # any recovery context) exists, so the API surfaces the raw
        # device fault; the CLI converts it for the user.
        with pytest.raises(DeviceFault) as info:
            run_sort("nexsort", "write@2")
        assert info.value.category == "load"

    def test_fault_free_run_unchanged_by_recovery_plumbing(self):
        # Threading a recovery context through a fault-free sort changes
        # nothing: same output, same counters, no checkpoint overhead in
        # the model.
        clean = run_sort("nexsort")
        plumbed = run_sort("nexsort", FaultPlan(), retries=0)
        assert plumbed["text"] == clean["text"]
        assert plumbed["totals"] == clean["totals"]
        assert len(plumbed["recovery"].checkpoints) > 0


class TestBuildFaultyDevice:
    def test_none_plan_returns_device_unchanged(self):
        device, _ = make_device()
        top, injector, retrier = build_faulty_device(device, None)
        assert top is device
        assert injector is None
        assert retrier is None

    def test_plan_without_retries_is_injector_only(self):
        device, _ = make_device()
        top, injector, retrier = build_faulty_device(device, "read@1")
        assert top is injector
        assert retrier is None
        assert injector.plan.rules == (FaultRule("read", 1),)

    def test_retries_stack_retrier_on_injector(self):
        device, _ = make_device()
        top, injector, retrier = build_faulty_device(
            device, "read@1", retries=2
        )
        assert top is retrier
        assert retrier.device is injector
        assert injector.device is device
        assert retrier.policy.max_retries == 2
