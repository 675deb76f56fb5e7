"""The planner against the recorded benchmark grids (ISSUE 9).

The acceptance criterion: on every recorded ``BENCH_*.json`` sweep, the
configuration the planner ranks first must measure within 5% of the
empirically best row of that sweep.  The profiles are rebuilt
analytically (``DocumentProfile.from_fanouts``) from each benchmark's
generator shape, the real encoded element size taken from the recorded
row itself - exactly the information ``--plan auto`` has before running.

Unit tests below pin the enumeration/pinning/tie-break contract.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    DocumentProfile,
    Plan,
    PlanConfig,
    Planner,
    profile_document,
)
from repro.errors import ReproError
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.merge import MergeOptions
from repro.xml import Document

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"

#: The recorded fig5/fig6 small-block workloads all use seed=5/pad=24
#: generators whose measured encoded element size is ~62 bytes.
SMALL_BLOCK_ELEMENT_BYTES = 62.05

TOLERANCE = 1.05


def bench(name: str) -> dict:
    path = BENCH_DIR / f"BENCH_{name}.json"
    if not path.exists():
        pytest.skip(f"{path.name} not recorded")
    return json.loads(path.read_text())


def assert_pick_near_optimum(name, planner, configs, measured):
    """The planner's first-ranked config measures within 5% of the best."""
    ranked = planner.rank(list(configs.values()))
    inverse = {cfg: key for key, cfg in configs.items()}
    pick = inverse[ranked[0][0]]
    best = min(measured.values())
    ratio = measured[pick] / best
    assert ratio <= TOLERANCE, (
        f"{name}: planner picked {pick} measuring {measured[pick]:.4f}, "
        f"{ratio:.3f}x the best {best:.4f}"
    )


class TestBenchRegression:
    """Planner pick vs. empirical optimum on every recorded sweep."""

    def test_bufferpool_cache_split(self):
        data = bench("bufferpool")
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 5], block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(profile, memory_blocks=48, block_size=512)
        configs, measured = {}, {}
        for row in data["rows"]:
            key = (row["memory_blocks"], row["cache_blocks"])
            configs[key] = PlanConfig(
                algorithm="nexsort",
                memory_blocks=row["memory_blocks"],
                cache_blocks=row["cache_blocks"],
            )
            measured[key] = row["simulated_seconds"]
        assert_pick_near_optimum("bufferpool", planner, configs, measured)

    @pytest.mark.parametrize(
        "workload,shape",
        [("fig5", [11, 11, 11, 5]), ("fig6", [12, 85, 24])],
    )
    def test_runformation_grid(self, workload, shape):
        data = bench("runformation")
        profile = DocumentProfile.from_fanouts(
            shape, block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(profile, memory_blocks=24, block_size=512)
        configs, measured = {}, {}
        for row in data["rows"]:
            if row["workload"] != workload:
                continue
            key = (row["run_formation"], row["merge_kernel"])
            configs[key] = PlanConfig(
                algorithm="merge_sort",
                memory_blocks=24,
                run_formation=row["run_formation"],
                merge_kernel=row["merge_kernel"],
            )
            measured[key] = row["simulated_seconds"]
        assert_pick_near_optimum(
            f"runformation/{workload}", planner, configs, measured
        )

    def test_compress_grid(self):
        # ISSUE 10: the planner's compress knob against the recorded
        # codec x memory sweep - its pick per memory grant must measure
        # within tolerance of that grant's best codec row.
        data = bench("compress")
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 5], block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        for memory in sorted(
            {row["memory_blocks"] for row in data["codec_sweep"]}
        ):
            planner = Planner(
                profile, memory_blocks=memory, block_size=512
            )
            configs, measured = {}, {}
            for row in data["codec_sweep"]:
                if row["memory_blocks"] != memory:
                    continue
                codec = (
                    None if row["codec"] == "off" else row["codec"]
                )
                configs[row["codec"]] = PlanConfig(
                    algorithm="merge_sort",
                    memory_blocks=memory,
                    compress=codec,
                )
                measured[row["codec"]] = row["simulated_seconds"]
            assert_pick_near_optimum(
                f"compress/M={memory}", planner, configs, measured
            )

    def test_compress_chosen_iff_model_predicts_win(self):
        # The crossover contract: at small blocks the constant per-block
        # transfer charge dwarfs the per-byte codec CPU, so compression
        # wins; at paper-scale 64 KB blocks the CPU dominates and the
        # planner must leave compression off.
        for block_size, expect_on in ((512, True), (65536, False)):
            profile = DocumentProfile.from_fanouts(
                [11, 11, 11, 5], block_size=block_size,
                element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
            )
            planner = Planner(
                profile, memory_blocks=24, block_size=block_size
            )
            plan = planner.choose()
            chosen = plan.config.compress is not None
            assert chosen == expect_on, (
                f"block_size={block_size}: compress="
                f"{plan.config.compress!r}, expected "
                f"{'on' if expect_on else 'off'}"
            )

    def test_kernel_algorithm_choice(self):
        # The recorded byte-path (``columnar``) rows; the scalar rows of
        # the same sweep measure an implementation that no longer exists.
        data = bench("kernel")
        rows = [
            r
            for r in data["rows"]
            if r["workload"] == "fig5-1e5" and r["kernel"] == "columnar"
        ]
        element_bytes = 65536 * 96 / rows[0]["element_count"]
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 75], block_size=65536,
            element_bytes=element_bytes,
        )
        planner = Planner(profile, memory_blocks=48, block_size=65536)
        configs, measured = {}, {}
        for row in rows:
            key = row["algorithm"]
            configs[key] = PlanConfig(algorithm=key, memory_blocks=48)
            measured[key] = row["simulated_seconds"]
        assert_pick_near_optimum("kernel", planner, configs, measured)

    def test_striping_disk_sweep(self):
        # The striping objective is busiest-disk time: total I/Os rise
        # with D (stripe bookkeeping) while elapsed time falls, so the
        # measured column is disk_seconds, matching the planner's.
        data = bench("striping")
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 5], block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(
            profile, memory_blocks=24, block_size=512, disks=8
        )
        configs, measured = {}, {}
        for row in data["disk_sweep"]:
            configs[row["disks"]] = PlanConfig(
                algorithm="nexsort",
                memory_blocks=24,
                disks=row["disks"],
                prefetch_depth=row["prefetch_depth"],
            )
            measured[row["disks"]] = row["disk_seconds"]
        assert_pick_near_optimum("striping", planner, configs, measured)

    def test_paper_scale_fast_tier(self):
        data = bench("paper_scale")
        rows = [r for r in data["rows"] if r["figure"] == "fig5-fast"]
        if not rows:
            pytest.skip("fast tier not recorded")
        element_bytes = (
            65536 * rows[0]["input_blocks"] / rows[0]["element_count"]
        )
        profile = DocumentProfile.from_fanouts(
            rows[0]["shape"], block_size=65536,
            element_bytes=element_bytes,
        )
        planner = Planner(profile, memory_blocks=48, block_size=65536)
        configs, measured = {}, {}
        for row in rows:
            key = row["algorithm"]
            if key in measured:
                measured[key] = min(
                    measured[key], row["simulated_seconds"]
                )
                continue
            configs[key] = PlanConfig(
                algorithm=row["algorithm"], memory_blocks=48
            )
            measured[key] = row["simulated_seconds"]
        assert_pick_near_optimum(
            "paper-scale-fast", planner, configs, measured
        )


def make_profile(shape, block_size=512):
    device = BlockDevice(block_size=block_size)
    store = RunStore(device)
    document = Document.from_events(
        store, level_fanout_events(shape, seed=5, pad_bytes=24)
    )
    return profile_document(document)


class TestPlannerContract:
    def test_choose_returns_cheapest(self):
        profile = make_profile([4, 4, 4])
        planner = Planner(profile, memory_blocks=24, block_size=512)
        plan = planner.choose()
        assert isinstance(plan, Plan)
        costs = [cost.total_seconds for _cfg, cost in plan.ranked]
        assert costs == sorted(costs)
        assert plan.cost.total_seconds == costs[0]
        assert plan.considered >= len(plan.ranked)
        assert plan.rationale

    def test_fixed_pins_are_honored(self):
        profile = make_profile([4, 4, 4])
        planner = Planner(profile, memory_blocks=24, block_size=512)
        plan = planner.choose(fixed={
            "algorithm": "merge_sort",
            "run_formation": "replacement-selection",
            "cache_blocks": 2,
        })
        assert plan.config.algorithm == "merge_sort"
        assert plan.config.run_formation == "replacement-selection"
        assert plan.config.cache_blocks == 2

    def test_heap_plans_prefetch_nothing(self):
        """Only loser-tree merges fetch ahead, so heap plans carry a
        prefetch window of 0 and loser-tree plans one of 2 per disk."""
        planner = Planner(
            make_profile([4, 4, 4]), memory_blocks=24, block_size=512,
            disks=4,
        )
        configs = planner.enumerate_configs()
        assert {c.merge_kernel for c in configs} == {"heap", "loser-tree"}
        for config in configs:
            expected = (
                0 if config.merge_kernel == "heap" or config.disks == 1
                else 2 * config.disks
            )
            assert config.prefetch_depth == expected
        assert planner.choose(fixed={"merge_kernel": "heap"}).config == (
            planner.choose(
                fixed={"merge_kernel": "heap", "prefetch_depth": 8}
            ).config
        )

    def test_enumeration_skips_infeasible_cache(self):
        profile = make_profile([4, 4, 4])
        planner = Planner(profile, memory_blocks=8, block_size=512)
        for config in planner.enumerate_configs():
            assert (
                config.working_blocks
                >= planner._floor(config.algorithm)
            )

    def test_no_feasible_plan_raises(self):
        profile = make_profile([4, 4, 4])
        planner = Planner(profile, memory_blocks=6, block_size=512)
        with pytest.raises(ReproError):
            planner.enumerate_configs(
                fixed={"cache_blocks": 5, "algorithm": "nexsort"}
            )

    def test_choice_is_deterministic(self):
        profile = make_profile([6, 6, 6])
        planner = Planner(profile, memory_blocks=24, block_size=512)
        first = planner.choose()
        second = planner.choose()
        assert first.config == second.config
        assert first.cost == second.cost

    def test_merge_options_round_trip(self):
        config = PlanConfig(
            run_formation="replacement-selection",
            merge_kernel="loser-tree",
        )
        assert config.merge_options() == MergeOptions(
            run_formation="replacement-selection",
            merge_kernel="loser-tree",
        )

    def test_validate_rejects_bad_configs(self):
        for bad in (
            PlanConfig(algorithm="quicksort"),
            PlanConfig(run_formation="bogus"),
            PlanConfig(merge_kernel="bogus"),
            PlanConfig(memory_blocks=4, cache_blocks=3),
            PlanConfig(threshold_bytes=0),
            PlanConfig(algorithm="merge_sort", depth_limit=1),
            PlanConfig(disks=2, prefetch_depth=2),  # heap never prefetches
            PlanConfig(disks=0),
            PlanConfig(prefetch_depth=-1),
        ):
            with pytest.raises(ReproError):
                bad.validate()

    def test_flat_document_prefers_merge_sort(self):
        profile = DocumentProfile.from_fanouts(
            [2999], block_size=512, element_bytes=62.05
        )
        planner = Planner(profile, memory_blocks=24, block_size=512)
        plan = planner.choose(
            fixed={"flat_optimization": False}
        )
        assert plan.config.algorithm == "merge_sort"

    def test_hierarchical_document_prefers_nexsort(self):
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 75], block_size=65536,
            element_bytes=62.13,
        )
        planner = Planner(profile, memory_blocks=48, block_size=65536)
        plan = planner.choose()
        assert plan.config.algorithm == "nexsort"

    def test_describe_mentions_the_choice(self):
        profile = make_profile([4, 4, 4])
        planner = Planner(profile, memory_blocks=24, block_size=512)
        plan = planner.choose()
        text = plan.describe()
        assert plan.config.algorithm in text
        assert "predicted" in text

    def test_depth_matches_merge_depth_oracle(self):
        from repro.analysis import iterated_merge_depth

        profile = DocumentProfile.from_fanouts(
            [144, 144, 143], block_size=65536, element_bytes=63.0
        )
        planner = Planner(profile, memory_blocks=64, block_size=65536)
        config = PlanConfig(algorithm="merge_sort", memory_blocks=64)
        cost = planner.cost(config)
        assert cost.merge_depth == iterated_merge_depth(
            cost.initial_runs, cost.fan_in
        )
