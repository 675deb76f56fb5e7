"""Experiment CZ - compressed runs: ratio, crossover, pass reduction.

Three sweeps hold ISSUE 10's compression claims to numbers:

1. **Codec x memory** - the Figure-5 workload at 512-byte blocks, every
   codec (off / container / zlib) at three memory grants.  Run bytes
   must shrink by at least ``MIN_RATIO`` with the container codec, and
   the sorted output digest must be byte-identical to the uncompressed
   run at the same grant.
2. **CPU/IO crossover** - the same workload swept over block sizes.
   The per-block transfer charge is constant while codec CPU scales per
   raw byte, so compression's measured speedup shrinks as blocks grow;
   the planner's cost model extrapolates the sweep and names the block
   size where ``--plan auto`` stops choosing compression.
3. **Pass reduction** - ``--compress-capacity`` compresses the pending
   batch during run formation, so runs grow by the compression ratio
   and the merge tree loses a level: at the recorded grant the measured
   pass count drops and the Arge-Thorup depth bound, re-evaluated on
   the *compressed* run count, agrees that the saved pass is real.

Results land in ``BENCH_compress.json``.
"""

import hashlib
import json
from pathlib import Path

from repro.analysis import DocumentProfile, Planner, arge_thorup_merge_depth
from repro.baselines.merge_sort import external_merge_sort
from repro.bench import record_table, run_config
from repro.bench.harness import load_document
from repro.generators import level_fanout_events
from repro.keys import ByAttribute, SortSpec
from repro.merge.engine import MergeOptions
from repro.plan import PlanConfig

_JSON_PATH = Path(__file__).parent / "BENCH_compress.json"

#: Acceptance floor for the container codec's run-byte reduction.
MIN_RATIO = 1.5

SPEC = SortSpec(default=ByAttribute("name"))

#: Measured encoded element size of the seed=5/pad=24 generator at
#: 512-byte blocks (shared with bench_planner / tests).
SMALL_BLOCK_ELEMENT_BYTES = 62.05

FIG5_SHAPE = [11, 11, 11, 5]
CODECS = (None, "container", "zlib")
MEMORY_GRANTS = (8, 16, 24)
CROSSOVER_BLOCKS = (512, 1024, 2048, 4096)
PLANNER_BLOCKS = (512, 4096, 16384, 65536)
CAPACITY_MEMORY = 12


def _fig5_events():
    return level_fanout_events(FIG5_SHAPE, seed=5, pad_bytes=24)


def _options(codec, capacity=False):
    if codec is None:
        return MergeOptions()
    return MergeOptions(compress=codec, compress_capacity=capacity)


def _digest(memory_blocks, merge_options, block_size=512):
    """Sorted-output digest of one merge-sort run (identity checks)."""
    document = load_document(_fig5_events(), block_size)
    output, report = external_merge_sort(
        document, SPEC, memory_blocks=memory_blocks,
        merge_options=merge_options,
    )
    return (
        hashlib.sha256(output.to_string().encode()).hexdigest(),
        report,
    )


def _codec_sweep():
    """Codec x memory grid; returns (rows, digest map)."""
    rows = []
    digests = {}
    for memory in MEMORY_GRANTS:
        for codec in CODECS:
            metrics = run_config(
                _fig5_events,
                PlanConfig(
                    algorithm="merge_sort", memory_blocks=memory,
                    compress=codec,
                ),
            )
            digest, _report = _digest(memory, _options(codec))
            digests[(memory, codec)] = digest
            rows.append({
                "memory_blocks": memory,
                "codec": codec or "off",
                "simulated_seconds": round(metrics.simulated_seconds, 6),
                "total_ios": metrics.total_ios,
                "compressed_bytes": metrics.detail["compressed_bytes"],
                "compression_ratio": metrics.detail["compression_ratio"],
                "passes": metrics.detail["passes"],
                "digest": digest[:12],
            })
    return rows, digests


def _crossover_sweep():
    """Measured on/off speedup per block size, plus the model's flip.

    The measured sweep stays where the document is comfortably external
    (small blocks); the planner's cost model - the thing ``--plan auto``
    consults - extends the curve to paper-scale blocks and reports the
    first size where compression stops being chosen.
    """
    rows = []
    for block_size in CROSSOVER_BLOCKS:
        off = run_config(
            _fig5_events, PlanConfig(memory_blocks=24), block_size=block_size
        )
        on = run_config(
            _fig5_events,
            PlanConfig(memory_blocks=24, compress="container"),
            block_size=block_size,
        )
        rows.append({
            "block_size": block_size,
            "seconds_off": round(off.simulated_seconds, 6),
            "seconds_on": round(on.simulated_seconds, 6),
            "speedup": round(
                off.simulated_seconds / on.simulated_seconds, 4
            ),
            "compression_ratio": on.detail["compression_ratio"],
        })

    picks = []
    crossover = None
    for block_size in PLANNER_BLOCKS:
        profile = DocumentProfile.from_fanouts(
            FIG5_SHAPE, block_size=block_size,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(
            profile, memory_blocks=24, block_size=block_size
        )
        plan = planner.choose()
        chosen = plan.config.compress or "off"
        picks.append({"block_size": block_size, "compress": chosen})
        if crossover is None and chosen == "off":
            crossover = block_size
    return rows, picks, crossover


def _capacity_rows():
    """Pass-reduction evidence at the recorded grant, bound-checked."""
    rows = []
    for capacity in (False, True):
        options = _options("container" if capacity else None, capacity)
        digest, report = _digest(CAPACITY_MEMORY, options)
        per_block = max(
            1, report.element_count // max(1, report.input_blocks)
        )
        # The bound on the row's *actual* geometry: capacity compression
        # shrinks the initial run count (the "compressed N/B"), and the
        # depth bound re-evaluated on that run count is what certifies
        # the saved pass.
        depth_bound = arge_thorup_merge_depth(
            N=report.element_count,
            B=per_block,
            M=CAPACITY_MEMORY * per_block,
            fan_in=report.fan_in,
            initial_runs=report.initial_runs,
        )
        rows.append({
            "compress_capacity": capacity,
            "initial_runs": report.initial_runs,
            "fan_in": report.fan_in,
            "passes": report.total_passes,
            "merge_depth_bound": depth_bound,
            "simulated_seconds": round(report.simulated_seconds, 6),
            "digest": digest[:12],
        })
    return rows


def test_compression_ratio_crossover_and_pass_drop(benchmark):
    codec_rows, digests = benchmark.pedantic(
        _codec_sweep, rounds=1, iterations=1
    )
    crossover_rows, planner_picks, crossover_block = _crossover_sweep()
    capacity_rows = _capacity_rows()

    # -- claims ----------------------------------------------------------
    for memory in MEMORY_GRANTS:
        baseline = digests[(memory, None)]
        for codec in CODECS[1:]:
            assert digests[(memory, codec)] == baseline, (
                f"codec {codec} changed the sorted output at M={memory}"
            )
    container = [
        r for r in codec_rows if r["codec"] == "container"
    ]
    best_ratio = max(r["compression_ratio"] for r in container)
    assert best_ratio >= MIN_RATIO, (
        f"container codec only reached {best_ratio}x on Figure-5 input"
    )

    # The speedup curve is not strictly monotone (run counts and pass
    # boundaries shift with the block size), but compression must win
    # hardest at the smallest blocks - where transfer charges dominate
    # codec CPU - and still win everywhere in the measured range.
    speedups = [r["speedup"] for r in crossover_rows]
    assert speedups[0] == max(speedups), (
        f"expected the 512-byte row to lead the sweep: {speedups}"
    )
    assert min(speedups) > 1.0, (
        f"compression lost within the measured range: {speedups}"
    )
    assert crossover_block is not None, (
        "planner never flipped to compress=off within the swept range"
    )

    off_row, cap_row = capacity_rows
    assert off_row["digest"] == cap_row["digest"], (
        "capacity compression changed the sorted output"
    )
    assert cap_row["passes"] < off_row["passes"], (
        f"no pass drop at M={CAPACITY_MEMORY}: "
        f"{off_row['passes']} -> {cap_row['passes']}"
    )
    for row in capacity_rows:
        # passes = 1 formation pass + the merge-tree depth; the bound on
        # the row's actual (runs, fan-in) must agree exactly.
        assert row["passes"] == 1 + row["merge_depth_bound"], row

    # -- record ----------------------------------------------------------
    _JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "compressed_runs",
                "workload": f"level_fanout {FIG5_SHAPE} seed=5 pad=24",
                "min_ratio": MIN_RATIO,
                "codec_sweep": codec_rows,
                "crossover": {
                    "measured": crossover_rows,
                    "planner_picks": planner_picks,
                    "crossover_block_size": crossover_block,
                },
                "pass_reduction": {
                    "memory_blocks": CAPACITY_MEMORY,
                    "rows": capacity_rows,
                },
            },
            indent=2,
        )
        + "\n"
    )

    record_table(
        "Compressed runs (Figure-5 workload, 512-byte blocks)",
        ["memory", "codec", "simulated (s)", "ratio", "passes"],
        [
            [
                str(r["memory_blocks"]), r["codec"],
                f"{r['simulated_seconds']:.3f}",
                "-" if r["compression_ratio"] is None
                else f"{r['compression_ratio']:.2f}x",
                str(r["passes"]),
            ]
            for r in codec_rows
        ],
        notes=[
            f"container codec best ratio {best_ratio:.2f}x "
            f"(floor {MIN_RATIO}x); digests identical per grant",
            "crossover: speedup "
            + ", ".join(
                f"{r['speedup']:.2f}x@{r['block_size']}"
                for r in crossover_rows
            ),
            f"planner flips to compress=off at {crossover_block}-byte "
            f"blocks",
            f"capacity mode at M={CAPACITY_MEMORY}: "
            f"{off_row['initial_runs']} -> {cap_row['initial_runs']} runs, "
            f"{off_row['passes']} -> {cap_row['passes']} passes "
            f"(Arge-Thorup bound agrees)",
            f"full sweep written to {_JSON_PATH.name}",
        ],
    )
