"""Command-line interface: sort, merge, validate, and analyze XML files.

Usage (also via ``python -m repro``):

    repro sort personnel.xml -o sorted.xml --by name --tag-attr employee=ID
    repro sort doc.xml -o sorted.xml --trace trace.json --trace-format chrome
    repro merge d1.xml d2.xml -o merged.xml --by name --tag-attr employee=ID
    repro table1 personnel.xml --by name --tag-attr employee=ID
    repro validate doc.xml --dtd schema.dtd
    repro analyze doc.xml --memory 24
    repro trace diff before.json after.json

Files are ordinary XML text; they are staged on a simulated block device
(or a file-backed one with ``--scratch``) and every command can print the
I/O accounting the paper's evaluation is built on (``--stats``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager

from .core.nexsort import nexsort
from .errors import DeviceFault, ReproError
from .io.device import PREFETCH_POLICIES, BlockDevice
from .io.runs import RunStore
from .keys import ByAttribute, SortSpec
from .obs.tracer import Tracer, maybe_span
from .plan import PlanConfig, run_plan
from .xml.document import Document

# Subcommands and opt-in flags import what they use where they use it,
# so ``repro sort`` with default flags loads only the sort path.


class _Tracked(argparse.Action):
    """``store`` (``store_true`` with ``nargs=0``) that records explicit
    use in ``namespace._provided``.

    ``--plan auto`` fills only the knobs the user did *not* set: a flag
    typed on the command line pins that axis for the planner, and the
    only way argparse can tell "explicit default" from "omitted" is an
    action that logs the hit.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        vars(namespace).setdefault("_provided", set()).add(self.dest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NEXSORT: sorting XML in external memory "
        "(ICDE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups: each command composes the ones it reads, so an
    # option a command would ignore is an argparse error there.
    def add_device(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--block-size", type=int, default=4096,
            help="device block size in bytes (default 4096)",
        )
        p.add_argument(
            "--scratch", metavar="PATH",
            help="back the device with a real file at PATH",
        )

    def add_memory(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--memory", type=int, default=24,
            help="internal memory budget in blocks (default 24)",
        )

    def add_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--by", default="name", metavar="ATTR",
            help="default ordering attribute (default: name)",
        )
        p.add_argument(
            "--tag-attr", action="append", default=[],
            metavar="TAG=ATTR",
            help="per-tag ordering attribute, e.g. employee=ID "
            "(repeatable)",
        )
        p.add_argument(
            "--spec", default=None, metavar="CLAUSES",
            help="full ordering spec, overriding --by/--tag-attr; "
            "e.g. '*=@name, employee=@ID, note=text()'",
        )

    def add_sorting(p: argparse.ArgumentParser) -> None:
        """What the commands that sort read: sort, merge and dedup."""
        add_memory(p)
        add_device(p)
        p.add_argument(
            "--stats", action="store_true",
            help="print the I/O accounting report",
        )
        add_spec(p)
        p.add_argument(
            "--depth-limit", type=int, default=None,
            help="sort only down to this level (root = 1)",
        )

    def add_tuning(p: argparse.ArgumentParser) -> None:
        """Engine tuning shared verbatim by ``sort`` and ``serve``.

        One builder so the two entry points cannot drift: the merge
        engine, disk-farm, and fault flags mean the same thing whether
        one job or a whole workload consumes them.
        """
        p.add_argument(
            "--disks", type=int, default=1,
            help="number of simulated disks: sort stripes one job's "
            "device across them, serve shares them between jobs "
            "(default 1: the paper's serial disk)",
        )
        p.add_argument(
            "--prefetch-depth", type=int, default=0, action=_Tracked,
            help="blocks the striped device may hold in its prefetch "
            "window (default 0: prefetch off); loser-tree merges fetch "
            "ahead into it (sort with --merge-kernel loser-tree only)",
        )
        p.add_argument(
            "--prefetch-policy",
            choices=sorted(PREFETCH_POLICIES),
            default="forecast",
            action=_Tracked,
            help="which run gets scarce prefetch slots first: forecast "
            "(smallest merge head key - the run that drains next) or "
            "round-robin (naive cycling); default forecast",
        )
        p.add_argument(
            "--run-formation",
            choices=["load-sort", "replacement-selection"],
            default="load-sort",
            action=_Tracked,
            help="initial-run formation strategy (replacement-selection "
            "produces ~2x longer runs on random input)",
        )
        p.add_argument(
            "--merge-kernel",
            choices=["heap", "loser-tree"],
            default="heap",
            action=_Tracked,
            help="k-way merge kernel; loser-tree counts real comparisons "
            "(<= ceil(log2 k) per record) instead of the analytic charge",
        )
        p.add_argument(
            "--compress",
            choices=["off", "container", "zlib"],
            default="off",
            action=_Tracked,
            help="compress sorted runs on disk: container (split each "
            "record into structure/text containers, delta + "
            "dictionary coding) or zlib (whole-segment reference "
            "backend); output is bit-identical either way, only byte "
            "and CPU counters move (default off)",
        )
        p.add_argument(
            "--compress-capacity", action=_Tracked, nargs=0, default=False,
            help="also compress pending run-formation batches so the "
            "same memory holds more records: longer initial runs, "
            "possibly fewer merge passes (changes comparison counts; "
            "requires --compress)",
        )
        p.add_argument(
            "--plan",
            choices=["off", "auto"],
            default="off",
            help="auto: cost-based planner fills every tuning knob not "
            "explicitly set (sort: algorithm/threshold/cache/formation/"
            "kernels/prefetch from the document's measured profile; "
            "serve: degraded grants re-plan their own knobs); off "
            "(default): paper-faithful fixed defaults",
        )
        p.add_argument(
            "--faults", metavar="PLAN", default=None,
            help="inject deterministic device faults per PLAN, e.g. "
            "'read@5;write@3*2:persistent;torn@1;rate=0.001;seed=42'",
        )
        p.add_argument(
            "--retries", type=int, default=0,
            help="transparent retries per faulted I/O (backoff charged to "
            "the simulated clock; default 0)",
        )

    sort_cmd = sub.add_parser("sort", help="sort a document")
    sort_cmd.add_argument("input")
    sort_cmd.add_argument("-o", "--output", help="write result here")
    sort_cmd.add_argument(
        "--algorithm",
        choices=["nexsort", "mergesort", "xsort"],
        default="nexsort",
        action=_Tracked,
    )
    # Tracked dests are PlanConfig fields: a typed flag pins its field.
    sort_cmd.add_argument(
        "--threshold", type=int, default=None, action=_Tracked,
        dest="threshold_bytes", metavar="THRESHOLD",
        help="NEXSORT sort threshold in bytes (default: 2 blocks)",
    )
    sort_cmd.add_argument(
        "--flat-opt", action=_Tracked, nargs=0, default=False,
        dest="flat_optimization",
        help="enable graceful degeneration into external merge sort",
    )
    sort_cmd.add_argument(
        "--compact", action="store_true",
        help="store with name dictionary + end-tag elimination",
    )
    sort_cmd.add_argument(
        "--target", default="",
        help="xsort only: '/'-separated tag path whose child lists to sort",
    )
    sort_cmd.add_argument(
        "--cache-blocks", type=int, default=0, action=_Tracked,
        help="memory blocks spent on the LRU buffer pool (default 0: "
        "no pool, I/O counts match the paper's model exactly)",
    )
    add_tuning(sort_cmd)
    sort_cmd.add_argument(
        "--profile", metavar="PATH", default=None,
        help="run the sort under cProfile and write stats (sorted by "
        "cumulative time) to PATH",
    )
    sort_cmd.add_argument(
        "--max-restarts", type=int, default=4,
        help="restart budget for checkpointed units (merge groups, "
        "subtree sorts) when a transient fault outlives the retries "
        "(default 4)",
    )
    sort_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the sort (phases, per-phase I/O "
        "deltas, simulated timestamps) and write it to PATH",
    )
    sort_cmd.add_argument(
        "--trace-format",
        choices=["chrome", "jsonl", "tree"],
        default="chrome",
        help="trace file format: chrome (chrome://tracing / Perfetto), "
        "jsonl, or tree (human-readable summary); default chrome",
    )
    add_sorting(sort_cmd)

    serve_cmd = sub.add_parser(
        "serve",
        help="run a multi-tenant workload through the sort service",
    )
    serve_cmd.add_argument(
        "--workload", required=True, metavar="SPEC",
        help="workload mini-language, e.g. "
        "'jobs=8;rate=2.0;seed=7;shape=4x4x4;memory=24'",
    )
    serve_cmd.add_argument(
        "--policy", choices=["fair", "priority"], default="fair",
        help="scheduling policy: fair (min-clock processor sharing) or "
        "priority (strict, higher JobSpec priority first)",
    )
    serve_cmd.add_argument(
        "--pool-memory", type=int, default=96,
        help="global memory pool in blocks that job leases are carved "
        "from (default 96)",
    )
    serve_cmd.add_argument(
        "--block-size", type=int, default=4096,
        help="device block size in bytes (default 4096)",
    )
    serve_cmd.add_argument(
        "--no-degrade", action="store_true",
        help="disable degraded admission (shrunken grants); jobs that "
        "do not fit are queued or rejected instead",
    )
    serve_cmd.add_argument(
        "--max-extra-depth", type=int, default=0,
        help="extra Arge-Thorup merge-tree levels a degraded grant may "
        "cost a job relative to its full request (default 0)",
    )
    serve_cmd.add_argument(
        "--verify-solo", action="store_true",
        help="re-run every completed job alone at the same grant and "
        "check bit-identity (digest, counters, phase breakdown); "
        "exit 1 on any mismatch",
    )
    serve_cmd.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="write per-tenant jsonl traces to DIR "
        "(<tenant>.scheduled.jsonl; with --verify-solo also "
        "<tenant>.solo.jsonl, comparable via `repro trace diff`)",
    )
    serve_cmd.add_argument(
        "--stats", action="store_true",
        help="print per-tenant counters and disk utilization",
    )
    add_tuning(serve_cmd)

    merge_cmd = sub.add_parser(
        "merge", help="sort two documents and merge them in one pass"
    )
    merge_cmd.add_argument("left")
    merge_cmd.add_argument("right")
    merge_cmd.add_argument("-o", "--output")
    merge_cmd.add_argument(
        "--preserve-order", action="store_true",
        help="keep the left document's child ordering in the result",
    )
    add_sorting(merge_cmd)

    dedup_cmd = sub.add_parser(
        "dedup",
        help="sort a document and remove duplicate sibling subtrees",
    )
    dedup_cmd.add_argument("input")
    dedup_cmd.add_argument("-o", "--output")
    add_sorting(dedup_cmd)

    table_cmd = sub.add_parser(
        "table1", help="print the key-path representation (paper Table 1)"
    )
    table_cmd.add_argument("input")
    add_device(table_cmd)
    add_spec(table_cmd)

    validate_cmd = sub.add_parser(
        "validate", help="validate a document against a DTD"
    )
    validate_cmd.add_argument("input")
    validate_cmd.add_argument("--dtd", required=True)
    add_device(validate_cmd)

    analyze_cmd = sub.add_parser(
        "analyze",
        help="print the document's external-memory geometry, the "
        "paper's bounds, and the plan `sort --plan auto` would run",
    )
    analyze_cmd.add_argument("input")
    add_memory(analyze_cmd)
    add_device(analyze_cmd)
    add_spec(analyze_cmd)

    trace_cmd = sub.add_parser(
        "trace", help="work with trace files written by sort --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_diff = trace_sub.add_parser(
        "diff",
        help="compare two traces span by span; exit 1 on any delta",
    )
    trace_diff.add_argument("a", help="baseline trace (jsonl or chrome)")
    trace_diff.add_argument("b", help="candidate trace (jsonl or chrome)")
    trace_diff.add_argument(
        "--ignore", action="append", default=[], metavar="NAME",
        help="exclude spans whose path contains this segment "
        "(repeatable; e.g. --ignore fault-injected)",
    )
    trace_diff.add_argument(
        "--ignore-counter", action="append", default=[], metavar="KEY",
        help="exclude this counter key from every span and the totals "
        "(repeatable; e.g. --ignore-counter compress_raw_bytes when "
        "comparing a compressed run against an uncompressed baseline)",
    )

    return parser


def _make_spec(args) -> SortSpec:
    if args.spec:
        return SortSpec.parse(args.spec)
    rules = {}
    for mapping in args.tag_attr:
        if "=" not in mapping:
            raise ReproError(
                f"--tag-attr needs TAG=ATTR, got {mapping!r}"
            )
        tag, attr = mapping.split("=", 1)
        rules[tag] = ByAttribute(attr, missing_uses_tag=True)
    return SortSpec(
        default=ByAttribute(args.by, missing_uses_tag=True), rules=rules
    )


def _make_config(args) -> PlanConfig:
    """The run ``repro sort``'s flags describe (xsort reads only its
    memory, cache and compaction)."""
    return PlanConfig(
        algorithm="merge_sort" if args.algorithm == "mergesort" else "nexsort",
        memory_blocks=args.memory,
        cache_blocks=args.cache_blocks,
        threshold_bytes=args.threshold_bytes,
        flat_optimization=args.flat_optimization,
        run_formation=args.run_formation,
        merge_kernel=args.merge_kernel,
        disks=args.disks,
        prefetch_depth=args.prefetch_depth,
        prefetch_policy=args.prefetch_policy,
        compress=_codec(args),
        compress_capacity=args.compress_capacity,
        depth_limit=args.depth_limit,
        compact=args.compact,
    )


def _codec(args) -> str | None:
    """`--compress` as a config codec (`off` is None)."""
    return None if args.compress == "off" else args.compress


def _make_planner(args, document, base_device):
    """The planner ``sort --plan auto`` and ``analyze`` both consult.

    Returns it with the axes the hardware pins: the memory grant and the
    disks (the device is already built).  A spec with keys computed at
    end tags pins NEXSORT too: external merge sort cannot sort it.
    """
    from .analysis import Planner, profile_document

    disks = getattr(args, "disks", 1)
    fixed = {"memory_blocks": args.memory, "disks": disks}
    if not _make_spec(args).start_computable:
        fixed["algorithm"] = "nexsort"
    planner = Planner(
        profile_document(document),
        memory_blocks=args.memory,
        block_size=args.block_size,
        disks=disks,
        cost_model=getattr(base_device.stats, "cost_model", None),
    )
    return planner, fixed


def _plan_auto(args, config, document, base_device):
    """The planner's pick for the knobs the user left unset.

    Explicit flags win: anything recorded in ``args._provided`` is
    pinned for the planner, which then optimizes only the free axes.
    Disks, the depth limit and the compaction are always pinned (a
    depth limit pins NEXSORT too); a planned prefetch window is applied
    to the striped device in place.
    """
    provided = getattr(args, "_provided", set())
    if args.algorithm == "xsort":
        raise ReproError(
            "--plan auto covers nexsort and mergesort; xsort's "
            "target-path semantics are outside the planner's grid"
        )
    planner, fixed = _make_planner(args, document, base_device)
    fixed.update(
        {name: getattr(config, name) for name in provided},
        depth_limit=config.depth_limit,
        compact=config.compact,
    )
    if config.depth_limit is not None:
        fixed["algorithm"] = "nexsort"
    plan = planner.choose(fixed=fixed)
    from .io.parallel import StripedDevice

    if (
        isinstance(base_device, StripedDevice)
        and "prefetch_depth" not in provided
    ):
        base_device.prefetch_depth = plan.config.prefetch_depth
        if "prefetch_policy" not in provided:
            base_device.prefetch_policy = plan.config.prefetch_policy
    return plan


def _make_device(args):
    disks = getattr(args, "disks", 1)
    prefetch_depth = getattr(args, "prefetch_depth", 0)
    if disks < 1:
        raise ReproError(f"--disks must be at least 1, got {disks}")
    if args.scratch:
        if disks > 1 or prefetch_depth:
            raise ReproError(
                "--disks/--prefetch-depth model the simulated parallel "
                "device and cannot be combined with --scratch"
            )
        from .io.file_device import FileBackedBlockDevice

        return FileBackedBlockDevice(
            args.scratch, block_size=args.block_size
        )
    if disks > 1 or prefetch_depth:
        from .io.parallel import StripedDevice

        return StripedDevice(
            disks=disks,
            block_size=args.block_size,
            prefetch_depth=prefetch_depth,
            prefetch_policy=args.prefetch_policy,
        )
    return BlockDevice(block_size=args.block_size)


@contextmanager
def _device(args):
    """The command's device; a ``--scratch`` file is closed and removed."""
    device = _make_device(args)
    try:
        yield device
    finally:
        if args.scratch:
            device.close()


def _load(store, path: str, compaction=None) -> Document:
    # Incremental: the file never needs to fit in a Python string.
    return Document.from_file(store, path, compaction)


def _emit(document: Document, output: str | None) -> None:
    """Write the document's text to ``output`` (stdout when None) a chunk
    at a time, as the record writer produces it; a failed write removes
    the partial file."""
    chunks = document.text_chunks(indent="  ")
    if not output:
        sys.stdout.writelines(chunks)
        return
    handle = open(output, "w", encoding="utf-8")
    try:
        with handle:
            handle.writelines(chunks)
    except BaseException:
        os.remove(output)
        raise


def _print_stats(label: str, stats_obj, out=sys.stdout) -> None:
    print(f"[{label}]", file=out)
    print(f"  total block I/Os:    {stats_obj.total_ios}", file=out)
    print(
        f"  simulated seconds:   {stats_obj.simulated_seconds:.4f}",
        file=out,
    )


def cmd_sort(args) -> int:
    config = _make_config(args)
    if args.algorithm != "xsort":
        config.validate()  # refuse bad flags before any work
    elif args.depth_limit is not None:
        raise ReproError(
            f"--depth-limit {args.depth_limit} needs nexsort: "
            f"xsort always sorts every level"
        )
    with _device(args) as base_device:
        tracer = Tracer(base_device.stats) if args.trace else None
        device, injector, retrier, recovery = base_device, None, None, None
        if args.faults or args.retries:
            from .faults import (
                RecoveryContext,
                RetryPolicy,
                build_faulty_device,
            )

            device, injector, retrier = build_faulty_device(
                base_device,
                args.faults,
                policy=(
                    RetryPolicy(max_retries=args.retries)
                    if args.retries
                    else None
                ),
                tracer=tracer,
            )
            if args.faults:
                recovery = RecoveryContext(
                    max_restarts=args.max_restarts, tracer=tracer
                )
        try:
            store = RunStore(device)
            spec = _make_spec(args)
            with maybe_span(tracer, "document-load", input=args.input):
                document = _load(
                    store, args.input, config.compaction_config()
                )
            plan = None
            if args.plan == "auto":
                with maybe_span(tracer, "plan", mode="auto") as plan_span:
                    plan = _plan_auto(args, config, document, base_device)
                    config = plan.config
                    if plan_span is not None:
                        plan_span.set(
                            algorithm=plan.config.algorithm,
                            cache_blocks=plan.config.cache_blocks,
                            run_formation=plan.config.run_formation,
                            merge_kernel=plan.config.merge_kernel,
                            predicted_seconds=round(
                                plan.cost.total_seconds, 6
                            ),
                            considered=plan.considered,
                        )
            profiler = None
            if args.profile:
                import cProfile

                profiler = cProfile.Profile()
            wall_start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            if args.algorithm == "xsort":
                label = "xsort"
                if not config.merge_options().is_default:
                    print(
                        "note: xsort ignores --run-formation, --merge-kernel "
                        "and --compress",
                        file=sys.stderr,
                    )
                if recovery is not None:
                    print(
                        "note: xsort has no checkpointed recovery; faults are "
                        "absorbed by --retries only",
                        file=sys.stderr,
                    )
                from .baselines.xsort import xsort

                # xsort is not instrumented internally; one covering span
                # keeps its I/O attributed so the trace still tiles.
                with maybe_span(tracer, "xsort", target=args.target or "/"):
                    result, report = xsort(
                        document, spec, args.target,
                        memory_blocks=config.memory_blocks,
                        cache_blocks=config.cache_blocks,
                    )
            else:
                label = (
                    "mergesort"
                    if config.algorithm == "merge_sort"
                    else "nexsort"
                )
                result, report = run_plan(
                    document, spec, config, tracer=tracer, recovery=recovery
                )
            if profiler is not None:
                profiler.disable()
            wall_seconds = time.perf_counter() - wall_start
            if profiler is not None:
                import pstats

                with open(args.profile, "w", encoding="utf-8") as handle:
                    pstats.Stats(profiler, stream=handle).sort_stats(
                        "cumulative"
                    ).print_stats()
                print(f"profile: stats -> {args.profile}", file=sys.stderr)
            if tracer is not None:
                from .obs.sinks import TRACE_WRITERS

                trace = tracer.finish()
                with open(args.trace, "w", encoding="utf-8") as handle:
                    TRACE_WRITERS[args.trace_format](trace, handle)
                print(
                    f"trace: {len(list(trace.walk()))} spans covering "
                    f"{trace.totals.total_ios} I/Os -> {args.trace} "
                    f"({args.trace_format})",
                    file=sys.stderr,
                )
            _emit(result, args.output)
            if args.stats:
                from .bench.harness import peak_rss_bytes

                if plan is not None:
                    for line in plan.describe().splitlines():
                        print(line, file=sys.stderr)
                _print_stats(label, report, out=sys.stderr)
                print(
                    f"  wall seconds:        {wall_seconds:.4f}",
                    file=sys.stderr,
                )
                rss = peak_rss_bytes()
                if rss is not None:
                    print(
                        f"  peak RSS:            {rss / (1 << 20):.1f} MiB",
                        file=sys.stderr,
                    )
                if label != "xsort":
                    print(
                        f"  run length avg/max:  "
                        f"{report.avg_run_length:.1f}/{report.max_run_length}",
                        file=sys.stderr,
                    )
                    print(
                        f"  merge comparisons:   {report.merge_comparisons}",
                        file=sys.stderr,
                    )
                if config.cache_blocks:
                    print(
                        f"  cache hits/misses:   "
                        f"{report.stats.cache_hits}/"
                        f"{report.stats.cache_misses}",
                        file=sys.stderr,
                    )
                    print(
                        f"  cache evictions:     "
                        f"{report.stats.cache_evictions}",
                        file=sys.stderr,
                    )
                if base_device.disks > 1 or base_device.prefetch_depth:
                    snap = report.stats
                    print(
                        f"  disks:               {base_device.disks} "
                        f"(prefetch depth {base_device.prefetch_depth}, "
                        f"policy {base_device.prefetch_policy})",
                        file=sys.stderr,
                    )
                    print(
                        f"  disk/overlap time:   {snap.disk_seconds():.4f}s / "
                        f"{snap.overlap_seconds():.4f}s",
                        file=sys.stderr,
                    )
                    print(
                        f"  pipeline stalls:     {snap.stall_seconds:.4f}s",
                        file=sys.stderr,
                    )
                    utilization = snap.disk_utilization()
                    if utilization:
                        per_disk = " ".join(
                            f"disk{d}={u:.0%}"
                            for d, u in sorted(utilization.items())
                        )
                        print(
                            f"  disk utilization:    {per_disk}",
                            file=sys.stderr,
                        )
                if label == "nexsort":
                    print(
                        f"  subtree sorts (x):   {report.x}", file=sys.stderr
                    )
                    print(
                        f"  breakdown:           {report.io_breakdown()}",
                        file=sys.stderr,
                    )
                if injector is not None:
                    fault_stats = injector.fault_stats
                    print(
                        f"  faults injected:     {fault_stats.injected} "
                        f"(transient {fault_stats.transient}, persistent "
                        f"{fault_stats.persistent}, torn {fault_stats.torn})",
                        file=sys.stderr,
                    )
                    if retrier is not None:
                        retry_stats = retrier.retry_stats
                        print(
                            f"  I/O retries:         {retry_stats.retries} "
                            f"({retry_stats.penalty_seconds:.4f}s simulated "
                            f"backoff)",
                            file=sys.stderr,
                        )
                    if recovery is not None:
                        print(
                            f"  unit restarts:       {recovery.restarts}",
                            file=sys.stderr,
                        )
                        print(
                            f"  checkpoints:         "
                            f"{len(recovery.checkpoints)} "
                            f"(last: {recovery.describe_last()})",
                            file=sys.stderr,
                        )
            return 0
        except DeviceFault as fault:
            # A fault outside any recovery-wrapped phase (document load, the
            # final emit, or an algorithm without checkpointing).
            if recovery is not None:
                raise recovery.to_error(fault) from fault
            raise


def cmd_serve(args) -> int:
    from .io.lease import ResourcePool
    from .obs.sinks import TRACE_WRITERS
    from .service import (
        AdmissionController,
        Scheduler,
        parse_workload,
        run_solo,
    )

    if args.prefetch_depth:
        raise ReproError(
            "serve shares whole disks between jobs; per-job prefetch "
            "striping (--prefetch-depth) applies to `repro sort` only"
        )
    jobs = parse_workload(args.workload)
    pool = ResourcePool(
        args.pool_memory, block_size=args.block_size, disks=args.disks
    )
    admission = AdmissionController(
        pool,
        degrade=not args.no_degrade,
        max_extra_depth=args.max_extra_depth,
        plan=args.plan == "auto",
    )
    config = PlanConfig(
        run_formation=args.run_formation,
        merge_kernel=args.merge_kernel,
        compress=_codec(args),
        compress_capacity=args.compress_capacity,
    )
    scheduler = Scheduler(
        pool,
        policy=args.policy,
        admission=admission,
        config=config,
        fault_plan=args.faults,
        retries=args.retries,
    )
    report = scheduler.run(jobs)
    report.verify_isolation()

    def _trace_path(tenant: str, kind: str) -> str:
        return os.path.join(args.trace_dir, f"{tenant}.{kind}.jsonl")

    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for result in report.completed:
            if result.trace is not None:
                with open(
                    _trace_path(result.spec.tenant, "scheduled"),
                    "w", encoding="utf-8",
                ) as handle:
                    TRACE_WRITERS["jsonl"](result.trace, handle)

    header = (
        f"{'tenant':<8} {'action':<8} {'prio':>4} {'grant':>6} "
        f"{'arrive':>8} {'done':>8} {'latency':>8}"
    )
    print(header)
    for result in report.results:
        done = (
            f"{result.completed_seconds:.3f}" if result.completed else "-"
        )
        latency = (
            f"{result.latency_seconds:.3f}" if result.completed else "-"
        )
        grant = (
            result.decision.memory_blocks
            if result.decision.admitted
            else "-"
        )
        print(
            f"{result.spec.tenant:<8} {result.decision.action:<8} "
            f"{result.spec.priority:>4} {grant:>6} "
            f"{result.spec.arrival:>8.3f} {done:>8} {latency:>8}"
        )
    summary = report.summary()
    print(
        f"\npolicy={summary['policy']} disks={summary['disks']} "
        f"jobs={summary['jobs']} completed={summary['completed']} "
        f"degraded={summary['degraded']} rejected={summary['rejected']}"
    )
    print(
        f"makespan: {summary['makespan_seconds']:.4f}s  "
        f"throughput: {summary['throughput_jobs_per_second']:.4f} jobs/s"
    )
    print(
        f"latency p50/p95/p99: "
        f"{summary['latency_p50_seconds']:.4f}s / "
        f"{summary['latency_p95_seconds']:.4f}s / "
        f"{summary['latency_p99_seconds']:.4f}s"
    )
    if args.stats:
        print("\nper-tenant counters (tile exactly to the pool totals):")
        for result in report.completed:
            print(
                f"  {result.spec.tenant}: "
                f"reads={result.counters.get('reads', 0)} "
                f"writes={result.counters.get('writes', 0)} "
                f"comparisons={result.counters.get('comparisons', 0)}"
            )
        utilization = scheduler.timeline.utilization()
        if utilization:
            per_disk = " ".join(
                f"disk{d}={u:.0%}" for d, u in sorted(utilization.items())
            )
            print(f"disk utilization: {per_disk}")

    exit_code = 0
    if args.verify_solo:
        print("\nsolo bit-identity check:")
        for result in report.completed:
            solo = run_solo(
                result.spec,
                memory_blocks=result.decision.memory_blocks,
                cache_blocks=result.decision.cache_blocks,
                block_size=args.block_size,
                config=result.decision.plan or config,
                fault_plan=args.faults,
                retries=args.retries,
            )
            same = (
                solo.digest == result.digest
                and solo.counters == result.counters
                and solo.phases == result.phases
            )
            verdict = "bit-identical" if same else "MISMATCH"
            print(f"  {result.spec.tenant}: {verdict}")
            if not same:
                exit_code = 1
            if args.trace_dir and solo.trace is not None:
                with open(
                    _trace_path(result.spec.tenant, "solo"),
                    "w", encoding="utf-8",
                ) as handle:
                    TRACE_WRITERS["jsonl"](solo.trace, handle)
    return exit_code


def cmd_merge(args) -> int:
    from .merge import merge_preserving_order, structural_merge

    with _device(args) as device:
        store = RunStore(device)
        spec = _make_spec(args)
        left = _load(store, args.left)
        right = _load(store, args.right)
        if args.preserve_order:
            merged, report = merge_preserving_order(
                left,
                right,
                spec,
                memory_blocks=args.memory,
                depth_limit=args.depth_limit,
            )
        else:
            sorted_left, _ = nexsort(
                left, spec, memory_blocks=args.memory,
                depth_limit=args.depth_limit,
            )
            sorted_right, _ = nexsort(
                right, spec, memory_blocks=args.memory,
                depth_limit=args.depth_limit,
            )
            merged, report = structural_merge(
                sorted_left, sorted_right, spec,
                depth_limit=args.depth_limit,
            )
        _emit(merged, args.output)
        if args.stats:
            _print_stats("merge", report, out=sys.stderr)
        return 0


def cmd_dedup(args) -> int:
    from .merge import deduplicate

    with _device(args) as device:
        store = RunStore(device)
        spec = _make_spec(args)
        document = _load(store, args.input)
        sorted_document, _sort_report = nexsort(
            document,
            spec,
            memory_blocks=args.memory,
            depth_limit=args.depth_limit,
        )
        result, report = deduplicate(sorted_document, spec)
        _emit(result, args.output)
        if args.stats:
            _print_stats("dedup", report, out=sys.stderr)
            print(
                f"  duplicate subtrees removed: "
                f"{report.duplicate_subtrees_removed}",
                file=sys.stderr,
            )
        return 0


def cmd_table1(args) -> int:
    from .baselines.keypath import key_path_table

    with _device(args) as device:
        store = RunStore(device)
        spec = _make_spec(args)
        document = _load(store, args.input)
        rows = key_path_table(document, spec)
        width = max(len(path) for path, _content in rows)
        print(f"{'Key path'.ljust(width)}  Element content")
        for path, content in rows:
            print(f"{path.ljust(width)}  {content}")
        return 0


def cmd_validate(args) -> int:
    from .xml.dtd import DTD

    with open(args.dtd, "r", encoding="utf-8") as handle:
        dtd = DTD.parse(handle.read())
    with _device(args) as device:
        store = RunStore(device)
        document = _load(store, args.input)
        violations = dtd.validate(document.to_element())
        if not violations:
            print("valid")
            return 0
        for violation in violations:
            print(violation, file=sys.stderr)
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1


def cmd_analyze(args) -> int:
    from .analysis import (
        ModelGeometry,
        merge_sort_passes,
        nexsort_upper_bound_ios,
        sorting_lower_bound_ios,
    )

    with _device(args) as device:
        store = RunStore(device)
        document = _load(store, args.input)
        geometry = ModelGeometry.from_document(document, args.memory)
        lower = sorting_lower_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k
        )
        upper = nexsort_upper_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k, 2 * geometry.B
        )
        passes = merge_sort_passes(geometry.N, geometry.B, geometry.M)
        print(f"elements (N):          {geometry.N}")
        print(f"elements/block (B):    {geometry.B}")
        print(f"memory elements (M):   {geometry.M} ({args.memory} blocks)")
        print(f"max fan-out (k):       {geometry.k}")
        print(f"height:                {document.height}")
        print(f"document blocks:       {document.block_count}")
        print(f"Thm 4.4 lower bound:   {lower:.0f} I/Os")
        print(f"Thm 4.5 NEXSORT bound: {upper:.0f} I/Os")
        print(f"merge sort passes:     {passes}")
        planner, fixed = _make_planner(args, document, device)
        print()
        print(planner.choose(fixed=fixed).describe())
        return 0


def cmd_trace(args) -> int:
    from .obs.diff import diff_files

    diff = diff_files(
        args.a,
        args.b,
        ignore=tuple(args.ignore),
        ignore_counters=tuple(args.ignore_counter),
    )
    print(diff.render())
    return 0 if diff.identical else 1


_COMMANDS = {
    "sort": cmd_sort,
    "serve": cmd_serve,
    "merge": cmd_merge,
    "dedup": cmd_dedup,
    "table1": cmd_table1,
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
