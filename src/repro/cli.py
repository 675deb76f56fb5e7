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
import sys
import time

from .analysis import (
    ModelGeometry,
    merge_sort_passes,
    nexsort_upper_bound_ios,
    sorting_lower_bound_ios,
)
from .baselines import external_merge_sort, key_path_table, xsort
from .core import nexsort
from .errors import DeviceFault, ReproError
from .faults import RecoveryContext, RetryPolicy, build_faulty_device
from .io import (
    BlockDevice,
    FileBackedBlockDevice,
    PREFETCH_POLICIES,
    RunStore,
    StripedDevice,
)
from .keys import ByAttribute, SortSpec
from .merge import MergeOptions, merge_preserving_order, structural_merge
from .obs import TRACE_WRITERS, Tracer, diff_files, maybe_span
from .xml import CompactionConfig, Document
from .xml.dtd import DTD


class _TrackedStore(argparse.Action):
    """``store`` that records explicit use in ``namespace._provided``.

    ``--plan auto`` fills only the knobs the user did *not* set: a flag
    typed on the command line pins that axis for the planner, and the
    only way argparse can tell "explicit default" from "omitted" is an
    action that logs the hit.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        _mark_provided(namespace, self.dest)


class _TrackedFlag(argparse.Action):
    """``store_true`` variant of :class:`_TrackedStore`."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.pop("nargs", None)
        kwargs.setdefault("default", False)
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)
        _mark_provided(namespace, self.dest)


def _mark_provided(namespace, dest: str) -> None:
    provided = getattr(namespace, "_provided", None)
    if provided is None:
        provided = set()
        namespace._provided = provided
    provided.add(dest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NEXSORT: sorting XML in external memory "
        "(ICDE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_spec=True) -> None:
        p.add_argument(
            "--memory", type=int, default=24,
            help="internal memory budget in blocks (default 24)",
        )
        p.add_argument(
            "--block-size", type=int, default=4096,
            help="device block size in bytes (default 4096)",
        )
        p.add_argument(
            "--scratch", metavar="PATH",
            help="back the device with a real file at PATH",
        )
        p.add_argument(
            "--stats", action="store_true",
            help="print the I/O accounting report",
        )
        if with_spec:
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
                "--depth-limit", type=int, default=None,
                help="sort only down to this level (root = 1)",
            )
            p.add_argument(
                "--spec", default=None, metavar="CLAUSES",
                help="full ordering spec, overriding --by/--tag-attr; "
                "e.g. '*=@name, employee=@ID, note=text()'",
            )

    def add_tuning(p: argparse.ArgumentParser) -> None:
        """Engine tuning shared verbatim by ``sort`` and ``serve``.

        One builder so the two entry points cannot drift: the merge
        engine, disk-farm, and fault flags mean the same thing whether
        one job or a whole workload consumes them
        (``_make_merge_options`` reads exactly these).
        """
        p.add_argument(
            "--disks", type=int, default=1,
            help="number of simulated disks: sort stripes one job's "
            "device across them, serve shares them between jobs "
            "(default 1: the paper's serial disk)",
        )
        p.add_argument(
            "--prefetch-depth", type=int, default=0, action=_TrackedStore,
            help="blocks the striped device may hold in its prefetch "
            "window (default 0: prefetch off); merges fetch ahead "
            "into it (sort only)",
        )
        p.add_argument(
            "--prefetch-policy",
            choices=sorted(PREFETCH_POLICIES),
            default="forecast",
            action=_TrackedStore,
            help="which run gets scarce prefetch slots first: forecast "
            "(smallest merge head key - the run that drains next) or "
            "round-robin (naive cycling); default forecast",
        )
        p.add_argument(
            "--run-formation",
            choices=["load-sort", "replacement-selection"],
            default="load-sort",
            action=_TrackedStore,
            help="initial-run formation strategy (replacement-selection "
            "produces ~2x longer runs on random input)",
        )
        p.add_argument(
            "--merge-kernel",
            choices=["heap", "loser-tree"],
            default="heap",
            action=_TrackedStore,
            help="k-way merge kernel; loser-tree counts real comparisons "
            "(<= ceil(log2 k) per record) instead of the analytic charge",
        )
        p.add_argument(
            "--embedded-keys", action=_TrackedFlag,
            help="embed byte-comparable normalized keys in run records so "
            "merges compare bytes instead of decoding",
        )
        p.add_argument(
            "--compress",
            choices=["off", "container", "zlib"],
            default="off",
            action=_TrackedStore,
            help="compress sorted runs on disk: container (split each "
            "record into structure/text/key containers, delta + "
            "dictionary coding) or zlib (whole-segment reference "
            "backend); output is bit-identical either way, only byte "
            "and CPU counters move (default off)",
        )
        p.add_argument(
            "--compress-capacity", action=_TrackedFlag,
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
        action=_TrackedStore,
    )
    sort_cmd.add_argument(
        "--threshold", type=int, default=None, action=_TrackedStore,
        help="NEXSORT sort threshold in bytes (default: 2 blocks)",
    )
    sort_cmd.add_argument(
        "--flat-opt", action=_TrackedFlag,
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
        "--cache-blocks", type=int, default=0, action=_TrackedStore,
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
        choices=sorted(TRACE_WRITERS),
        default="chrome",
        help="trace file format: chrome (chrome://tracing / Perfetto), "
        "jsonl, or tree (human-readable summary); default chrome",
    )
    add_common(sort_cmd)

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
    add_common(merge_cmd)

    dedup_cmd = sub.add_parser(
        "dedup",
        help="sort a document and remove duplicate sibling subtrees",
    )
    dedup_cmd.add_argument("input")
    dedup_cmd.add_argument("-o", "--output")
    add_common(dedup_cmd)

    table_cmd = sub.add_parser(
        "table1", help="print the key-path representation (paper Table 1)"
    )
    table_cmd.add_argument("input")
    add_common(table_cmd)

    validate_cmd = sub.add_parser(
        "validate", help="validate a document against a DTD"
    )
    validate_cmd.add_argument("input")
    validate_cmd.add_argument("--dtd", required=True)
    add_common(validate_cmd, with_spec=False)

    analyze_cmd = sub.add_parser(
        "analyze",
        help="print the document's external-memory geometry, the "
        "paper's bounds, and the plan `sort --plan auto` would run",
    )
    analyze_cmd.add_argument("input")
    add_common(analyze_cmd, with_spec=False)

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
    if getattr(args, "spec", None):
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


def _make_merge_options(args) -> MergeOptions:
    compress = getattr(args, "compress", "off")
    return MergeOptions(
        run_formation=getattr(args, "run_formation", "load-sort"),
        merge_kernel=getattr(args, "merge_kernel", "heap"),
        embedded_keys=getattr(args, "embedded_keys", False),
        compress=None if compress in (None, "off") else compress,
        compress_capacity=getattr(args, "compress_capacity", False),
    )


def _make_planner(args, document, base_device):
    """The planner ``sort --plan auto`` and ``analyze`` both consult.

    Returns it with the axes the hardware pins: the memory grant and the
    disks (the device is already built).
    """
    from .analysis import Planner, profile_document

    disks = getattr(args, "disks", 1)
    planner = Planner(
        profile_document(document),
        memory_blocks=args.memory,
        block_size=args.block_size,
        disks=disks,
        cost_model=getattr(base_device.stats, "cost_model", None),
    )
    return planner, {"memory_blocks": args.memory, "disks": disks}


def _plan_auto(args, document, base_device):
    """Fill the knobs the user left unset with the planner's picks.

    Explicit flags win: anything recorded in ``args._provided`` is
    pinned for the planner, which then optimizes only the free axes.
    Disks are hardware, so that axis is always pinned; a planned
    prefetch window is applied to the striped device in place.
    """
    provided = getattr(args, "_provided", set())
    if args.algorithm == "xsort":
        raise ReproError(
            "--plan auto covers nexsort and mergesort; xsort's "
            "target-path semantics are outside the planner's grid"
        )
    planner, fixed = _make_planner(args, document, base_device)
    if "algorithm" in provided:
        fixed["algorithm"] = (
            "merge_sort" if args.algorithm == "mergesort" else "nexsort"
        )
    if "threshold" in provided and args.threshold is not None:
        fixed["threshold_blocks"] = max(
            1, round(args.threshold / args.block_size)
        )
    for dest, knob in (
        ("cache_blocks", "cache_blocks"),
        ("flat_opt", "flat_optimization"),
        ("run_formation", "run_formation"),
        ("merge_kernel", "merge_kernel"),
        ("embedded_keys", "embedded_keys"),
        ("prefetch_depth", "prefetch_depth"),
        ("prefetch_policy", "prefetch_policy"),
        ("compress_capacity", "compress_capacity"),
    ):
        if dest in provided:
            fixed[knob] = getattr(args, dest)
    if "compress" in provided:
        fixed["compress"] = (
            None if args.compress == "off" else args.compress
        )
    plan = planner.choose(fixed=fixed)
    chosen = plan.config
    args.algorithm = (
        "mergesort" if chosen.algorithm == "merge_sort" else "nexsort"
    )
    if args.algorithm == "nexsort":
        args.threshold = chosen.threshold_blocks * args.block_size
    args.flat_opt = chosen.flat_optimization
    args.cache_blocks = chosen.cache_blocks
    args.run_formation = chosen.run_formation
    args.merge_kernel = chosen.merge_kernel
    args.embedded_keys = chosen.embedded_keys
    args.compress = chosen.compress or "off"
    args.compress_capacity = chosen.compress_capacity
    if (
        isinstance(base_device, StripedDevice)
        and "prefetch_depth" not in provided
    ):
        base_device.prefetch_depth = chosen.prefetch_depth
        if "prefetch_policy" not in provided:
            base_device.prefetch_policy = chosen.prefetch_policy
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
        return FileBackedBlockDevice(
            args.scratch, block_size=args.block_size
        )
    if disks > 1 or prefetch_depth:
        return StripedDevice(
            disks=disks,
            block_size=args.block_size,
            prefetch_depth=prefetch_depth,
            prefetch_policy=getattr(args, "prefetch_policy", "forecast"),
        )
    return BlockDevice(block_size=args.block_size)


def _load(store, path: str, compaction=None) -> Document:
    # Incremental: the file never needs to fit in a Python string.
    return Document.from_file(store, path, compaction)


def _emit(document: Document, output: str | None) -> None:
    text = document.to_string(indent="  ")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)


def _print_stats(label: str, stats_obj, out=sys.stdout) -> None:
    print(f"[{label}]", file=out)
    print(f"  total block I/Os:    {stats_obj.total_ios}", file=out)
    print(
        f"  simulated seconds:   {stats_obj.simulated_seconds:.4f}",
        file=out,
    )


def cmd_sort(args) -> int:
    base_device = _make_device(args)
    tracer = Tracer(base_device.stats) if args.trace else None
    device, injector, retrier = build_faulty_device(
        base_device,
        args.faults,
        policy=(
            RetryPolicy(max_retries=args.retries) if args.retries else None
        ),
        tracer=tracer,
    )
    recovery = (
        RecoveryContext(max_restarts=args.max_restarts, tracer=tracer)
        if args.faults
        else None
    )
    try:
        store = RunStore(device)
        spec = _make_spec(args)
        compaction = CompactionConfig() if args.compact else None
        with maybe_span(tracer, "document-load", input=args.input):
            document = _load(store, args.input, compaction)
        plan = None
        if getattr(args, "plan", "off") == "auto":
            with maybe_span(tracer, "plan", mode="auto") as plan_span:
                plan = _plan_auto(args, document, base_device)
                if plan_span is not None:
                    plan_span.set(
                        algorithm=plan.config.algorithm,
                        cache_blocks=plan.config.cache_blocks,
                        run_formation=plan.config.run_formation,
                        merge_kernel=plan.config.merge_kernel,
                        embedded_keys=plan.config.embedded_keys,
                        predicted_seconds=round(
                            plan.cost.total_seconds, 6
                        ),
                        considered=plan.considered,
                    )
        merge_options = _make_merge_options(args)
        profiler = None
        if getattr(args, "profile", None):
            import cProfile

            profiler = cProfile.Profile()
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        if args.algorithm == "nexsort":
            result, report = nexsort(
                document,
                spec,
                memory_blocks=args.memory,
                threshold_bytes=args.threshold,
                depth_limit=args.depth_limit,
                flat_optimization=args.flat_opt,
                cache_blocks=args.cache_blocks,
                merge_options=merge_options,
                tracer=tracer,
                recovery=recovery,
            )
        elif args.algorithm == "mergesort":
            result, report = external_merge_sort(
                document, spec, memory_blocks=args.memory,
                cache_blocks=args.cache_blocks,
                merge_options=merge_options,
                tracer=tracer,
                recovery=recovery,
            )
        else:
            if not merge_options.is_default:
                print(
                    "note: xsort ignores --run-formation, --merge-kernel, "
                    "--embedded-keys and --compress",
                    file=sys.stderr,
                )
            if recovery is not None:
                print(
                    "note: xsort has no checkpointed recovery; faults are "
                    "absorbed by --retries only",
                    file=sys.stderr,
                )
            # xsort is not instrumented internally; one covering span
            # keeps its I/O attributed so the trace still tiles.
            with maybe_span(tracer, "xsort", target=args.target or "/"):
                result, report = xsort(
                    document, spec, args.target, memory_blocks=args.memory,
                    cache_blocks=args.cache_blocks,
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
            _print_stats(args.algorithm, report, out=sys.stderr)
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
            if args.algorithm in ("nexsort", "mergesort"):
                print(
                    f"  run length avg/max:  "
                    f"{report.avg_run_length:.1f}/{report.max_run_length}",
                    file=sys.stderr,
                )
                print(
                    f"  merge comparisons:   {report.merge_comparisons}",
                    file=sys.stderr,
                )
            if args.cache_blocks:
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
            if args.algorithm == "nexsort":
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
    finally:
        if isinstance(base_device, FileBackedBlockDevice):
            base_device.close()


def cmd_serve(args) -> int:
    import os

    from .io.lease import ResourcePool
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
        plan=getattr(args, "plan", "off") == "auto",
    )
    merge_options = _make_merge_options(args)
    scheduler = Scheduler(
        pool,
        policy=args.policy,
        admission=admission,
        merge_options=merge_options,
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
                merge_options=(
                    result.decision.plan.merge_options()
                    if result.decision.plan is not None
                    else merge_options
                ),
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
    device = _make_device(args)
    try:
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
    finally:
        if isinstance(device, FileBackedBlockDevice):
            device.close()


def cmd_dedup(args) -> int:
    from .merge import deduplicate

    device = _make_device(args)
    try:
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
    finally:
        if isinstance(device, FileBackedBlockDevice):
            device.close()


def cmd_table1(args) -> int:
    device = _make_device(args)
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
    with open(args.dtd, "r", encoding="utf-8") as handle:
        dtd = DTD.parse(handle.read())
    device = _make_device(args)
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
    device = _make_device(args)
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
