#!/usr/bin/env python3
"""End-to-end benchmark of ``repro sort``: four workloads, one command.

Measure (5 rounds; every end-to-end metric per workload, median and
quartiles; exit 1 if any output differs from the DOM oracle)::

    python3 benchmarks/e2e/run.py --seed 0 --out results.json

One workload for a fixed time, as a regression harness runs it (the last
line is a JSON object with correct/attempted/failed/metrics)::

    python3 benchmarks/e2e/run.py --workload nexsort-fig6 --seed 3 \\
        --seconds 25 --trace 0

Per-layer trace (adds a traced job per workload and round; writes
trace.jsonl), smoke run (shapes shrunk to <= 2k elements), and the
comparison of two result files under the bounds in BENCHMARK.json::

    python3 benchmarks/e2e/run.py --trace --seed 0 --out traced.json
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare set1.json set2.json

Load model: a closed loop with one client.  Every job runs alone in a fresh
single-threaded child process; a round runs each workload once, in order.
Inputs and oracle digests are generated from ``--seed`` into
``benchmarks/e2e/.cache`` before any timing.  Timings are reported in
reference seconds (see refloop.py).  See README.md for the workloads, the
metrics and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

from refloop import REF_S, ref_loop_s, run_alongside  # noqa: E402
from workloads import MEMORY_BLOCKS, WORKLOADS  # noqa: E402

#: A child that runs longer than this is killed and its job counted failed.
JOB_TIMEOUT_S = 120
#: With --seconds, at least this many rounds run whatever the budget.
MIN_ROUNDS = 2
#: CPU times scaled by REF_S / ref_loop_s; the rest are reported as measured.
#: job_s is the sum of the other three.
TIMINGS = ("job_s", "setup_s", "sort_s", "emit_s")
#: Results-file metrics held exact by --compare besides BENCHMARK.json's.
EXACT = {"sim_s": "sim-s", "failed_frac": "ratio"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion; a timeout kills it and waits for it."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=HERE,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT_S,
        check=False,
    )


def run_beside_loop(args: list[str], work: Path) -> tuple[int | None, list]:
    """Run a child while this process runs the reference loop.

    Returns the child's exit code (None if it timed out and was killed) and
    the loop runs made meanwhile.  The child's output goes to files in
    ``work``, so a chatty child cannot block on a pipe.
    """
    with open(work / "job.stdout", "w") as out, \
            open(work / "job.stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=HERE, env=child_env(),
            stdout=out, stderr=err,
        )
        timed_out = False
        runs = []
        try:
            runs = run_alongside(proc, JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
    return (None if timed_out else code), runs


def prepare(name: str, seed: int, smoke: bool) -> dict:
    """Input file and oracle digest for (workload, seed), cached."""
    workload = WORKLOADS[name]
    tag = hashlib.sha256(repr((workload, smoke)).encode()).hexdigest()[:12]
    directory = CACHE / f"{name}-seed{seed}-{tag}"
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        try:
            proc = run_child(
                ["prepare.py", name, str(seed), "1" if smoke else "0",
                 str(directory)]
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"preparing {name} timed out") from None
        if proc.returncode != 0:
            raise BenchmarkError(
                f"preparing {name} failed:\n{proc.stderr.strip()}"
            )
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["input"] = str(directory / "input.xml")
    return meta


def run_job(name: str, prepared: dict, smoke: bool, trace: bool,
            job_id: int, trace_file: Path) -> dict:
    """One job in a child beside the reference loop; checked and scaled."""
    workload = WORKLOADS[name]
    work = CACHE / "work"
    work.mkdir(parents=True, exist_ok=True)
    output = work / f"{name}.out.xml"
    output.unlink(missing_ok=True)
    config = {
        "input": prepared["input"],
        "output": str(output),
        "algorithm": workload.algorithm,
        "spec": workload.spec,
        "block_size": workload.geometry(smoke).block_size,
        "memory_blocks": MEMORY_BLOCKS,
        "trace": trace,
        "trace_file": str(trace_file),
        "job_id": job_id,
    }
    rep = {"workload": name, "job": job_id, "traced": trace}
    code, runs = run_beside_loop(["job.py", json.dumps(config)], work)
    if code is None:
        rep["error"] = f"timed out after {JOB_TIMEOUT_S} s"
    elif code != 0:
        lines = (work / "job.stderr").read_text().strip().splitlines()
        rep["error"] = f"exit {code}: {(lines or ['(no stderr)'])[-1]}"
    elif not runs:
        rep["error"] = "job ended before one reference loop run"
    elif hashlib.sha256(output.read_bytes()).hexdigest() != (
        prepared["oracle_sha256"]
    ):
        rep["error"] = "output differs from the DOM oracle"
    if "error" in rep:
        return rep
    raw = json.loads((work / "job.stdout").read_text().strip().splitlines()[-1])
    rep["ref_loop_s"] = sum(cpu for _, cpu in runs) / len(runs)
    rep["elements"] = raw["elements"]
    rep["raw"] = dict.fromkeys(TIMINGS, 0.0)
    metrics = dict.fromkeys(TIMINGS, 0.0)
    for key, (start, cpu_start), (end, cpu_end) in raw["stages"]:
        cpu = cpu_end - cpu_start
        rep["raw"][key] += cpu
        metrics[key] += cpu * REF_S / ref_loop_s(runs, start, end)
    for totals in (rep["raw"], metrics):
        totals["job_s"] = sum(totals[key] for key in TIMINGS[1:])
    metrics.update(
        elements_per_s=raw["elements"] / metrics["job_s"],
        peak_rss_mib=raw["peak_rss_mib"],
        sim_s=raw["sim_s"],
        total_ios=raw["total_ios"],
    )
    rep["metrics"] = metrics
    if trace:
        # Layer times run through the whole job: one job-wide scale.
        rep["layers"] = layer_metrics(raw, REF_S / rep["ref_loop_s"])
        rep["layers"]["trace.job_s"] = metrics["job_s"]
        rep["per_parent"] = raw["per_parent"]
        rep["missing"] = raw["missing"]
    return rep


def layer_metrics(raw: dict, scale: float) -> dict:
    """Flat per-layer metrics of one traced job; times in reference s."""
    out = {}
    for layer, values in raw["layers"].items():
        for key, value in values.items():
            out[f"{layer}.{key}"] = value * scale if key.endswith("_s") \
                else value
    out["merge.comparisons"] = raw["merge_comparisons"]
    out["io.ios_over_lower_bound"] = raw["total_ios"] / raw["lower_bound_ios"]
    for phase, entry in raw["phases"].items():
        out[f"sim.phase.{phase}.ios"] = entry["ios"]
        out[f"sim.phase.{phase}.sim_s"] = entry["seconds"]
    # The sort entry point whichever the algorithm: its self time is
    # NEXSORT's scan loop or merge sort's driver loop.
    for key in ("total_s", "self_s"):
        out[f"sort.{key}"] = (
            out[f"core.sort.{key}"] + out[f"baselines.merge_sort.{key}"]
        )
    out["trace.unattributed_s"] = raw["unattributed_s"] * scale
    return out


def summarize(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize_workload(reps: list[dict]) -> dict:
    ok = [rep for rep in reps if "error" not in rep]
    plain = [rep for rep in ok if not rep["traced"]]
    traced = [rep for rep in ok if rep["traced"]]
    result = {
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "failures": [f"job {rep['job']}: {rep['error']}"
                     for rep in reps if "error" in rep],
        "summary": {},
        "layers": {},
    }
    result["summary"]["failed_frac"] = summarize(
        [result["failed"] / result["attempted"]]
    )
    if ok:
        result["elements"] = ok[0]["elements"]
    if plain:
        for key in plain[0]["metrics"]:
            result["summary"][key] = summarize(
                [rep["metrics"][key] for rep in plain]
            )
    if traced:
        keys = sorted({key for rep in traced for key in rep["layers"]})
        for key in keys:
            result["layers"][key] = statistics.median(
                rep["layers"].get(key, 0) for rep in traced
            )
        if plain:
            result["layers"]["trace.overhead_frac"] = (
                result["layers"]["trace.job_s"]
                / result["summary"]["job_s"]["median"] - 1
            )
        result["per_parent"] = traced[-1]["per_parent"]
        result["missing"] = traced[-1]["missing"]
    return result


def environment() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        # The ceiling keeps git from searching above the checkout.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        revision = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": revision,
    }


def print_tables(results: dict, bench: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(EXACT)
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    header = f"{'workload':<16} {'metric':<40} {'unit':<7} " \
             f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
    print(header)
    for name, result in results.items():
        for metric, unit in units.items():
            stats = result["summary"].get(metric)
            if stats is None:
                continue
            print(f"{name:<16} {metric:<40} {unit:<7} "
                  f"{stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['n']:>3}")
    n = max((r["summary"].get("job_s", {}).get("n", 0)
             for r in results.values()), default=0)
    print(f"note: one job is one sample; with n={n} per workload no tail "
          "percentile is meaningful, so medians and quartiles are shown.")
    if not trace:
        return
    print()
    print(f"{'workload':<16} {'layer metric':<40} {'unit':<7} {'median':>12}")
    for name, result in results.items():
        for metric, value in result["layers"].items():
            unit = layer_units.get(metric) or (
                "sim-s" if metric.endswith("sim_s")
                else "s" if metric.endswith("_s") else "count"
            )
            print(f"{name:<16} {metric:<40} {unit:<7} {value:>12.6g}")


def result_line(results: dict, bench: dict, trace: bool) -> dict:
    """The last stdout line: BENCHMARK.json's metrics, by name and unit."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric in listed:
            if trace:
                value = result["layers"].get(metric["name"])
            else:
                value = result["summary"].get(metric["name"], {}).get(
                    "median"
                )
            if value is None:
                continue
            key = metric["name"] if single else f"{name}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The host's speed drifts per CPU, so the reference loop has to share the
    CPU the jobs run on (see refloop.py).
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: measure unpinned


def measure(args, bench: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}")
    names = args.workload or list(WORKLOADS)
    prepared = {name: prepare(name, args.seed, args.smoke) for name in names}
    trace_file = (
        Path(args.out).resolve().with_name("trace.jsonl")
        if args.out else CACHE / "trace.jsonl"
    )
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text("", encoding="utf-8")
    reps = args.reps or (1 if args.smoke else 5)
    kinds = (False, True) if args.trace else (False,)
    log: dict[str, list[dict]] = {name: [] for name in names}
    started = time.monotonic()
    rounds = 0
    job_id = 0
    pin_to_one_cpu()
    while True:
        elapsed = time.monotonic() - started
        if args.seconds is None:
            if rounds >= reps:
                break
        elif rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > (
            args.seconds
        ):
            break
        for name in names:
            for traced in kinds:
                job_id += 1
                log[name].append(
                    run_job(name, prepared[name], args.smoke, traced,
                            job_id, trace_file)
                )
        rounds += 1

    results = {name: summarize_workload(log[name]) for name in names}
    print_tables(results, bench, args.trace)
    for name, result in results.items():
        for failure in result["failures"]:
            print(f"FAILED {name} {failure}")
    if args.trace:
        print(f"trace: spans -> {trace_file}")
    if args.out:
        record = {
            "seed": args.seed,
            "smoke": args.smoke,
            "rounds": rounds,
            "ref_s": REF_S,
            "environment": environment(),
            "workloads": {
                name: {**results[name], "reps": log[name]} for name in names
            },
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
        print(f"results -> {args.out}")
    line = result_line(results, bench, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """better/same/worse for B against A, or unresolved if too noisy."""
    def spread(stats):
        width = stats["q3"] - stats["q1"]
        return width / abs(stats["median"]) if stats["median"] else (
            0.0 if width == 0 else float("inf")
        )

    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    base, new = a["median"], b["median"]
    if new == base:
        return "same"
    change = (new - base) / abs(base) if base else float("inf")
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    metrics += [(name, "lower", 0.0) for name in EXACT]
    worse = False
    print(f"{'workload':<16} " + " ".join(
        f"{name + f' (±{bound:g})':<22}" for name, _, bound in metrics
    ))
    for name in [n for n in a if n in b]:
        cells = []
        for metric, better, bound in metrics:
            sa = a[name]["summary"].get(metric)
            sb = b[name]["summary"].get(metric)
            if sa is None or sb is None:
                cells.append(f"{'missing':<22}")
                worse = True
                continue
            word = verdict(sa, sb, better, bound)
            worse |= word == "worse"
            change = (sb["median"] - sa["median"]) / sa["median"] \
                if sa["median"] else 0.0
            cells.append(f"{word + f' {change:+.1%}':<22}")
        print(f"{name:<16} " + " ".join(cells))
    return 1 if worse else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro sort."
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        help="run rounds while the next one still ends "
                             f"within this many seconds (at least "
                             f"{MIN_ROUNDS}); overrides --reps")
    parser.add_argument("--reps", type=int,
                        help="rounds to run (default 5, 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced job per workload and round and "
                             "print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="the same shapes shrunk to <= 2k elements")
    parser.add_argument("--out", help="write the full results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files under the bounds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so a running job is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bench = load_benchmark()
        if args.compare:
            return compare(*args.compare, bench)
        return measure(args, bench)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
