"""One benchmark job in a fresh interpreter: what ``repro sort`` does.

Usage: python3 job.py CONFIG_JSON   (run.py starts it with PYTHONPATH set
to the checkout's src/, PYTHONHASHSEED=0 and OMP_NUM_THREADS=1)

The job imports repro, loads the input with ``Document.from_file``, sorts it
with ``nexsort`` or ``external_merge_sort`` given only the algorithmic
arguments (block size, memory, spec), and writes ``Document.to_string()`` to
the output file - the calls ``cmd_sort`` makes.  It prints one JSON object
with the wall and CPU time at each stage boundary (the parent shares its
CPU, see refloop.py), its peak RSS and the sort's counters; the parent
checks the output file against the oracle.

With ``"trace": true`` the job also installs the layer wrappers
(``layers.py``) after the import, hands the sort the program's own
simulated ``Tracer``, appends its spans to the trace file, and reports the
layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def mark() -> tuple[float, float]:
    """(monotonic wall time, CPU time) now.

    The parent scales each stage's CPU time by the reference loop's speed
    during that stage's wall-time window (see refloop.py).
    """
    return time.monotonic(), time.process_time()


def main() -> int:
    config = json.loads(sys.argv[1])
    start = mark()
    import repro

    imported = mark()
    layer_tracer = None
    if config["trace"]:
        from layers import LayerTracer

        layer_tracer = LayerTracer()
        layer_tracer.install()
    resumed = mark()

    spec = repro.SortSpec.parse(config["spec"])
    device = repro.BlockDevice(block_size=config["block_size"])
    document = repro.Document.from_file(repro.RunStore(device), config["input"])
    loaded = mark()

    sort = (
        repro.nexsort
        if config["algorithm"] == "nexsort"
        else repro.external_merge_sort
    )
    sim_tracer = None
    if layer_tracer is not None:
        from repro.obs import Tracer

        sim_tracer = Tracer(device.stats)
    result, report = sort(
        document, spec, memory_blocks=config["memory_blocks"],
        tracer=sim_tracer,
    )
    sorted_at = mark()

    text = result.to_string(indent="  ")
    with open(config["output"], "w", encoding="utf-8") as handle:
        handle.write(text)
    done = mark()

    # Installing the layer wrappers (imported..resumed) is not job time.
    stages = [
        ("setup_s", start, imported),
        ("setup_s", resumed, loaded),
        ("sort_s", loaded, sorted_at),
        ("emit_s", sorted_at, done),
    ]
    out = {
        "stages": stages,
        "peak_rss_mib": _peak_rss_mib(),
        "elements": document.element_count,
        "sim_s": report.simulated_seconds,
        "total_ios": report.total_ios,
    }
    if layer_tracer is not None:
        layer_tracer.uninstall()
        from repro.analysis import ModelGeometry, sorting_lower_bound_ios

        geometry = ModelGeometry.from_document(
            document, config["memory_blocks"]
        )
        out["lower_bound_ios"] = sorting_lower_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k
        )
        out["merge_comparisons"] = report.merge_comparisons
        out["phases"] = sim_tracer.finish().phase_breakdown()
        out["layers"] = layer_tracer.layer_metrics()
        out["per_parent"] = layer_tracer.per_parent()
        job_cpu_s = sum(end[1] - begin[1] for _, begin, end in stages)
        out["unattributed_s"] = job_cpu_s - layer_tracer.root_ns / 1e9
        out["missing"] = layer_tracer.missing
        with open(config["trace_file"], "a", encoding="utf-8") as handle:
            for span in layer_tracer.spans():
                span["job"] = config["job_id"]
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
