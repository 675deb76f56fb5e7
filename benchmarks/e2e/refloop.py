"""The reference loop that turns CPU seconds into reference seconds.

The host's speed drifts by more than the regressions the benchmark must
catch: on the 2-vCPU host the baselines were recorded on, a fixed
pure-Python loop ran anywhere from 1.0x to 1.8x its best time, per vCPU and
in bursts of about a second, and job times drifted 15-20% between runs
minutes apart.  Timing the loop before and after each job samples other
seconds than the job ran in, and still left 7-10% between runs.

So the loop runs *alongside* each job: the parent process and the job are
pinned to the same CPU, and while the job runs the parent repeats the loop.
The scheduler interleaves the two every few milliseconds, so both see the
same CPU state.  A stage's CPU seconds times ``REF_S / ref_loop_s``, where
``ref_loop_s`` is the parent's CPU seconds per loop run during that stage's
wall-time window, are the stage's reference seconds: its CPU time had the
loop run at its reference speed.  Over 110 jobs of one workload on that
host this cut the job-to-job spread (coefficient of variation) from 10.6%
to 1.3%.

The loop exercises the interpreter work the sort jobs are made of: integer
arithmetic, list sorting, dict updates, and bytes joining and slicing.  It
allocates a few MB, so the parent - whose RSS is where a spawned child's
peak RSS starts from - stays well below the jobs' peaks.
"""

from __future__ import annotations

import subprocess
import time

#: Reference CPU seconds per loop run: about one run beside a job on the
#: host the baselines in README.md were recorded on, so a reference second
#: there is about a CPU second.
REF_S = 0.035

#: Elements the loop sorts per run.  At 50k the run's few MB of fresh
#: objects overflow the 2 MB L2 as the jobs do, and its slowdown tracked the
#: jobs' one for one (log-log slope 0.98); at 5k it fit in L2 and
#: under-corrected (slope 1.2).
LOOP_ELEMENTS = 50_000

#: Fewest runs one stage's speed is taken from.
MIN_RUNS = 8


def reference_loop(elements: int = LOOP_ELEMENTS) -> int:
    """Run the fixed workload once; returns a checksum so no step is dead."""
    state = 12345
    values = []
    for _ in range(elements):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        values.append(state)
    values.sort()
    counts: dict[int, int] = {}
    for value in values:
        bucket = value & 0x3FF
        counts[bucket] = counts.get(bucket, 0) + 1
    blob = b"".join(value.to_bytes(4, "little") for value in values)
    chunks = sorted(blob[i : i + 12] for i in range(0, len(blob), 12))
    return len(counts) + len(chunks)


def run_alongside(
    proc: subprocess.Popen, timeout_s: float
) -> list[tuple[float, float]]:
    """Repeat the loop until ``proc`` exits.

    Returns ``(monotonic time at the run's midpoint, CPU seconds)`` per run.
    Raises ``subprocess.TimeoutExpired`` once ``timeout_s`` have passed
    with ``proc`` still running; the caller kills it.
    """
    runs = []
    deadline = time.monotonic() + timeout_s
    while proc.poll() is None:
        began = time.monotonic()
        if began > deadline:
            raise subprocess.TimeoutExpired(proc.args, timeout_s)
        cpu = time.process_time()
        reference_loop()
        cpu = time.process_time() - cpu
        runs.append(((began + time.monotonic()) / 2, cpu))
    return runs


def ref_loop_s(runs: list[tuple[float, float]], start: float,
               end: float) -> float:
    """Mean CPU seconds per loop run in the wall-time window [start, end].

    A window holding fewer than ``MIN_RUNS`` runs takes the ``MIN_RUNS``
    runs nearest its middle instead.
    """
    inside = [cpu for mid, cpu in runs if start <= mid <= end]
    if len(inside) < MIN_RUNS:
        middle = (start + end) / 2
        nearest = sorted(runs, key=lambda run: abs(run[0] - middle))
        inside = [cpu for _, cpu in nearest[:MIN_RUNS]]
    return sum(inside) / len(inside)
