"""Span-based tracing and phase-attributed observability.

The package turns the global :class:`~repro.io.stats.IOStats` counters
into a *per-phase* account of a sort: :class:`Tracer` opens nested spans
whose entry/exit snapshots attribute every read, write, cache hit, and
comparison to the phase that caused it, on the simulated clock.
:mod:`repro.obs.sinks` renders the finished trace as JSONL, Chrome
``trace_event`` JSON, or a terminal tree; :mod:`repro.obs.diff`
compares two trace files for regressions.

Names load their module on first access (see :mod:`repro._lazy`): a
sort that traces with :class:`Tracer` never loads the writers or the diff.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "diff": ("TraceDiff", "diff_files", "diff_traces", "load_trace"),
    "sinks": (
        "TRACE_WRITERS",
        "render_tree",
        "write_chrome_trace",
        "write_jsonl",
        "write_tree",
    ),
    "tracer": ("Span", "Trace", "TraceEvent", "Tracer", "maybe_span"),
})
