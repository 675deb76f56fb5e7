"""Trace renderers: JSONL, Chrome ``trace_event``, and a tree summary.

Three views of the same finished :class:`~repro.obs.tracer.Trace`:

* :func:`write_jsonl` - one JSON object per line (``meta`` header, one
  ``span`` line per span in depth-first order, a ``totals`` footer);
  trivially greppable and the native input of ``repro trace diff``.
* :func:`write_chrome_trace` - the Chrome ``trace_event`` JSON format
  (``{"traceEvents": [...]}``) loadable in ``chrome://tracing`` and
  Perfetto.  Timestamps are **simulated** microseconds, so the rendered
  timeline is the cost model's attribution, not wall time.
* :func:`render_tree` - a human-readable span tree with per-span I/O
  bars, for terminals and README examples.

Each renders a trace after :meth:`~repro.obs.tracer.Tracer.finish`;
:data:`TRACE_WRITERS` maps the ``--trace-format`` names to them.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from .tracer import Span, Trace

#: Microseconds per simulated second - Chrome trace timestamps are in us.
_US = 1_000_000


# -- shared serialization ------------------------------------------------------


def span_record(span: Span, index: int) -> dict:
    """The canonical dictionary form of one finished span.

    Both file formats embed this (JSONL directly, Chrome under ``args``),
    and the diff tool aligns spans across traces by its ``path`` field.
    """
    return {
        "index": index,
        "name": span.name,
        "path": span.path,
        "depth": 0 if span.parent is None else span.path.count("/"),
        "start_seconds": round(span.start_seconds, 9),
        "end_seconds": round(span.end_seconds, 9),
        "attrs": dict(span.attrs),
        "io": span.delta.counter_totals(),
        "self_io": span.self_delta.counter_totals(),
        "by_category": span.delta.io_breakdown(),
        "events": [
            {
                "name": event.name,
                "seconds": round(event.seconds, 9),
                "attrs": dict(event.attrs),
            }
            for event in span.events
        ],
    }


def _indexed_spans(trace: Trace) -> Iterator[tuple[Span, int]]:
    index = 0
    for span, _depth in trace.walk():
        yield span, index
        index += 1


# -- JSONL ---------------------------------------------------------------------


def write_jsonl(trace: Trace, fp: IO[str]) -> None:
    """Write a trace as line-delimited JSON.

    Line types: one ``{"type": "meta"}`` header, a ``{"type": "span"}``
    line per span (depth-first, parents before children), and a
    ``{"type": "totals"}`` footer whose counters cover the tracer's whole
    lifetime.
    """
    meta = {
        "type": "meta",
        "format": "repro-trace-jsonl",
        "version": 1,
        "clock": "simulated-seconds",
        "start_seconds": round(trace.start_seconds, 9),
        "end_seconds": round(trace.end_seconds, 9),
    }
    fp.write(json.dumps(meta) + "\n")
    for span, index in _indexed_spans(trace):
        record = span_record(span, index)
        record["type"] = "span"
        fp.write(json.dumps(record) + "\n")
    footer = {"type": "totals", "io": trace.totals.counter_totals()}
    fp.write(json.dumps(footer) + "\n")


# -- Chrome trace_event --------------------------------------------------------


def write_chrome_trace(trace: Trace, fp: IO[str]) -> None:
    """Write a trace in Chrome ``trace_event`` JSON object format.

    Every span becomes a complete (``"ph": "X"``) event with simulated-
    time ``ts``/``dur`` in microseconds; span point events become instant
    (``"ph": "i"``) events.  Whole-trace totals ride in ``otherData`` so
    a consumer (or the acceptance test) can check that the top-level
    spans' deltas sum to the global counters.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro (simulated time)"},
        }
    ]
    for span, index in _indexed_spans(trace):
        record = span_record(span, index)
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start_seconds * _US, 3),
                "dur": round(span.duration_seconds * _US, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "path": record["path"],
                    "attrs": record["attrs"],
                    "io": record["io"],
                    "self_io": record["self_io"],
                    "by_category": record["by_category"],
                },
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": round(event.seconds * _US, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": dict(event.attrs),
                }
            )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-trace-chrome",
            "version": 1,
            "clock": "simulated-seconds",
            "totals": trace.totals.counter_totals(),
        },
    }
    json.dump(document, fp, indent=1)
    fp.write("\n")


# -- tree summary --------------------------------------------------------------


def render_tree(trace: Trace, bar_width: int = 24) -> str:
    """Render the span forest as an aligned tree with per-span I/O bars.

    Bars scale to the largest root span's I/O total; each line shows the
    span's total block I/Os, its reads/writes split, and its simulated
    duration.  Point events render as dim ``*`` lines under their span.
    """
    rows: list[tuple[str, Span]] = []

    def collect(span: Span, prefix: str, is_last: bool, top: bool) -> None:
        if top:
            label = span.name
            child_prefix = ""
        else:
            connector = "`- " if is_last else "|- "
            label = prefix + connector + span.name
            child_prefix = prefix + ("   " if is_last else "|  ")
        rows.append((label, span))
        for position, child in enumerate(span.children):
            collect(
                child,
                child_prefix,
                position == len(span.children) - 1,
                False,
            )

    for root in trace.spans:
        collect(root, "", True, True)

    scale = max((span.total_ios for span in trace.spans), default=0)
    label_width = max((len(label) for label, _span in rows), default=0)
    label_width = max(label_width, len("span"))

    lines = [
        f"{'span'.ljust(label_width)}  {'I/Os':>8}  {'rd':>7}  {'wr':>7}"
        f"  {'seconds':>10}  io",
        "-" * (label_width + 42 + bar_width),
    ]
    for label, span in rows:
        delta = span.delta
        if scale:
            filled = round(bar_width * span.total_ios / scale)
            filled = min(bar_width, max(1 if span.total_ios else 0, filled))
        else:
            filled = 0
        bar = "#" * filled
        attrs = _format_attrs(span.attrs)
        lines.append(
            f"{label.ljust(label_width)}  {delta.total_ios:>8}"
            f"  {delta.total_reads:>7}  {delta.total_writes:>7}"
            f"  {span.duration_seconds:>10.4f}  {bar}{attrs}"
        )
    totals = trace.totals
    lines.append("-" * (label_width + 42 + bar_width))
    lines.append(
        f"{'total'.ljust(label_width)}  {totals.total_ios:>8}"
        f"  {totals.total_reads:>7}  {totals.total_writes:>7}"
        f"  {trace.end_seconds - trace.start_seconds:>10.4f}"
    )
    if totals.cache_hits or totals.cache_misses or totals.cache_evictions:
        lines.append(
            f"{'buffer pool'.ljust(label_width)}  hits={totals.cache_hits}"
            f" misses={totals.cache_misses}"
            f" evictions={totals.cache_evictions}"
        )
    return "\n".join(lines)


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = ", ".join(f"{key}={value}" for key, value in attrs.items())
    return f"  [{parts}]"


def write_tree(trace: Trace, fp: IO[str]) -> None:
    """File-writer form of :func:`render_tree`."""
    fp.write(render_tree(trace) + "\n")


#: ``--trace-format`` name -> writer; the CLI and bench harness key off it.
TRACE_WRITERS = {
    "jsonl": write_jsonl,
    "chrome": write_chrome_trace,
    "tree": write_tree,
}

