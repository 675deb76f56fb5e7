"""Hierarchical span tracer driven by the simulated clock.

The paper's whole argument is a *cost attribution*: Lemmas 4.9-4.13 split
NEXSORT's I/Os between the input scan, stack paging, subtree sorts, run
reads, and output writing.  The global :class:`~repro.io.stats.IOStats`
counters can reproduce the totals but not the attribution - nothing says
*which* subtree sort or *which* merge pass consumed them.  This module
closes that gap:

* a :class:`Tracer` opens nested :class:`Span`\\ s around algorithm phases
  (``document-scan``, ``subtree-sort``, ``merge-pass``, ``output-walk``,
  ...);
* every span captures an :class:`~repro.io.stats.IOStats` snapshot on
  entry and diffs it on exit, so the span's **delta** (reads/writes,
  sequential/random split, buffer-pool hits/misses/evictions, comparisons,
  tokens, simulated seconds) is exactly what happened inside it;
* timestamps are **simulated seconds** (:class:`~repro.io.stats.CostModel`
  time derived from the counters), not wall time, so traces are fully
  deterministic and diffable across runs and machines.

Observation never perturbs the observed system: the tracer only *reads*
counters, and every instrumentation site in the package defaults to
``tracer=None`` with zero-allocation fast paths, so untraced runs stay
bit-identical to the paper-faithful seed.

Structural invariants (property-tested in ``tests/test_obs.py``):

* spans nest strictly - :meth:`Tracer.end` requires the innermost open
  span, and sibling intervals never overlap;
* timestamps are monotone: ``start <= end`` and children lie inside the
  parent interval;
* a span's delta equals the componentwise sum of its children's deltas
  plus its own :attr:`Span.self_delta`, which is non-negative in every
  counter; the root spans' deltas sum to the whole trace's totals.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import TraceError
from ..io.stats import IOStats, StatsSnapshot


@dataclass(frozen=True)
class TraceEvent:
    """A zero-duration point event attached to a span.

    Used for things that have no meaningful extent of their own but mark
    progress inside a phase: a run flushed during formation, the final
    streamed merge starting, a buffer-pool write-back.
    """

    name: str
    seconds: float
    attrs: dict = field(default_factory=dict)


class Span:
    """One traced phase: a named interval of simulated time with a delta.

    Spans are created through :meth:`Tracer.begin` / :meth:`Tracer.span`,
    never directly.  While open, :meth:`set` may add or update attributes
    (e.g. a subtree sort learns ``internal`` only after it ran).
    """

    __slots__ = (
        "name",
        "attrs",
        "start_seconds",
        "end_seconds",
        "parent",
        "children",
        "events",
        "delta",
        "_entry",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        start_seconds: float,
        entry: StatsSnapshot,
        parent: "Span | None",
    ):
        self.name = name
        self.attrs = attrs
        self.start_seconds = start_seconds
        self.end_seconds: float | None = None
        self.parent = parent
        self.children: list[Span] = []
        self.events: list[TraceEvent] = []
        self.delta: StatsSnapshot | None = None
        self._entry = entry

    @property
    def is_open(self) -> bool:
        return self.end_seconds is None

    @property
    def duration_seconds(self) -> float:
        if self.end_seconds is None:
            return 0.0
        return self.end_seconds - self.start_seconds

    @property
    def total_ios(self) -> int:
        return self.delta.total_ios if self.delta is not None else 0

    @property
    def self_delta(self) -> StatsSnapshot:
        """This span's delta minus everything attributed to its children.

        Because children partition disjoint sub-intervals of the parent
        and counters only grow, every component is non-negative.
        """
        if self.delta is None:
            raise TraceError(f"span {self.name!r} is still open")
        delta = self.delta
        for child in self.children:
            delta = delta.minus(child.delta)
        return delta

    @property
    def path(self) -> str:
        """Slash-joined name chain from the root span down to this one."""
        parts = []
        span: Span | None = self
        while span is not None:
            parts.append(span.name)
            span = span.parent
        return "/".join(reversed(parts))

    def set(self, **attrs) -> None:
        """Attach or update structured attributes on the span."""
        self.attrs.update(attrs)

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first (self, depth) traversal of this subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.is_open else f"{self.total_ios} IOs"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


@dataclass
class Trace:
    """A finished trace: the span forest plus whole-run totals."""

    spans: list[Span]
    totals: StatsSnapshot
    start_seconds: float
    end_seconds: float

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) traversal of the whole forest."""
        for span in self.spans:
            yield from span.walk()

    def top_level_sum(self) -> StatsSnapshot:
        """Componentwise sum of the root spans' deltas.

        When the root spans tile the traced execution (every I/O happened
        inside some root span), this equals :attr:`totals` - the
        acceptance check for the instrumentation's completeness.
        """
        total = StatsSnapshot(cost_model=self.totals.cost_model)
        for span in self.spans:
            total = total.plus(span.delta)
        return total

    def phase_breakdown(self) -> dict[str, dict]:
        """Aggregate root-span deltas by span name.

        The bench harness embeds this as the per-phase section of every
        ``BENCH_*.json``: ``{phase: {ios, reads, writes, seconds, ...}}``
        with repeated phases (e.g. many ``merge-pass`` roots) summed.
        """
        phases: dict[str, StatsSnapshot] = {}
        for span in self.spans:
            if span.name in phases:
                phases[span.name] = phases[span.name].plus(span.delta)
            else:
                phases[span.name] = span.delta
        breakdown = {}
        for name, delta in phases.items():
            entry = {
                "ios": delta.total_ios,
                "reads": delta.total_reads,
                "writes": delta.total_writes,
                "cache_hits": delta.cache_hits,
                "cache_misses": delta.cache_misses,
                "comparisons": delta.comparisons,
                "seconds": round(delta.elapsed_seconds(), 9),
            }
            if delta.disk_busy:
                # Parallel-device phases additionally attribute how much
                # of the phase's I/O overlapped across disks or stalled
                # the pipeline; serial phases keep the seed's exact keys.
                entry["disk_seconds"] = round(delta.disk_seconds(), 9)
                entry["overlap_seconds"] = round(delta.overlap_seconds(), 9)
                entry["stall_seconds"] = round(delta.stall_seconds, 9)
            breakdown[name] = entry
        return breakdown


class Tracer:
    """Opens nested spans over one :class:`~repro.io.stats.IOStats`.

    Args:
        stats: the device's accumulator; its counters are both the span
            deltas (via snapshots) and the simulated clock (via
            ``elapsed_seconds``).

    :meth:`finish` seals the spans into a :class:`Trace`, which the
    writers of :mod:`repro.obs.sinks` render.
    """

    def __init__(self, stats: IOStats):
        self.stats = stats
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._origin = stats.snapshot()
        self._start_seconds = stats.elapsed_seconds()
        self._trace: Trace | None = None

    # -- span lifecycle ------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None at top level."""
        return self._stack[-1] if self._stack else None

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has sealed the trace."""
        return self._trace is not None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def begin(self, name: str, **attrs) -> Span:
        """Open a span nested under the current one."""
        if self._trace is not None:
            raise TraceError("tracer is finished; no more spans")
        span = Span(
            name,
            attrs,
            self.stats.elapsed_seconds(),
            self.stats.snapshot(),
            self.current,
        )
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span; it must be the innermost open one."""
        if not self._stack or self._stack[-1] is not span:
            open_name = self._stack[-1].name if self._stack else "<none>"
            raise TraceError(
                f"cannot end span {span.name!r}: innermost open span is "
                f"{open_name!r} (spans must nest strictly)"
            )
        self._stack.pop()
        span.delta = self.stats.delta(span._entry)
        span.end_seconds = self.stats.elapsed_seconds()
        return span

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def event(self, name: str, **attrs) -> TraceEvent:
        """Record a point event on the innermost open span.

        Top-level events (no open span) are attached to a synthetic
        zero-length root span so they survive into the trace.
        """
        event = TraceEvent(name, self.stats.elapsed_seconds(), attrs)
        owner = self.current
        if owner is None:
            with self.span(name) as wrapper:
                wrapper.events.append(event)
        else:
            owner.events.append(event)
        return event

    def finish(self) -> Trace:
        """Close out the trace; idempotent.

        Spans left open (an exception unwound past them) are force-closed
        innermost-first and marked ``truncated`` so partial traces remain
        well-formed.
        """
        if self._trace is not None:
            return self._trace
        while self._stack:
            span = self._stack[-1]
            span.set(truncated=True)
            self.end(span)
        trace = Trace(
            spans=self.roots,
            totals=self.stats.delta(self._origin),
            start_seconds=self._start_seconds,
            end_seconds=self.stats.elapsed_seconds(),
        )
        self._trace = trace
        return trace


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, **attrs):
    """``tracer.span(...)`` when tracing, a no-op context otherwise.

    The instrumentation sites use this (or an explicit ``if tracer``
    fast path in hot loops) so the untraced default costs nothing.
    """
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **attrs) as span:
            yield span
