"""Per-layer wall-clock tracing of a sort job, from outside the program.

:meth:`LayerTracer.install` swaps each public function named in ``LAYERS``
for a timing wrapper - on its class for methods, and on every loaded
``repro.*`` module that holds it by name for module functions (names like
``output_phase`` and ``merge_to_stream`` are imported by name) - and
:meth:`LayerTracer.uninstall` puts the originals back.  Nothing in the
program knows it is traced.  A function that no longer exists is skipped
and its layer reports zeros, so the benchmark outlives refactors.

A wrapper stack gives each call its self time: its duration minus the time
its wrapped callees took.  A layer re-entered while it is already running
counts towards ``total_s`` once.  Generator functions are timed inside
``__next__`` only, one step at a time; steps are aggregated, never spans.
A layer's calls are kept as spans (id, parent, name, start, end) until it
has been called more than ``SPAN_LIMIT`` times in a job; from then on it
keeps only aggregates (calls, total and self time per parent layer) and its
spans are dropped, their children re-parented to the nearest kept span.
Times are the job's CPU time in integer nanoseconds (the job shares its CPU
with the reference loop), so self times are exact.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import process_time_ns as _clock
from typing import Callable

SPAN_LIMIT = 10_000


# -- hooks: after(tracer, layer, args, result, before) -> (layer, result) ----


def _subtree_kind(tracer, layer, args, result, before):
    name = f"{layer}.{'internal' if result.internal else 'external'}"
    tracer.bump_max(name, "max_records", len(args[1]))
    return name, result


def _popped(tracer, layer, args, result, before):
    tracer.bump_max(layer, "max_records", len(result))
    return layer, result


def _merge_stream(tracer, layer, args, result, before):
    stream, passes, width = result
    tracer.bump(layer, "passes", passes)
    return layer, (_Steps(tracer, layer, stream, None), passes, width)


def _runs_formed(tracer, layer, args, result, before):
    tracer.bump(layer, "runs", len(result))
    return layer, result


def _timed_adder(tracer, layer, args, result, before):
    def add(*add_args):
        return tracer.call(layer, result, add_args, {})

    return layer, add


def _one_block(tracer, layer, args, result, before):
    tracer.bump(layer, "blocks", 1)
    return layer, result


def _blocks_read(tracer, layer, args, result, before):
    tracer.bump(layer, "blocks", len(result))
    return layer, result


def _blocks_written(tracer, layer, args, result, before):
    tracer.bump(layer, "blocks", len(args[1]))
    return layer, result


def _record_count(args, kwargs):
    return args[0].record_count


def _records_written(tracer, layer, args, result, before):
    tracer.bump(layer, "records", args[0].record_count - before)
    return layer, result


@dataclass(frozen=True)
class Wrap:
    """One public function timed as part of ``layer``."""

    layer: str
    module: str
    qualname: str
    steps: str | None = None  # generator: name of its per-yield counter
    after: Callable | None = None
    before: Callable | None = None


LAYERS = (
    Wrap("xml.load", "repro.xml.document", "Document.from_file"),
    Wrap("xml.parse", "repro.xml.streaming", "parse_events_incremental",
         steps="tokens"),
    Wrap("xml.codec.encode", "repro.xml.codec", "TokenCodec.encode"),
    Wrap("xml.codec.decode", "repro.xml.codec", "TokenCodec.decode"),
    Wrap("xml.emit", "repro.xml.document", "Document.to_string"),
    Wrap("keys.annotate", "repro.keys", "KeyEvaluator.annotate",
         steps="events"),
    Wrap("core.sort", "repro.core.nexsort", "NexSorter.sort"),
    Wrap("core.output_phase", "repro.core.output", "output_phase"),
    Wrap("core.subtree_sort", "repro.core.subtree",
         "SubtreeSorter.sort_tokens", after=_subtree_kind),
    Wrap("core.subtree_sort", "repro.core.subtree",
         "SubtreeSorter.sort_records", after=_subtree_kind),
    Wrap("core.argsort", "repro.core.columnar", "argsort_normalized"),
    Wrap("core.argsort", "repro.core.columnar", "argsort_groups"),
    Wrap("merge.run_formation", "repro.merge.engine", "RunFormer.add"),
    Wrap("merge.run_formation", "repro.merge.engine", "RunFormer.add_all"),
    Wrap("merge.run_formation", "repro.merge.engine", "RunFormer.bulk_adder",
         after=_timed_adder),
    Wrap("merge.run_formation", "repro.merge.engine", "RunFormer.finish",
         after=_runs_formed),
    Wrap("merge.merge_to_stream", "repro.baselines.merging",
         "merge_to_stream", after=_merge_stream),
    Wrap("baselines.merge_sort", "repro.baselines.merge_sort",
         "ExternalMergeSorter.sort"),
    Wrap("io.device.read", "repro.io.device", "BlockDevice.read_block",
         after=_one_block),
    Wrap("io.device.read", "repro.io.device", "BlockDevice.read_blocks",
         after=_blocks_read),
    Wrap("io.device.write", "repro.io.device", "BlockDevice.write_block",
         after=_one_block),
    Wrap("io.device.write", "repro.io.device", "BlockDevice.write_blocks",
         after=_blocks_written),
    Wrap("io.device.write", "repro.io.device",
         "BlockDevice.write_block_behind", after=_one_block),
    Wrap("io.runs.write", "repro.io.runs", "RunWriter.write_record",
         before=_record_count, after=_records_written),
    Wrap("io.runs.write", "repro.io.runs", "RunWriter.write_records",
         before=_record_count, after=_records_written),
    Wrap("io.runs.read", "repro.io.runs", "RunReader.read_record"),
    Wrap("io.runs.read", "repro.io.runs", "RunReader.read_available_records"),
    Wrap("io.stacks.push", "repro.io.stacks", "ExternalStack.push"),
    Wrap("io.stacks.pop_through", "repro.io.stacks",
         "ExternalStack.pop_through", after=_popped),
)

_CALLS = ("calls", "total_s", "self_s")
_STEPS = ("total_s", "self_s")

#: Every reported layer and its metrics.  Fixed, so a layer the job never
#: reached reports zeros.  Generator layers count yields, not calls.
REPORTED = {
    "xml.load": _CALLS,
    "xml.parse": (*_STEPS, "tokens"),
    "xml.codec.encode": _CALLS,
    "xml.codec.decode": _CALLS,
    "xml.emit": _CALLS,
    "keys.annotate": (*_STEPS, "events"),
    "core.sort": _CALLS,
    "core.output_phase": _CALLS,
    "core.subtree_sort.internal": (*_CALLS, "max_records"),
    "core.subtree_sort.external": (*_CALLS, "max_records"),
    "core.argsort": _CALLS,
    "merge.run_formation": (*_CALLS, "runs"),
    "merge.merge_to_stream": (*_CALLS, "passes"),
    "baselines.merge_sort": _CALLS,
    "io.device.read": (*_CALLS, "blocks"),
    "io.device.write": (*_CALLS, "blocks"),
    "io.runs.write": (*_CALLS, "records"),
    "io.runs.read": _CALLS,
    "io.stacks.push": _CALLS,
    "io.stacks.pop_through": (*_CALLS, "max_records"),
}


class _Steps:
    """Iterator proxy timing each ``__next__`` of a wrapped generator."""

    __slots__ = ("_tracer", "_layer", "_inner", "_next", "_counter")

    def __init__(self, tracer, layer, iterable, counter):
        self._tracer = tracer
        self._layer = layer
        self._inner = iter(iterable)
        self._next = self._inner.__next__
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.call(self._layer, self._next, (), {}, step=True)
        if self._counter is not None:
            self._tracer.bump(self._layer, self._counter, 1)
        return item

    def __getattr__(self, name):
        return getattr(self._inner, name)


class LayerTracer:
    """Times the layers of one job; see the module docstring."""

    def __init__(self):
        self.origin_ns = _clock()
        # frame: [layer, start_ns, child_ns, span_id, anchor_span_id]
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._stats: dict[tuple[str, str | None], list[int]] = {}
        self._counters: dict[str, dict[str, int]] = {}
        self._spans: list[tuple] = []
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []
        self.root_ns = 0
        self.missing: list[str] = []

    # -- counters used by the hooks ---------------------------------------

    def bump(self, layer: str, counter: str, amount: int) -> None:
        counters = self._counters.setdefault(layer, {})
        counters[counter] = counters.get(counter, 0) + amount

    def bump_max(self, layer: str, counter: str, value: int) -> None:
        counters = self._counters.setdefault(layer, {})
        counters[counter] = max(counters.get(counter, 0), value)

    # -- the timed call -----------------------------------------------------

    def call(self, layer, fn, args, kwargs, step=False, after=None,
             before=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        depth = self._active.get(layer, 0)
        self._active[layer] = depth + 1
        anchor = parent[4] if parent is not None else None
        span_id = None
        if not step:
            calls = self._calls.get(layer, 0) + 1
            self._calls[layer] = calls
            if calls <= SPAN_LIMIT:
                self._next_span += 1
                span_id = self._next_span
        state = before(args, kwargs) if before is not None else None
        frame = [layer, 0, 0, span_id, span_id or anchor]
        stack.append(frame)
        frame[1] = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._exit(layer, frame, _clock(), parent, anchor,
                       depth, step)
            raise
        end = _clock()
        if after is not None:
            frame[0], result = after(self, layer, args, result, state)
        self._exit(layer, frame, end, parent, anchor, depth, step)
        return result

    def _exit(self, layer, frame, end, parent, anchor, depth, step) -> None:
        """Account one finished call; ``frame[0]`` is its reported name."""
        self._stack.pop()
        self._active[layer] = depth
        duration = end - frame[1]
        if parent is not None:
            parent[2] += duration
            parent_name = parent[0]
        else:
            self.root_ns += duration
            parent_name = None
        key = (frame[0], parent_name)
        entry = self._stats.get(key)
        if entry is None:
            entry = self._stats[key] = [0, 0, 0]
        if not step:
            entry[0] += 1
        if depth == 0:
            entry[1] += duration
        entry[2] += duration - frame[2]
        if frame[3] is not None:
            self._spans.append(
                (frame[3], anchor, layer, frame[0], frame[1], end,
                 duration - frame[2])
            )

    # -- installation ---------------------------------------------------------

    def _wrapper(self, wrap: Wrap, fn):
        tracer = self
        layer = wrap.layer
        if wrap.steps is not None:
            counter = wrap.steps

            def generator_wrapper(*args, **kwargs):
                return _Steps(tracer, layer, fn(*args, **kwargs), counter)

            return generator_wrapper
        after, before = wrap.after, wrap.before

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)  # direct re-entry: one call
            return tracer.call(layer, fn, args, kwargs, after=after,
                               before=before)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for wrap in LAYERS:
            try:
                module = importlib.import_module(wrap.module)
            except ImportError:
                self.missing.append(f"{wrap.module}.{wrap.qualname}")
                continue
            owner_name, _, attr = wrap.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{wrap.module}.{wrap.qualname}")
                    continue
                if isinstance(raw, classmethod):
                    timed = classmethod(self._wrapper(wrap, raw.__func__))
                else:
                    timed = self._wrapper(wrap, raw)
                self._swap(owner, attr, raw, timed)
                continue
            raw = getattr(module, attr, None)
            if raw is None:
                self.missing.append(f"{wrap.module}.{wrap.qualname}")
                continue
            timed = self._wrapper(wrap, raw)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for global_name, value in list(vars(loaded).items()):
                    if value is raw:
                        self._swap(loaded, global_name, raw, timed)

    def _swap(self, owner, attr, raw, timed) -> None:
        setattr(owner, attr, timed)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        """``{layer: {metric: value}}`` for every layer in ``REPORTED``."""
        metrics = {
            layer: dict.fromkeys(keys, 0) for layer, keys in REPORTED.items()
        }
        for (layer, _parent), (calls, total, self_ns) in self._stats.items():
            entry = metrics.setdefault(layer, dict.fromkeys(_CALLS, 0))
            if "calls" in entry:
                entry["calls"] += calls
            entry["total_s"] += total / 1e9
            entry["self_s"] += self_ns / 1e9
        for layer, counters in self._counters.items():
            metrics.setdefault(layer, {}).update(counters)
        return metrics

    def per_parent(self) -> list[dict]:
        """Aggregates split by calling layer (None = the job itself)."""
        return [
            {
                "layer": layer,
                "parent": parent,
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": self_ns / 1e9,
            }
            for (layer, parent), (calls, total, self_ns) in sorted(
                self._stats.items(), key=lambda item: str(item[0])
            )
        ]

    def spans(self) -> list[dict]:
        """Kept spans, re-parented past dropped ones.

        ``start_s``/``end_s`` are the job's CPU seconds since the tracer
        was created.
        """
        aggregated = {
            layer for layer, calls in self._calls.items()
            if calls > SPAN_LIMIT
        }
        dropped = {}
        kept = []
        for span in self._spans:
            if span[2] in aggregated:
                dropped[span[0]] = span[1]
            else:
                kept.append(span)
        origin = self.origin_ns
        out = []
        for span_id, parent, _layer, name, start, end, self_ns in kept:
            while parent in dropped:
                parent = dropped[parent]
            out.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": (start - origin) / 1e9,
                    "end_s": (end - origin) / 1e9,
                    "self_s": self_ns / 1e9,
                }
            )
        return out
