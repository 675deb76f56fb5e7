"""Observability subsystem: span tracing, sinks, diff, and fidelity.

Three layers of guarantees:

* structural - span trees are well-formed (strict nesting, monotone
  simulated timestamps, non-negative self deltas) and the root spans'
  deltas sum to the whole trace's totals, on random documents across
  the full :class:`~repro.merge.engine.MergeOptions` grid;
* fidelity - tracing never perturbs the traced sort: with a tracer
  attached, I/O totals and output bytes are bit-identical to the
  untraced run, which itself reproduces the seed's Figure-5 goldens;
* surface - the CLI writes valid Chrome ``trace_event`` JSON whose
  top-level span deltas sum to the global counters (the acceptance
  criterion), ``repro trace diff`` reports a trace identical to itself
  and flags injected deltas, and JSONL and Chrome renderings of the
  same run compare identical.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import external_merge_sort
from repro.cli import main
from repro.core import nexsort
from repro.errors import TraceError
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.merge import MergeOptions
from repro.obs import (
    Tracer,
    diff_files,
    load_trace,
    maybe_span,
    render_tree,
    write_chrome_trace,
    write_jsonl,
)
from repro.xml import Document, Element

SPEC = SortSpec(default=ByAttribute("name"))

#: The full engine-knob grid; every combination must trace cleanly.
OPTION_GRID = [
    MergeOptions(run_formation=formation, merge_kernel=kernel)
    for formation in ("load-sort", "replacement-selection")
    for kernel in ("heap", "loser-tree")
]

#: Figure-5 totals of the unpooled seed (see tests/test_bufferpool.py):
#: the traced run must reproduce them exactly.
SEED_GOLDEN_M24 = (4275, 7762)


def fig5_events():
    return level_fanout_events([11, 11, 11, 5], seed=5, pad_bytes=24)


def small_doc(store):
    return Document.from_events(
        store, level_fanout_events([4, 3, 3], seed=3, pad_bytes=16)
    )


@st.composite
def document_tree(draw, max_depth=3):
    """Random documents with duplicate-prone keys."""

    def node(depth):
        name = draw(st.integers(min_value=0, max_value=20))
        children = []
        if depth < max_depth:
            count = draw(st.integers(min_value=0, max_value=3))
            children = [node(depth + 1) for _ in range(count)]
        return Element("n", {"name": f"k{name:03d}"}, "", children)

    return node(1)


def assert_well_formed(trace):
    """Structural invariants of a finished trace."""
    for span, _depth in trace.walk():
        assert not span.is_open
        assert span.delta is not None
        assert "truncated" not in span.attrs
        assert span.end_seconds >= span.start_seconds
        # Children tile disjoint sub-intervals of the parent, in order.
        previous_end = span.start_seconds
        for child in span.children:
            assert child.parent is span
            assert child.start_seconds >= previous_end
            previous_end = child.end_seconds
        assert previous_end <= span.end_seconds
        # Delta decomposes into children plus non-negative own work.
        for key, value in span.self_delta.counter_totals().items():
            assert value >= -1e-9, (span.path, key, value)
    roots = trace.spans
    previous_end = trace.start_seconds
    for root in roots:
        assert root.start_seconds >= previous_end
        previous_end = root.end_seconds
    assert previous_end <= trace.end_seconds


def assert_counters_equal(a, b):
    totals_a = a.counter_totals()
    totals_b = b.counter_totals()
    for key in totals_a:
        assert totals_a[key] == pytest.approx(totals_b[key], abs=1e-9), key


class TestTracerUnit:
    def test_spans_nest_strictly(self):
        tracer = Tracer(BlockDevice(block_size=256).stats)
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        with pytest.raises(TraceError):
            tracer.end(outer)
        tracer.end(inner)
        tracer.end(outer)
        trace = tracer.finish()
        assert [span.name for span, _d in trace.walk()] == [
            "outer", "inner"
        ]
        assert inner.path == "outer/inner"

    def test_finish_is_idempotent_and_closes_open_spans(self):
        tracer = Tracer(BlockDevice(block_size=256).stats)
        tracer.begin("left-open")
        trace = tracer.finish()
        assert trace.spans[0].attrs["truncated"] is True
        assert tracer.finish() is trace
        with pytest.raises(TraceError):
            tracer.begin("too-late")

    def test_maybe_span_without_tracer_is_noop(self):
        with maybe_span(None, "anything", attr=1) as span:
            assert span is None

    def test_top_level_event_gets_synthetic_span(self):
        tracer = Tracer(BlockDevice(block_size=256).stats)
        tracer.event("lonely", detail=7)
        trace = tracer.finish()
        assert trace.spans[0].events[0].name == "lonely"
        assert trace.spans[0].total_ios == 0


class TestSpanTreeProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tree=document_tree(),
        options=st.sampled_from(OPTION_GRID),
        cache=st.sampled_from([0, 2]),
    )
    def test_nexsort_trace_well_formed_and_tiles_totals(
        self, tree, options, cache
    ):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        tracer = Tracer(device.stats)
        nexsort(
            doc,
            SPEC,
            memory_blocks=6 + cache,
            cache_blocks=cache,
            merge_options=options,
            tracer=tracer,
        )
        trace = tracer.finish()
        assert_well_formed(trace)
        assert_counters_equal(trace.top_level_sum(), trace.totals)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tree=document_tree(),
        options=st.sampled_from(OPTION_GRID),
    )
    def test_merge_sort_trace_well_formed_and_tiles_totals(
        self, tree, options
    ):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        tracer = Tracer(device.stats)
        external_merge_sort(
            doc, SPEC, memory_blocks=4, merge_options=options,
            tracer=tracer,
        )
        trace = tracer.finish()
        assert_well_formed(trace)
        assert_counters_equal(trace.top_level_sum(), trace.totals)


class TestTracingNeverPerturbs:
    def sort_fig5(self, algorithm, traced):
        device = BlockDevice(block_size=512)
        store = RunStore(device)
        document = Document.from_events(store, fig5_events())
        tracer = Tracer(device.stats) if traced else None
        if algorithm == "nexsort":
            result, report = nexsort(
                document, SPEC, memory_blocks=24, tracer=tracer
            )
        else:
            result, report = external_merge_sort(
                document, SPEC, memory_blocks=24, tracer=tracer
            )
        trace = tracer.finish() if traced else None
        return result.to_string(), report, trace

    def test_untraced_matches_seed_golden(self):
        _out, nexsort_report, _ = self.sort_fig5("nexsort", traced=False)
        _out, merge_report, _ = self.sort_fig5("mergesort", traced=False)
        assert nexsort_report.total_ios == SEED_GOLDEN_M24[0]
        assert merge_report.total_ios == SEED_GOLDEN_M24[1]

    @pytest.mark.parametrize("algorithm", ["nexsort", "mergesort"])
    def test_traced_run_is_bit_identical(self, algorithm):
        plain_out, plain_report, _ = self.sort_fig5(algorithm, False)
        traced_out, traced_report, trace = self.sort_fig5(algorithm, True)
        assert traced_out == plain_out
        assert traced_report.total_ios == plain_report.total_ios
        assert (
            traced_report.simulated_seconds
            == plain_report.simulated_seconds
        )
        assert (
            traced_report.merge_comparisons
            == plain_report.merge_comparisons
        )
        # ... and the trace it produced accounts for every counter.
        assert_well_formed(trace)
        assert_counters_equal(trace.top_level_sum(), trace.totals)


class TestRenderers:
    def finished_trace(self):
        device = BlockDevice(block_size=512)
        store = RunStore(device)
        tracer = Tracer(device.stats)
        nexsort(small_doc(store), SPEC, memory_blocks=8, tracer=tracer)
        return tracer.finish()

    def test_jsonl_and_chrome_agree(self, tmp_path):
        trace = self.finished_trace()
        jsonl_path = tmp_path / "t.jsonl"
        chrome_path = tmp_path / "t.json"
        with open(jsonl_path, "w", encoding="utf-8") as fp:
            write_jsonl(trace, fp)
        with open(chrome_path, "w", encoding="utf-8") as fp:
            write_chrome_trace(trace, fp)
        loaded_jsonl = load_trace(str(jsonl_path))
        loaded_chrome = load_trace(str(chrome_path))
        assert loaded_jsonl.format == "jsonl"
        assert loaded_chrome.format == "chrome"
        diff = diff_files(str(jsonl_path), str(chrome_path))
        assert diff.identical, diff.render()

    def test_tree_summary_mentions_phases_and_totals(self):
        trace = self.finished_trace()
        rendered = render_tree(trace)
        assert "document-scan" in rendered
        assert "output-walk" in rendered
        assert f"{trace.totals.total_ios:>8}" in rendered

    def test_chrome_events_are_schema_shaped(self):
        trace = self.finished_trace()
        fp = io.StringIO()
        write_chrome_trace(trace, fp)
        document = json.loads(fp.getvalue())
        assert document["otherData"]["format"] == "repro-trace-chrome"
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert "name" in event and "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0


class TestCliSurface:
    def write_input(self, tmp_path):
        device = BlockDevice(block_size=512)
        store = RunStore(device)
        path = tmp_path / "input.xml"
        path.write_text(small_doc(store).to_string(indent="  "))
        return path

    def test_sort_trace_top_level_sums_to_totals(self, tmp_path):
        """Acceptance: top-level Chrome span deltas sum to global totals."""
        source = self.write_input(tmp_path)
        trace_path = tmp_path / "trace.json"
        code = main([
            "sort", str(source),
            "-o", str(tmp_path / "out.xml"),
            "--memory", "8", "--block-size", "512",
            "--trace", str(trace_path), "--trace-format", "chrome",
        ])
        assert code == 0
        document = json.loads(trace_path.read_text())
        totals = document["otherData"]["totals"]
        top_level = [
            event for event in document["traceEvents"]
            if event.get("ph") == "X"
            and "/" not in event["args"]["path"]
        ]
        assert top_level, "trace has no top-level spans"
        for key in (
            "reads", "writes", "total_ios", "sequential_ios",
            "random_ios", "cache_hits", "cache_misses",
            "cache_evictions", "comparisons", "merge_comparisons",
            "tokens",
        ):
            assert sum(
                event["args"]["io"][key] for event in top_level
            ) == totals[key], key
        assert sum(
            event["args"]["io"]["seconds"] for event in top_level
        ) == pytest.approx(totals["seconds"], abs=1e-6)

    def test_trace_diff_self_is_identical(self, tmp_path, capsys):
        source = self.write_input(tmp_path)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            trace_path = tmp_path / name
            assert main([
                "sort", str(source),
                "-o", str(tmp_path / "out.xml"),
                "--memory", "8", "--block-size", "512",
                "--trace", str(trace_path), "--trace-format", "jsonl",
            ]) == 0
            paths.append(trace_path)
        assert main(["trace", "diff", str(paths[0]), str(paths[1])]) == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_flags_injected_delta(self, tmp_path, capsys):
        source = self.write_input(tmp_path)
        trace_path = tmp_path / "a.jsonl"
        assert main([
            "sort", str(source),
            "-o", str(tmp_path / "out.xml"),
            "--memory", "8", "--block-size", "512",
            "--trace", str(trace_path), "--trace-format", "jsonl",
        ]) == 0
        mutated = tmp_path / "b.jsonl"
        lines = trace_path.read_text().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("type") == "span":
                record["io"]["reads"] += 7
                lines[index] = json.dumps(record)
                break
        mutated.write_text("\n".join(lines) + "\n")
        assert main(
            ["trace", "diff", str(trace_path), str(mutated)]
        ) == 1
        rendered = capsys.readouterr().out
        assert "reads: +7" in rendered

    def test_trace_diff_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("this is not a trace\n")
        trace = tmp_path / "a.jsonl"
        trace.write_text(bogus.read_text())
        assert main(["trace", "diff", str(bogus), str(trace)]) == 2
        assert "error:" in capsys.readouterr().err
