"""Tests for the NEXSORT core: correctness, extensions, and the paper's
Section 4.2 invariants checked against instrumented executions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import is_fully_sorted, sort_element
from repro.core import NexSorter, NexsortOptions, nexsort
from repro.errors import CodecError, ReproError, SortSpecError
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import ByChildPath, ByText, SortSpec
from repro.xml import CompactionConfig, Document, Element

from .conftest import chain_tree, flat_tree, random_tree

COMPACTIONS = [None, CompactionConfig()]


def run_nexsort(tree, spec, memory_blocks=8, compaction=None, **options):
    device = BlockDevice(block_size=256)
    store = RunStore(device)
    doc = Document.from_element(store, tree, compaction=compaction)
    return nexsort(doc, spec, memory_blocks=memory_blocks, **options)


class TestCorrectness:
    @pytest.mark.parametrize("compaction", COMPACTIONS)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, spec, seed, compaction):
        tree = random_tree(seed, depth=5, max_fanout=5, text_leaves=True)
        result, _report = run_nexsort(tree, spec, compaction=compaction)
        assert result.to_element() == sort_element(tree, spec)

    @pytest.mark.parametrize("memory", [6, 8, 16, 48])
    def test_any_memory_size(self, spec, memory):
        tree = random_tree(7, depth=5, max_fanout=6, pad=10)
        result, _report = run_nexsort(tree, spec, memory_blocks=memory)
        assert result.to_element() == sort_element(tree, spec)

    @pytest.mark.parametrize("threshold", [64, 256, 512, 4096])
    def test_any_threshold(self, spec, threshold):
        tree = random_tree(8, depth=5, max_fanout=5, pad=10)
        result, _report = run_nexsort(
            tree, spec, threshold_bytes=threshold
        )
        assert result.to_element() == sort_element(tree, spec)

    def test_single_element_document(self, spec):
        tree = Element("only", {"name": "x"})
        result, report = run_nexsort(tree, spec)
        assert result.to_element() == tree
        assert report.x == 1  # the root sort always happens

    def test_flat_document(self, spec):
        tree = flat_tree(200)
        result, _report = run_nexsort(tree, spec)
        assert result.to_element() == sort_element(tree, spec)

    def test_chain_document(self, spec):
        tree = chain_tree(60)
        result, _report = run_nexsort(tree, spec)
        assert result.to_element() == sort_element(tree, spec)

    def test_content_preserved(self, spec):
        tree = random_tree(21, depth=5, max_fanout=5, text_leaves=True)
        result, _report = run_nexsort(tree, spec)
        assert (
            result.to_element().unordered_canonical()
            == tree.unordered_canonical()
        )

    def test_duplicate_keys_are_stable(self, spec):
        tree = Element.parse(
            '<r name="r"><a name="k" id="1"/><a name="k" id="2"/>'
            '<a name="k" id="3"/></r>'
        )
        result, _report = run_nexsort(tree, spec)
        ids = [c.attrs["id"] for c in result.to_element().children]
        assert ids == ["1", "2", "3"]

    def test_idempotent(self, spec):
        tree = random_tree(4, depth=4, max_fanout=4)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        once, _ = nexsort(doc, spec, memory_blocks=8)
        twice, _ = nexsort(once, spec, memory_blocks=8)
        assert once.to_element() == twice.to_element()


class TestComplexCriteria:
    def test_by_text(self):
        spec = SortSpec(default=ByText())
        tree = random_tree(5, depth=4, max_fanout=4, text_leaves=True)
        result, _report = run_nexsort(tree, spec)
        assert result.to_element() == sort_element(tree, spec)

    def test_by_child_path(self):
        spec = SortSpec(rules={"employee": ByChildPath("info/last")})
        children = []
        for index, last in enumerate(["Smith", "Adams", "Zeta", "Baker"]):
            info = Element("info", {}, "", [Element("last", {}, last)])
            children.append(
                Element("employee", {"n": str(index)}, "", [info])
            )
        tree = Element("company", {}, "", children)
        result, _report = run_nexsort(tree, spec)
        lasts = [
            c.find_path("info/last").text
            for c in result.to_element().children
        ]
        assert lasts == ["Adams", "Baker", "Smith", "Zeta"]

    def test_subtree_keys_with_small_threshold_forces_collapses(self):
        """Subtree-evaluated keys must survive collapse to run pointers."""
        spec = SortSpec(default=ByText())
        tree = random_tree(6, depth=5, max_fanout=4, text_leaves=True)
        result, report = run_nexsort(tree, spec, threshold_bytes=64)
        assert report.x > 1
        assert result.to_element() == sort_element(tree, spec)

    def test_compact_with_subtree_keys_rejected(self):
        spec = SortSpec(default=ByText())
        tree = random_tree(1)
        with pytest.raises(SortSpecError, match="end-tag elimination"):
            run_nexsort(tree, spec, compaction=CompactionConfig())


def _depth_limit_cases():
    """(shape, depth_limit, flat_optimization) with readable ids."""
    cases = []
    for shape in ("random", "external", "flat"):
        limits = (0, 1, 2, 3) if shape == "random" else (0, 1, 2)
        for depth_limit in limits:
            for flat in (False, True):
                parts = [] if shape == "random" else [shape]
                parts.append(str(depth_limit))
                if flat:
                    parts.append("flat")
                cases.append(
                    pytest.param(
                        shape, depth_limit, flat, id="-".join(parts)
                    )
                )
    return cases


def _depth_limit_shape(shape):
    """(tree, block size, memory blocks) of one oracle shape: a random
    tree; a (60, 4, 2) fan-out tree whose root subtree is sorted
    externally; a flat 400-child tree that graceful degeneration
    flushes."""
    if shape == "random":
        return random_tree(11, depth=5, max_fanout=4), 256, 8
    fanouts, memory = ([60, 4, 2], 6) if shape == "external" else ([400], 8)
    document = Document.from_events(
        RunStore(BlockDevice(block_size=512)),
        level_fanout_events(fanouts, seed=3, pad_bytes=24),
    )
    return document.to_element(), 512, memory


class TestDepthLimited:
    @pytest.mark.parametrize(
        "shape,depth_limit,flat", _depth_limit_cases()
    )
    def test_matches_depth_limited_oracle(
        self, spec, shape, depth_limit, flat
    ):
        tree, block_size, memory = _depth_limit_shape(shape)
        store = RunStore(BlockDevice(block_size=block_size))
        result, _report = nexsort(
            Document.from_element(store, tree),
            spec,
            memory_blocks=memory,
            depth_limit=depth_limit,
            flat_optimization=flat,
        )
        assert result.to_element() == sort_element(
            tree, spec, depth_limit=depth_limit
        )

    def test_depth_limited_with_small_threshold(self, spec):
        tree = random_tree(12, depth=6, max_fanout=4, pad=12)
        result, report = run_nexsort(
            tree, spec, depth_limit=2, threshold_bytes=128
        )
        assert result.to_element() == sort_element(
            tree, spec, depth_limit=2
        )
        # Deep subtrees are never broken up below the limit+1 level.
        assert all(
            info.level <= 3 for info in report.subtree_sorts
        )

    def test_depth_limit_sorts_less(self, spec):
        tree = random_tree(13, depth=5, max_fanout=5)
        limited, _ = run_nexsort(tree, spec, depth_limit=1)
        element = limited.to_element()
        assert element.is_sorted_by(spec.key_of_element, depth_limit=1)
        # Head-to-toe sortedness generally fails for a random tree.
        full = sort_element(tree, spec)
        assert element != full or is_fully_sorted(element, spec)


class TestFlatOptimization:
    @pytest.mark.parametrize("compaction", COMPACTIONS)
    def test_correct_on_flat_documents(self, spec, compaction):
        tree = flat_tree(400, pad=16)
        result, report = run_nexsort(
            tree, spec, flat_optimization=True, compaction=compaction
        )
        assert result.to_element() == sort_element(tree, spec)
        assert report.flat_partial_runs > 1
        assert report.flat_final_merges >= 1

    def test_correct_on_hierarchical_documents(self, spec):
        tree = random_tree(17, depth=5, max_fanout=6, pad=12)
        result, _report = run_nexsort(tree, spec, flat_optimization=True)
        assert result.to_element() == sort_element(tree, spec)

    def test_eliminates_data_stack_paging_on_flat_input(self, spec):
        tree = flat_tree(400, pad=16)
        _plain, plain_report = run_nexsort(tree, spec)
        _opt, opt_report = run_nexsort(tree, spec, flat_optimization=True)
        assert plain_report.data_stack_page_outs > 0
        assert opt_report.data_stack_page_outs == 0

    def test_no_partial_runs_for_small_documents(self, spec):
        tree = random_tree(3, depth=3, max_fanout=3)
        _result, report = run_nexsort(tree, spec, flat_optimization=True)
        assert report.flat_partial_runs == 0

    def test_flat_opt_with_text_content(self, spec):
        tree = flat_tree(300, pad=16)
        tree.text = "root level text"
        result, _report = run_nexsort(tree, spec, flat_optimization=True)
        assert result.to_element().text == "root level text"
        assert result.to_element() == sort_element(tree, spec)


class TestPaperInvariants:
    """The quantities of Section 4.2, checked on real executions."""

    def sorted_report(self, spec, seed=23, **kwargs):
        tree = random_tree(seed, depth=6, max_fanout=6, pad=12)
        _result, report = run_nexsort(tree, spec, **kwargs)
        return report

    def test_lemma_4_6_sum_of_subtree_sizes(self, spec):
        """sum(s_i) == N - 1 + x."""
        for seed in range(4):
            report = self.sorted_report(spec, seed=seed)
            assert report.sum_si == report.element_count - 1 + report.x

    def test_lemma_4_7_number_of_sorts(self, spec):
        """x <= (N-1)/(t-1)."""
        report = self.sorted_report(spec, threshold_bytes=256)
        # Our threshold is in bytes; convert to an element equivalent via
        # the document's average element size to apply the lemma's bound.
        average = max(
            1,
            sum(i.payload_bytes for i in report.subtree_sorts)
            // max(1, report.sum_si),
        )
        t_elements = max(2, report.threshold_bytes // average)
        assert report.x <= (report.element_count - 1) / (t_elements - 1) + 1

    def test_lemma_4_8_run_blocks_linear(self, spec):
        """Total sorted-run blocks = O(N/B): within a small constant."""
        report = self.sorted_report(spec)
        assert report.run_blocks_written <= 4 * report.input_blocks + 4

    def test_subtree_size_upper_bound(self, spec):
        """Any sorted subtree is smaller than k*t (+ slack for the root)."""
        report = self.sorted_report(spec)
        bound = report.max_fanout * report.threshold_bytes
        non_root = report.subtree_sorts[:-1]
        assert all(
            info.payload_bytes <= bound + report.threshold_bytes
            for info in non_root
        )

    def test_theorem_4_5_total_ios_within_constant_of_bound(self, spec):
        from repro.analysis import ModelGeometry, nexsort_upper_bound_ios

        tree = random_tree(29, depth=6, max_fanout=6, pad=12)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        _result, report = nexsort(doc, spec, memory_blocks=8)
        geometry = ModelGeometry.from_document(doc, memory_blocks=8)
        t_elements = max(
            1, report.threshold_bytes // max(1, 256 // geometry.B)
        )
        bound = nexsort_upper_bound_ios(
            geometry.N, geometry.B, geometry.M, geometry.k,
            max(1, 2 * geometry.B),
        )
        assert report.total_ios <= 16 * bound + 64

    def test_report_breakdown_covers_all_phases(self, spec):
        report = self.sorted_report(spec)
        breakdown = report.io_breakdown()
        assert breakdown.get("input_scan", 0) == report.input_blocks
        assert breakdown.get("run_write", 0) > 0
        assert breakdown.get("output", 0) > 0
        assert breakdown.get("run_read", 0) > 0
        assert report.sorting_stats.total_ios > 0
        assert report.output_stats.total_ios > 0
        assert (
            report.stats.total_ios
            == report.sorting_stats.total_ios
            + report.output_stats.total_ios
        )

    def test_internal_and_external_sorts_both_occur(self, spec):
        tree = random_tree(31, depth=5, max_fanout=8, pad=20)
        _result, report = run_nexsort(
            tree, spec, memory_blocks=6, threshold_bytes=512
        )
        assert report.internal_sorts + report.external_sorts == report.x

    def test_output_element_count_matches_input(self, spec):
        tree = random_tree(33, depth=5, max_fanout=5)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = nexsort(doc, spec, memory_blocks=8)
        assert result.to_element().element_count() == doc.element_count


class TestValidation:
    def test_minimum_memory_enforced(self, spec):
        with pytest.raises(SortSpecError, match="at least"):
            NexSorter(spec, 5)

    def test_options_dataclass_defaults(self):
        options = NexsortOptions()
        assert options.threshold_bytes is None
        assert options.depth_limit is None
        assert not options.flat_optimization


class TestStackPaging:
    def test_deep_chain_pages_path_stack(self, spec):
        """A tall tree forces the 2-block path stack to page (Lemma 4.11
        machinery), without corrupting the sort."""
        tree = chain_tree(400)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, report = nexsort(
            doc, spec, memory_blocks=6, threshold_bytes=10**9
        )
        assert report.path_stack_page_outs > 0
        assert report.path_stack_page_ins > 0
        assert result.to_element() == sort_element(tree, spec)

    def test_data_stack_pages_when_memory_tiny(self, spec):
        tree = flat_tree(300, pad=16)
        _result, report = run_nexsort(tree, spec, memory_blocks=6)
        assert report.data_stack_page_outs > 0
        assert report.data_stack_page_ins > 0


def _with_record(document, index, record):
    """``document`` with ``record`` inserted before its ``index``-th
    stored record."""
    store = document.store
    records = list(store.open_reader(document.handle))
    records.insert(index, record)
    writer = store.create_writer("load")
    writer.write_records(records)
    return Document(store, writer.finish(), document.stats)


def _auction_document(block_size=256, compaction=None):
    from repro.generators import auction_events

    store = RunStore(BlockDevice(block_size=block_size))
    return Document.from_events(
        store, auction_events(auctions_per_region=2, max_bids=3, seed=4,
                              regions=2),
        compaction=compaction,
    )


#: Stored dialects of the fuzzed documents: plain, dictionary-coded
#: names, levels in place of end tags, and both.
_STORED_DIALECTS = {
    "plain": lambda: None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "levels": lambda: CompactionConfig(names=None),
    "full": CompactionConfig,
}


_START_KEYED = SortSpec.parse("*=@name")
_END_KEYED = SortSpec.parse("*=@name, node=text()")


def _sort(document, algorithm, spec):
    from repro.baselines import external_merge_sort

    if algorithm == "mergesort":
        return external_merge_sort(document, spec, 4)[0]
    return nexsort(document, spec, 8)[0]


class TestCorruptStoredRecords:
    """A corrupted stored document fails the scans with a typed
    ``ReproError`` - never ``IndexError`` or ``UnicodeDecodeError``."""

    @pytest.mark.parametrize(
        "algorithm, spec",
        [
            ("nexsort", _START_KEYED),
            ("nexsort", _END_KEYED),
            ("mergesort", _START_KEYED),
        ],
    )
    @pytest.mark.parametrize("record", [b"", b"\x01"])
    def test_short_record_is_typed(self, algorithm, spec, record):
        document = _with_record(_auction_document(), 5, record)
        with pytest.raises(CodecError):
            _sort(document, algorithm, spec)

    def test_undecodable_text_is_typed(self):
        document = _with_record(_auction_document(), 5, b"\x02\x00\x01\xff")
        with pytest.raises(CodecError):
            _sort(document, "nexsort", _END_KEYED)

    def test_defect_past_the_record_parsing_keeps_its_type(
        self, monkeypatch
    ):
        """Only the scans' record parsing is converted: an IndexError
        from a subtree sort or from run formation is a defect, not a
        corrupt input."""
        from repro.merge.engine import RunFormer

        def defect(*_args, **_kwargs):
            raise IndexError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(NexSorter, "_close_subtree", defect)
            with pytest.raises(IndexError, match="injected"):
                _sort(_auction_document(), "nexsort", _START_KEYED)
        with monkeypatch.context() as patch:
            patch.setattr(RunFormer, "add", defect)
            with pytest.raises(IndexError, match="injected"):
                _sort(_auction_document(), "mergesort", _START_KEYED)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        algorithm=st.sampled_from(
            [("nexsort", _START_KEYED), ("nexsort", _END_KEYED),
             ("mergesort", _START_KEYED)]
        ),
        edits=st.integers(1, 3),
        dialect=st.sampled_from(sorted(_STORED_DIALECTS)),
    )
    def test_mutated_block_is_typed(self, data, algorithm, edits, dialect):
        document = _auction_document(compaction=_STORED_DIALECTS[dialect]())
        device = document.store.device
        block_ids = document.handle.block_ids
        block_id = block_ids[data.draw(st.integers(0, len(block_ids) - 1))]
        block = bytearray(device._blocks[block_id])
        for _ in range(edits):
            block[data.draw(st.integers(0, len(block) - 1))] = data.draw(
                st.integers(0, 255)
            )
        device._blocks[block_id] = bytes(block)
        try:
            output = _sort(document, *algorithm)
        except ReproError:
            return
        try:
            output.to_string()
        except ReproError:
            pass


class _CorruptingDevice(BlockDevice):
    """A device that overwrites bytes of one formation or merge run block
    as it is written: the ``target``-th block of those categories."""

    def __init__(self, target, edits, block_size=512):
        super().__init__(block_size=block_size)
        self.target = target
        self.edits = edits  # (offset, byte) pairs, offsets taken modulo
        self.seen = 0

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        datas = list(datas)
        if category in ("run_write", "merge_write"):
            for index, data in enumerate(datas):
                if self.seen == self.target and data:
                    block = bytearray(data)
                    for offset, byte in self.edits:
                        block[offset % len(block)] = byte
                    datas[index] = bytes(block)
                self.seen += 1
        super().write_blocks(block_ids, datas, category, stream)


_RUN_FUZZ_EVENTS = list(level_fanout_events([30, 4, 3], seed=3, pad_bytes=24))


class TestCorruptRunBlocks:
    """A run block corrupted on the device - formation runs, merge
    outputs and the subtree runs NEXSORT writes - fails the sort with a
    typed ``ReproError``, never ``IndexError``: both sorts' emits read
    run records without bounds checks."""

    @settings(max_examples=200, deadline=None)
    @given(
        algorithm=st.sampled_from(["nexsort", "mergesort"]),
        target=st.integers(0, 39),
        edits=st.lists(
            st.tuples(st.integers(0, 511), st.integers(0, 255)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_run_block_is_typed(self, algorithm, target, edits):
        from repro.baselines import external_merge_sort

        device = _CorruptingDevice(target, edits)
        document = Document.from_events(RunStore(device), _RUN_FUZZ_EVENTS)
        try:
            if algorithm == "mergesort":
                output = external_merge_sort(document, _START_KEYED, 6)[0]
            else:
                output = nexsort(document, _START_KEYED, 6)[0]
            output.to_string()
        except ReproError:
            pass

    @pytest.mark.parametrize(
        "edit", [(7, 0x7F), (14, 0x00), (14, 0xFF), (98, 0x7F)]
    )
    def test_merge_sort_emit_converts_short_records(self, edit):
        """Cases where merge sort's emit indexed past a corrupted record
        of the first formation run and leaked ``IndexError``."""
        from repro.baselines import external_merge_sort

        device = _CorruptingDevice(0, [edit])
        document = Document.from_events(RunStore(device), _RUN_FUZZ_EVENTS)
        with pytest.raises(CodecError):
            external_merge_sort(document, _START_KEYED, 6)
