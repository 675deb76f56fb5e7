"""The run-formation / merge engine: kernels, formation modes, keys.

Covers the :mod:`repro.merge.engine` pieces in isolation (loser tree,
replacement selection, normalized keys) and the cross-kernel agreement
property: every combination of the engine knobs must produce output
element-for-element identical to the paper-faithful defaults and to the
in-memory oracle.
"""

from __future__ import annotations

import random
from math import ceil, log2

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import external_merge_sort, sort_element
from repro.baselines.merging import merge_pass
from repro.core import nexsort
from repro.errors import RunError, SortSpecError
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.merge.engine import (
    DEFAULT_MERGE_OPTIONS,
    LoserTree,
    MergeOptions,
    RunFormer,
    normalized_path_key,
)
from repro.xml import Document, Element
from repro.xml.tokens import KEY_NUMBER, KEY_STRING, MISSING_KEY

from .conftest import WriteLoggingDevice, flat_tree, random_tree

SPEC = SortSpec(default=ByAttribute("name"))

ALL_OPTIONS = [
    MergeOptions(run_formation=formation, merge_kernel=kernel)
    for formation in ("load-sort", "replacement-selection")
    for kernel in ("heap", "loser-tree")
]


class TestMergeOptions:
    def test_defaults_are_paper_faithful(self):
        options = MergeOptions()
        assert options.is_default
        assert not options.replacement_selection
        assert not options.loser_tree
        assert not options.counted_comparisons
        assert options == DEFAULT_MERGE_OPTIONS

    def test_counted_accounting_rides_with_loser_tree(self):
        assert MergeOptions(merge_kernel="loser-tree").counted_comparisons
        assert not MergeOptions(
            run_formation="replacement-selection"
        ).counted_comparisons

    def test_unknown_run_formation_rejected(self):
        with pytest.raises(SortSpecError):
            MergeOptions(run_formation="quicksort")

    def test_unknown_merge_kernel_rejected(self):
        with pytest.raises(SortSpecError):
            MergeOptions(merge_kernel="btree")

    def test_no_sort_kernel_knob(self):
        # The byte-record path is the only implementation.
        with pytest.raises(TypeError):
            MergeOptions(kernel="columnar")


def _pulls_from_lists(sources):
    def make(items):
        iterator = iter(items)

        def pull():
            for key in iterator:
                return key, (key, id(items))
            return None

        return pull

    return [make(items) for items in sources]


class TestLoserTree:
    def test_merges_sorted_sources(self):
        rng = random.Random(42)
        sources = [
            sorted(rng.randrange(1000) for _ in range(rng.randrange(80)))
            for _ in range(7)
        ]
        merged = [key for key, _rec in LoserTree(_pulls_from_lists(sources))]
        assert merged == sorted(key for items in sources for key in items)

    def test_comparison_bound(self):
        rng = random.Random(7)
        k = 5
        sources = [
            sorted(rng.randrange(1000) for _ in range(50)) for _ in range(k)
        ]
        stats = BlockDevice(block_size=256).stats
        merged = list(
            LoserTree(_pulls_from_lists(sources), stats=stats)
        )
        n = sum(len(items) for items in sources)
        assert len(merged) == n
        # Build costs at most k - 1 matches, each pop at most ceil(log2 k).
        assert stats.merge_comparisons <= (n + k) * ceil(log2(k))
        assert stats.merge_comparisons > 0

    def test_ties_break_by_source_index(self):
        sources = [[5, 5], [5, 5], [5, 5]]
        tagged = []
        for index, items in enumerate(sources):
            iterator = iter(items)
            tagged.append(
                (lambda it=iterator, i=index: next(
                    ((key, i) for key in it), None
                ))
            )
        out = [source for _key, source in LoserTree(tagged)]
        assert out == [0, 0, 1, 1, 2, 2]

    def test_single_and_empty_sources(self):
        single = [
            key for key, _r in LoserTree(_pulls_from_lists([[1, 2, 3]]))
        ]
        assert single == [1, 2, 3]
        assert list(LoserTree(_pulls_from_lists([[], [], []]))) == []
        mixed = [key for key, _r in LoserTree(_pulls_from_lists([[], [4]]))]
        assert mixed == [4]

    def test_exhaustion_callback_fires_once_per_source(self):
        drained = []
        tree = LoserTree(
            _pulls_from_lists([[1], [], [2, 3]]),
            on_exhausted=drained.append,
        )
        list(tree)
        assert sorted(drained) == [0, 1, 2]


def _read_run(store, handle):
    return list(store.open_reader(handle))


class TestRunFormer:
    def _form(self, store, pairs, capacity, **kwargs):
        former = RunFormer(
            store,
            capacity,
            MergeOptions(run_formation="replacement-selection", **kwargs),
        )
        for key, payload in pairs:
            former.add(key, payload)
        return former, former.finish()

    def test_replacement_selection_runs_are_sorted_and_complete(
        self, store
    ):
        rng = random.Random(3)
        pairs = [
            (rng.randrange(500), f"p{i:04d}".encode()) for i in range(400)
        ]
        former, runs = self._form(store, pairs, capacity=256)
        recovered = []
        for handle in runs:
            records = _read_run(store, handle)
            keys = [int(r[1:5]) for r in records]
            recovered.extend(records)
        assert sorted(recovered) == sorted(p for _k, p in pairs)
        assert former.run_lengths == [h.record_count for h in runs]

    def test_replacement_selection_beats_load_sort_on_random_input(
        self, store
    ):
        rng = random.Random(11)
        pairs = [(rng.random(), b"x" * 16) for _ in range(600)]
        _former, rs_runs = self._form(store, list(pairs), capacity=256)
        load_former = RunFormer(store, 256, MergeOptions())
        for key, payload in pairs:
            load_former.add(key, payload)
        load_runs = load_former.finish()
        assert len(rs_runs) < len(load_runs)

    def test_sorted_input_yields_one_run(self, store):
        pairs = [(index, b"y" * 8) for index in range(300)]
        _former, runs = self._form(store, pairs, capacity=128)
        assert len(runs) == 1
        assert runs[0].record_count == 300

    def test_single_record_run(self, store):
        former, runs = self._form(store, [(9, b"only")], capacity=64)
        assert len(runs) == 1
        assert runs[0].record_count == 1
        assert former.run_lengths == [1]
        assert _read_run(store, runs[0]) == [b"only"]

    def test_all_equal_keys_stay_stable_in_one_run(self, store):
        payloads = [f"r{i:03d}".encode() for i in range(200)]
        _former, runs = self._form(
            store, [(5, p) for p in payloads], capacity=128
        )
        assert len(runs) == 1
        assert _read_run(store, runs[0]) == payloads


def _formed(pairs, capacity, options, batched):
    """(write log, run records, key sidecars, run_lengths) of forming
    ``pairs``: one ``add`` per pair, or batched through ``room`` and
    ``extend`` the way the subtree formation loop batches them."""
    device = WriteLoggingDevice()
    store = RunStore(device)
    former = RunFormer(store, capacity, options)
    pending, pending_bytes = [], 0
    for key, payload in pairs:
        if not batched:
            former.add(key, payload)
        elif pending_bytes + len(payload) <= former.room:
            pending.append((key, payload))
            pending_bytes += len(payload)
        else:
            if pending:
                former.extend(pending, pending_bytes)
                pending, pending_bytes = [], 0
            former.add(key, payload)
    if pending:
        former.extend(pending, pending_bytes)
    runs = former.finish()
    return (
        device.log,
        [_read_run(store, handle) for handle in runs],
        [store.key_sidecars.get(handle.run_id) for handle in runs],
        former.run_lengths,
    )


class TestRoomAndExtend:
    """``extend`` within ``room`` leaves what one ``add`` per pair
    leaves: the same runs, sidecars, run lengths, and device writes
    with the same counters before each."""

    @settings(max_examples=120, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 90), max_size=80),
        capacity=st.integers(1, 400),
        options=st.sampled_from(
            [
                MergeOptions(),
                MergeOptions(merge_kernel="loser-tree"),
                MergeOptions(run_formation="replacement-selection"),
                MergeOptions(compress="container", compress_capacity=True),
            ]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_batched_matches_one_add_per_pair(
        self, sizes, capacity, options, seed
    ):
        rng = random.Random(seed)
        pairs = [
            (rng.randbytes(rng.randrange(1, 4)), bytes([65 + i % 26]) * size)
            for i, size in enumerate(sizes)
        ]
        assert _formed(pairs, capacity, options, True) == _formed(
            pairs, capacity, options, False
        )

    def test_room_counts_down_to_the_flush(self, store):
        former = RunFormer(store, 10, MergeOptions())
        assert former.room == 9
        former.extend([(b"a", b"abcd"), (b"b", b"efgh")], 8)
        assert former.room == 1 and store.device.stats.total_ios == 0
        former.add(b"c", b"i")  # fits the room: no flush
        assert former.room == 0 and former.run_lengths == []
        former.add(b"d", b"j")  # reaches the capacity: flushes
        assert former.run_lengths == [4] and former.room == 9

    def test_extend_keeps_the_pending_batch(self, store):
        """An empty batch takes the extended list itself; a pending one
        keeps its pairs and gains the new ones."""
        former = RunFormer(store, 100, MergeOptions())
        former.extend([(b"b", b"2")], 1)
        former.add(b"d", b"4")
        former.extend([(b"c", b"3"), (b"a", b"1")], 2)
        runs = former.finish()
        assert former.run_lengths == [4]
        assert _read_run(store, runs[0]) == [b"1", b"2", b"3", b"4"]

    def test_bulk_adder_follows_an_adopted_batch(self, store):
        former = RunFormer(store, 100, MergeOptions())
        add = former.bulk_adder()
        former.extend([(b"b", b"2")], 1)
        add(b"a", b"1")
        runs = former.finish()
        assert _read_run(store, runs[0]) == [b"1", b"2"]

    def test_extend_past_room_raises_and_adds_nothing(self, store):
        former = RunFormer(store, 10, MergeOptions())
        with pytest.raises(RunError):
            former.extend([(b"a", b"0123456789")], 10)
        assert former.room == 9
        assert former.finish() == []

    @pytest.mark.parametrize(
        "options",
        [
            MergeOptions(run_formation="replacement-selection"),
            MergeOptions(compress="container", compress_capacity=True),
        ],
    )
    def test_modes_that_write_on_any_add_have_no_room(self, store, options):
        assert RunFormer(store, 1000, options).room == 0


_atoms = st.one_of(
    st.just(MISSING_KEY),
    st.builds(
        lambda v: (KEY_NUMBER, v),
        st.floats(allow_nan=False),
    ),
    st.builds(lambda v: (KEY_STRING, v), st.text(max_size=6)),
)
_components = st.tuples(_atoms, st.integers(min_value=0, max_value=2**40))
_paths = st.lists(_components, max_size=4).map(tuple)


class TestNormalizedKeys:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(left=_paths, right=_paths)
    def test_byte_order_matches_tuple_order(self, left, right):
        left_bytes = normalized_path_key(left)
        right_bytes = normalized_path_key(right)
        assert (left_bytes < right_bytes) == (left < right)
        assert (left_bytes == right_bytes) == (
            normalized_path_key(left) == normalized_path_key(right)
        )

    def test_negative_zero_collapses(self):
        plus = normalized_path_key((((KEY_NUMBER, 0.0), 1),))
        minus = normalized_path_key((((KEY_NUMBER, -0.0), 1),))
        assert plus == minus


class TestPerRunSequentiality:
    def _make_runs(self, store, count=6, records=120):
        runs = []
        for run_index in range(count):
            writer = store.create_writer("run_write")
            for i in range(records):
                writer.write_record(
                    f"{run_index:02d}:{i:05d}".encode() + b"z" * 40
                )
            runs.append(writer.finish())
        return runs

    def test_loser_tree_reads_each_run_sequentially(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        runs = self._make_runs(store)
        options = MergeOptions(merge_kernel="loser-tree")
        out = list(
            merge_pass(store, runs, lambda r: r, "merge_read", options)
        )
        assert out == sorted(out)
        counters = device.stats.by_category["merge_read"]
        # Interleaved per-run reads are judged per stream: almost every
        # block access continues its own run's stream.
        assert counters.seq_reads == counters.reads

    def test_heap_kernel_keeps_seed_single_stream_judgment(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        runs = self._make_runs(store)
        out = list(merge_pass(store, runs, lambda r: r, "merge_read"))
        assert out == sorted(out)
        counters = device.stats.by_category["merge_read"]
        # The seed's single-stream judgment sees the interleaving as
        # mostly random accesses; this is exactly what the per-run
        # streams of the loser-tree kernel fix.
        assert counters.seq_reads < counters.reads


def _sorted_doc(tree, options, memory_blocks=6, **nexsort_kwargs):
    device = BlockDevice(block_size=256)
    store = RunStore(device)
    doc = Document.from_element(store, tree)
    return nexsort(
        doc,
        SPEC,
        memory_blocks=memory_blocks,
        merge_options=options,
        **nexsort_kwargs,
    )


class TestKernelAgreement:
    """Every knob combination matches the defaults and the oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_merge_sort_combos_match_oracle(self, seed):
        tree = random_tree(seed, depth=4, max_fanout=6, pad=12)
        oracle = sort_element(tree, SPEC)
        for options in ALL_OPTIONS:
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            doc = Document.from_element(store, tree)
            result, report = external_merge_sort(
                doc, SPEC, memory_blocks=4, merge_options=options
            )
            assert result.to_element() == oracle, options
            if report.initial_runs:
                assert report.max_run_length >= report.avg_run_length

    @pytest.mark.parametrize("seed", [4, 5])
    def test_nexsort_combos_match_oracle(self, seed):
        tree = random_tree(seed, depth=5, max_fanout=5, pad=10)
        oracle = sort_element(tree, SPEC)
        for options in ALL_OPTIONS:
            result, _report = _sorted_doc(tree, options)
            assert result.to_element() == oracle, options

    def test_nexsort_flat_degeneration_combos_match_oracle(self):
        tree = flat_tree(400, seed=9)
        oracle = sort_element(tree, SPEC)
        for options in ALL_OPTIONS:
            result, report = _sorted_doc(
                tree, options, flat_optimization=True
            )
            assert result.to_element() == oracle, options
            assert report.flat_partial_runs > 0

    def test_all_equal_keys_are_stable_everywhere(self):
        children = [
            Element("item", {"name": "same"}, f"t{i}", [])
            for i in range(150)
        ]
        tree = Element("root", {}, "", children)
        oracle = sort_element(tree, SPEC)
        for options in ALL_OPTIONS:
            result, _report = _sorted_doc(
                tree, options, flat_optimization=True
            )
            assert result.to_element() == oracle, options
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            doc = Document.from_element(store, tree)
            sorted_doc, _rep = external_merge_sort(
                doc, SPEC, memory_blocks=4, merge_options=options
            )
            assert sorted_doc.to_element() == oracle, options


class TestReportFields:
    def test_merge_sort_report_run_lengths_and_comparisons(self):
        tree = flat_tree(500, seed=13)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        _result, report = external_merge_sort(
            doc,
            SPEC,
            memory_blocks=4,
            merge_options=MergeOptions(
                run_formation="replacement-selection",
                merge_kernel="loser-tree",
            ),
        )
        assert report.initial_runs >= 1
        assert report.avg_run_length > 0
        assert report.max_run_length >= report.avg_run_length
        assert report.merge_comparisons > 0
        assert report.stats.comparisons >= report.merge_comparisons

    def test_nexsort_report_run_lengths(self):
        tree = flat_tree(500, seed=14)
        _result, report = _sorted_doc(
            tree,
            MergeOptions(run_formation="replacement-selection"),
            flat_optimization=True,
        )
        assert report.flat_partial_runs > 0
        assert report.avg_run_length > 0
        assert report.max_run_length >= report.avg_run_length

    def test_replacement_selection_shrinks_run_count(self):
        tree = flat_tree(600, seed=15)
        counts = {}
        for formation in ("load-sort", "replacement-selection"):
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            doc = Document.from_element(store, tree)
            _result, report = external_merge_sort(
                doc,
                SPEC,
                memory_blocks=4,
                merge_options=MergeOptions(run_formation=formation),
            )
            counts[formation] = report.initial_runs
        assert counts["replacement-selection"] < counts["load-sort"]
