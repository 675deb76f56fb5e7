"""Direct unit tests for the subtree-sorter internals."""

import random

import pytest

from repro.core.subtree import (
    SubtreeSorter,
    annotate_starts_from_ends,
    build_subtree,
    count_units,
    mask_keys_below,
    serialize_node_tree,
    sort_node_tree,
)
from repro.errors import CodecError
from repro.io import BlockDevice, RunStore
from repro.merge.engine import MergeOptions
from repro.xml import TokenCodec
from repro.xml.compact import NameDictionary
from repro.xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    number_key,
    string_key,
)

from .conftest import each_argsort_backend, scalar_reference, sha256_records


def plain_tokens():
    """<r key=5><a key=2>t</a><ptr key=9/><b key=1/></r> annotated."""
    return [
        StartTag("r", key=number_key(5), pos=0),
        StartTag("a", key=number_key(2), pos=1),
        Text("t"),
        EndTag("a", pos=1),
        RunPointer(
            run_id=7, key=number_key(9), pos=2, element_count=4,
            payload_bytes=100,
        ),
        StartTag("b", key=number_key(1), pos=3),
        EndTag("b", pos=3),
        EndTag("r", pos=0),
    ]


class TestBuildSubtree:
    def test_plain_structure(self):
        root = build_subtree(plain_tokens(), compact=False)
        assert root.start.tag == "r"
        assert [c.key for c in root.children] == [
            number_key(2),
            number_key(9),
            number_key(1),
        ]
        assert root.children[1].is_pointer
        assert root.children[0].texts == ["t"]

    def test_compact_structure(self):
        tokens = [
            StartTag("r", key=number_key(5), pos=0, level=3),
            StartTag("a", key=number_key(2), pos=1, level=4),
            Text("t", level=4),
            RunPointer(
                run_id=7, key=number_key(9), pos=2, level=4,
                element_count=4, payload_bytes=100,
            ),
            StartTag("b", key=number_key(1), pos=3, level=4),
        ]
        root = build_subtree(tokens, compact=True)
        assert len(root.children) == 3
        assert root.children[1].is_pointer

    def test_end_tag_keys_override(self):
        tokens = [
            StartTag("r", pos=0),
            EndTag("r", key=string_key("late"), pos=0),
        ]
        root = build_subtree(tokens, compact=False)
        assert root.key == string_key("late")

    def test_unbalanced_rejected(self):
        with pytest.raises(CodecError):
            build_subtree([StartTag("r")], compact=False)

    def test_two_roots_rejected(self):
        tokens = [
            StartTag("a"), EndTag("a"), StartTag("b"), EndTag("b")
        ]
        with pytest.raises(CodecError):
            build_subtree(tokens, compact=False)

    def test_compact_without_levels_rejected(self):
        with pytest.raises(CodecError):
            build_subtree([StartTag("r")], compact=True)


class TestSortAndSerialize:
    def test_sorting_orders_children(self):
        device = BlockDevice(block_size=256)
        root = build_subtree(plain_tokens(), compact=False)
        sort_node_tree(root, None, device.stats)
        assert [c.key for c in root.children] == [
            number_key(1),
            number_key(2),
            number_key(9),
        ]
        assert device.stats.comparisons > 0

    def test_sort_levels_zero_keeps_order(self):
        device = BlockDevice(block_size=256)
        root = build_subtree(plain_tokens(), compact=False)
        sort_node_tree(root, 0, device.stats)
        assert [c.key for c in root.children] == [
            number_key(2),
            number_key(9),
            number_key(1),
        ]

    def test_serialize_strips_annotations(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 1, compact=False))
        for token in tokens:
            if isinstance(token, (StartTag, EndTag)):
                assert token.key is None
                assert token.pos is None

    def test_serialize_compact_has_levels_no_ends(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 5, compact=True))
        assert not any(isinstance(t, EndTag) for t in tokens)
        starts = [t for t in tokens if isinstance(t, StartTag)]
        assert starts[0].level == 5
        assert all(s.level == 6 for s in starts[1:])

    def test_serialize_preserves_pointer_counts(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 1, compact=False))
        pointer = [t for t in tokens if isinstance(t, RunPointer)][0]
        assert pointer.element_count == 4
        assert pointer.run_id == 7


class TestHelpers:
    def test_count_units(self):
        units, real = count_units(plain_tokens())
        assert units == 4  # r, a, pointer, b
        assert real == 3 + 4  # three real starts + pointer's 4 elements

    def test_annotate_starts_from_ends(self):
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", pos=1),
            EndTag("a", key=string_key("k1"), pos=1),
            EndTag("r", key=string_key("k0"), pos=0),
        ]
        fixed = annotate_starts_from_ends(tokens)
        assert fixed[0].key == string_key("k0")
        assert fixed[1].key == string_key("k1")

    def test_mask_keys_below(self):
        masked = mask_keys_below(plain_tokens(), sort_levels=1)
        # Root (level 1) keeps its key; children (level 2) are masked.
        assert masked[0].key == number_key(5)
        child_starts = [
            t
            for t in masked[1:]
            if isinstance(t, (StartTag, RunPointer))
        ]
        assert all(t.key == MISSING_KEY for t in child_starts)


class TestSorterDispatch:
    def make_sorter(self, capacity_bytes):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        return SubtreeSorter(
            store, TokenCodec(), compact=False,
            capacity_bytes=capacity_bytes, fan_in=2,
        )

    def test_small_subtree_sorts_internally(self):
        sorter = self.make_sorter(capacity_bytes=10**6)
        result = sorter.sort_tokens(plain_tokens(), 100, 1, None)
        assert result.internal
        assert result.units == 4
        assert result.root_key == number_key(5)

    def test_large_subtree_sorts_externally(self):
        sorter = self.make_sorter(capacity_bytes=16)
        result = sorter.sort_tokens(plain_tokens(), 1000, 1, None)
        assert not result.internal


def sibling_case(name):
    """Plain-mode annotated subtree tokens for one parity shape."""
    pos = iter(range(1, 10**6))

    def element(tag, key, children=(), text=None):
        p = next(pos)
        out = [StartTag(tag, key=key, pos=p)]
        if text is not None:
            out.append(Text(text))
        for child in children:
            out.extend(child)
        out.append(EndTag(tag, pos=p))
        return out

    if name == "duplicate-keys":
        # Equal keys must keep document order (position tie-break).
        children = [
            element("c", number_key(value), text=f"t{i}")
            for i, value in enumerate([2, 1, 2, 1, 2, 1, 2])
        ]
    elif name == "single-child-chain":
        # Every sibling list has one child: nothing to sort, all levels
        # visited (n == 1 groups are skipped).
        inner = element("leaf", string_key("z"), text="deep")
        for depth in range(30):
            inner = element(f"n{depth}", number_key(depth), [inner])
        children = [inner]
    elif name == "wide-siblings":
        # A sibling list far wider than any merge fan-in, with key
        # collisions and nested grandchildren.
        rng = random.Random(42)
        children = []
        for i in range(60):
            grandchildren = [
                element("g", number_key(rng.randrange(5)))
                for _ in range(rng.randrange(3))
            ]
            key = (
                string_key(f"k{rng.randrange(8)}")
                if i % 2
                else number_key(rng.randrange(8))
            )
            children.append(element("w", key, grandchildren))
    elif name == "pointer-children":
        children = [
            element("a", number_key(4)),
            [
                RunPointer(
                    run_id=9,
                    key=number_key(1),
                    pos=next(pos),
                    element_count=5,
                    payload_bytes=64,
                )
            ],
            element("a", MISSING_KEY),
            element("a", number_key(1)),
        ]
    else:  # pragma: no cover - test bug
        raise AssertionError(name)
    root = [StartTag("r", key=number_key(0), pos=0)]
    for child in children:
        root.extend(child)
    root.append(EndTag("r", pos=0))
    return root


SIBLING_CASES = [
    "duplicate-keys",
    "single-child-chain",
    "wide-siblings",
    "pointer-children",
]


def compact_subtree_tokens(plain):
    """End-tag-eliminated form of a plain annotated subtree (levels on
    starts/texts/pointers, no end tags), as NEXSORT's data stack holds
    it in compacted mode."""
    out = []
    level = 0
    for token in plain:
        if isinstance(token, StartTag):
            level += 1
            out.append(
                StartTag(
                    token.tag,
                    token.attrs,
                    key=token.key,
                    pos=token.pos,
                    level=level,
                )
            )
        elif isinstance(token, EndTag):
            level -= 1
        elif isinstance(token, Text):
            out.append(Text(token.text, level=level))
        else:
            out.append(
                RunPointer(
                    run_id=token.run_id,
                    key=token.key,
                    pos=token.pos,
                    level=level + 1,
                    element_count=token.element_count,
                    payload_bytes=token.payload_bytes,
                )
            )
    return out


class TestColumnarSiblingGroups:
    """Batched sibling-group sorts reproduce the frozen results of the
    retired per-group ``list.sort`` path (``scalar_reference.json``)."""

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("sort_levels", [None, 1, 0])
    def test_sort_node_tree_kernel_parity(
        self, monkeypatch, name, sort_levels
    ):
        expected = scalar_reference(f"sibling/{name}/{sort_levels}")
        codec = TokenCodec()
        for _backend in each_argsort_backend(monkeypatch):
            device = BlockDevice(block_size=256)
            root = build_subtree(sibling_case(name), compact=False)
            sort_node_tree(root, sort_levels, device.stats)
            tokens = serialize_node_tree(root, 1, compact=False)
            assert sha256_records(codec.encode_batch(tokens)) == (
                expected["tokens_sha256"]
            )
            assert device.stats.comparisons == expected["comparisons"]

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("names_coded", [False, True])
    def test_sort_records_matches_sort_tokens(
        self, monkeypatch, name, compact, names_coded
    ):
        """The raw-record path equals the frozen decode -> sort_tokens
        results, bit for bit: run contents, counters, and the RunPointer
        summary."""
        plain = sibling_case(name)
        tokens = compact_subtree_tokens(plain) if compact else plain
        names = NameDictionary() if names_coded else None
        codec = TokenCodec(names)
        records = [codec.encode(token) for token in tokens]
        expected = scalar_reference(
            f"subtree/{name}/{compact}/{names_coded}"
        )
        for _backend in each_argsort_backend(monkeypatch):
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            sorter = SubtreeSorter(
                store, codec, compact, capacity_bytes=10**6, fan_in=2
            )
            result = sorter.sort_records(records, 500, 1, None)
            assert sha256_records(store.open_reader(result.run)) == (
                expected["run_sha256"]
            )
            assert device.stats.snapshot().counter_totals() == (
                expected["counters"]
            )
            assert list(result.root_key) == expected["root_key"]
            for field in (
                "units",
                "real_elements",
                "payload_bytes",
                "root_pos",
                "internal",
            ):
                assert getattr(result, field) == expected[field], field

    def test_sort_records_root_key_from_end_tag(self):
        """Plain-mode subtree-evaluated keys ride on the end tag; the
        fused root summary must fall back to it like sort_tokens."""
        codec = TokenCodec()
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", key=number_key(2), pos=1),
            EndTag("a", pos=1),
            EndTag("r", key=string_key("late"), pos=0),
        ]
        records = [codec.encode(token) for token in tokens]
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store,
            codec,
            compact=False,
            capacity_bytes=10**6,
            fan_in=2,
        )
        result = sorter.sort_records(records, 100, 1, None)
        assert result.root_key == string_key("late")
        assert result.root_pos == 0

    def test_sort_records_counted_mode_falls_back(self):
        """Counted-comparison mode charges the comparisons it performs."""
        codec = TokenCodec()
        records = [
            codec.encode(token)
            for token in sibling_case("duplicate-keys")
        ]

        def run(options):
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            sorter = SubtreeSorter(
                store,
                codec,
                compact=False,
                capacity_bytes=10**6,
                fan_in=2,
                options=options,
            )
            result = sorter.sort_records(records, 500, 1, None)
            return list(store.open_reader(result.run)), device.stats

        counted = MergeOptions(merge_kernel="loser-tree")
        analytic = MergeOptions()
        counted_contents, counted_stats = run(counted)
        analytic_contents, analytic_stats = run(analytic)
        assert counted_contents == analytic_contents
        # Counted mode records what the comparison sequence actually
        # did, which differs from the analytic n*ceil(log2 n) charge.
        assert counted_stats.comparisons != analytic_stats.comparisons


def test_internal_and_external_subtree_sorts_agree():
    """The two subtree-sort paths must produce identical runs."""
    codec = TokenCodec()

    def run_tokens(capacity):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store, codec, compact=False, capacity_bytes=capacity, fan_in=2
        )
        result = sorter.sort_tokens(plain_tokens(), 500, 1, None)
        return [
            codec.decode(record)
            for record in store.open_reader(result.run)
        ], result

    internal_tokens, internal_result = run_tokens(10**6)
    external_tokens, external_result = run_tokens(16)
    assert internal_result.internal
    assert not external_result.internal
    assert internal_tokens == external_tokens
