"""Direct unit tests for the subtree-sorter internals."""

import random
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Document, SortSpec, nexsort
from repro.baselines.keypath import (
    decode_record,
    encode_record,
    records_from_annotated_events,
)
from repro.core.columnar import (
    END_FIELDS,
    fast_path_key,
    form_subtree_runs,
    normalized_atom_bytes,
    sort_subtree_records,
)
from repro.core.subtree import SubtreeSorter
from repro.errors import CodecError, ReproError, SortSpecError
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.merge.engine import MergeOptions, normalized_path_key
from repro.xml import TokenCodec
from repro.xml.compact import NameDictionary, restore_end_tags
from repro.xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    number_key,
    string_key,
)

from .conftest import scalar_reference, sha256_records


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


def sorted_tokens(tokens, sort_levels=None, compact=False, base_level=1):
    """(run tokens, units, real, stats) of an internal subtree sort."""
    device = BlockDevice(block_size=256)
    codec = TokenCodec()
    out, units, real = sort_subtree_records(
        codec.encode_batch(tokens), compact, False, base_level,
        sort_levels, device.stats,
    )
    return codec.decode_batch(out), units, real, device.stats


def unit_counts(tokens):
    """(units, real elements) of a token sequence: a unit is a start
    or a pointer; real elements expand pointers."""
    units = real = 0
    for token in tokens:
        if isinstance(token, StartTag):
            units += 1
            real += 1
        elif isinstance(token, RunPointer):
            units += 1
            real += token.element_count
    return units, real


class TestBuildSubtree:
    """The run an internal subtree sort builds from popped records."""

    def test_plain_structure(self):
        pointer = RunPointer(run_id=7, element_count=4, payload_bytes=100)
        unsorted = [
            StartTag("r"),
            StartTag("a"),
            Text("t"),
            EndTag("a"),
            pointer,
            StartTag("b"),
            EndTag("b"),
            EndTag("r"),
        ]
        tokens, units, real, _stats = sorted_tokens(
            plain_tokens(), sort_levels=0
        )
        assert tokens == unsorted
        assert (units, real) == (4, 7)
        # Children by key: b (1), a (2), the pointer (9).
        tokens, _units, _real, _stats = sorted_tokens(plain_tokens())
        assert tokens == [
            unsorted[0], *unsorted[5:7], *unsorted[1:4], pointer, unsorted[7]
        ]

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
        out, units, real, _stats = sorted_tokens(
            tokens, compact=True, base_level=3
        )
        assert out == [
            StartTag("r", level=3),
            StartTag("b", level=4),
            StartTag("a", level=4),
            Text("t", level=4),
            RunPointer(
                run_id=7, level=4, element_count=4, payload_bytes=100
            ),
        ]
        assert (units, real) == (4, 7)

    def test_end_tag_keys_override(self):
        """An end tag's key and position replace its start's: ``a``
        starts keyed 1, before ``b`` (2), and ends keyed by a string,
        which sorts after every number."""
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", key=number_key(1), pos=1),
            EndTag("a", key=string_key("late"), pos=1),
            StartTag("b", key=number_key(2), pos=2),
            EndTag("b", pos=2),
            EndTag("r", key=string_key("root"), pos=0),
        ]
        out, _units, _real, _stats = sorted_tokens(tokens)
        assert out == [
            StartTag("r"),
            StartTag("b"),
            EndTag("b"),
            StartTag("a"),
            EndTag("a"),
            EndTag("r"),
        ]

    def test_unbalanced_rejected(self):
        with pytest.raises(CodecError):
            sorted_tokens([StartTag("r")])

    def test_two_roots_rejected(self):
        tokens = [
            StartTag("a"), EndTag("a"), StartTag("b"), EndTag("b")
        ]
        with pytest.raises(CodecError):
            sorted_tokens(tokens)

    def test_compact_without_levels_rejected(self):
        with pytest.raises(CodecError):
            sorted_tokens([StartTag("r")], compact=True)


class TestSortAndSerialize:
    def test_sorting_orders_children(self):
        tokens, _units, _real, stats = sorted_tokens(plain_tokens())
        # Children by key: b (1), a (2), the pointer (9).
        assert tokens == [
            StartTag("r"),
            StartTag("b"),
            EndTag("b"),
            StartTag("a"),
            Text("t"),
            EndTag("a"),
            RunPointer(run_id=7, element_count=4, payload_bytes=100),
            EndTag("r"),
        ]
        assert stats.comparisons > 0

    def test_sort_levels_zero_keeps_order(self):
        tokens, _units, _real, stats = sorted_tokens(
            plain_tokens(), sort_levels=0
        )
        children = [
            t.tag if isinstance(t, StartTag) else "pointer"
            for t in tokens[1:]
            if isinstance(t, (StartTag, RunPointer))
        ]
        assert children == ["a", "pointer", "b"]
        assert stats.comparisons == 0

    def test_serialize_strips_annotations(self):
        tokens, _units, _real, _stats = sorted_tokens(plain_tokens())
        for token in tokens:
            if isinstance(token, (StartTag, EndTag, RunPointer)):
                assert token.key is None
                assert token.pos is None

    def test_serialize_compact_has_levels_no_ends(self):
        tokens, _units, _real, _stats = sorted_tokens(
            compact_subtree_tokens(plain_tokens()),
            compact=True,
            base_level=5,
        )
        assert not any(isinstance(t, EndTag) for t in tokens)
        starts = [t for t in tokens if isinstance(t, StartTag)]
        assert starts[0].level == 5
        assert all(s.level == 6 for s in starts[1:])

    def test_serialize_preserves_pointer_counts(self):
        tokens, _units, _real, _stats = sorted_tokens(plain_tokens())
        pointer = [t for t in tokens if isinstance(t, RunPointer)][0]
        assert pointer.element_count == 4
        assert pointer.run_id == 7


class TestHelpers:
    def test_count_units(self):
        _tokens, units, real, _stats = sorted_tokens(plain_tokens())
        assert units == 4  # r, a, pointer, b
        assert real == 3 + 4  # three real starts + pointer's 4 elements
        assert (units, real) == unit_counts(plain_tokens())


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


class _ListFormer:
    """A run former that only lists the pairs it receives; with no room,
    every pair arrives through its own ``add``."""

    room = 0

    def __init__(self):
        self.added = []

    def add(self, key, record):
        self.added.append((key, record))

    def extend(self, pairs, nbytes):
        raise AssertionError("extend past a room of 0")


class _ChargeList:
    """Stats that list each token charge."""

    def __init__(self):
        self.charges = []

    def record_tokens(self, count):
        self.charges.append(count)


def form(tokens, compact=False, sort_levels=None, names=None):
    """(added (key, record) pairs, (units, real), token charges) of
    form_subtree_runs over the encoded tokens."""
    records = TokenCodec(names).encode_batch(tokens)
    former = _ListFormer()
    stats = _ChargeList()
    counts = form_subtree_runs(
        (records,), compact, names is not None, sort_levels, former, stats,
    )
    return former.added, counts, stats.charges


class TestFormSubtreeRuns:
    """Key-path records spliced straight from a subtree's raw records."""

    def test_end_tag_keys_fill_starts(self):
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", pos=1),
            EndTag("a", key=string_key("k1"), pos=1),
            EndTag("r", key=string_key("k0"), pos=0),
        ]
        added, _counts, _charges = form(tokens)
        paths = [decode_record(record).path for _key, record in added]
        assert paths == [
            ((string_key("k0"), 0), (string_key("k1"), 1)),
            ((string_key("k0"), 0),),
        ]

    def test_sort_levels_mask_deep_components(self):
        """A component orders the child list above it: only depths
        ``2 .. sort_levels + 1`` keep their keys."""
        tokens = sibling_case("wide-siblings")  # three levels, no MISSING
        for sort_levels in (0, 1, 2):
            added, _counts, _charges = form(tokens, sort_levels=sort_levels)
            depths = set()
            for _key, record in added:
                path = decode_record(record).path
                for depth, (atom, _pos) in enumerate(path, start=1):
                    depths.add(depth)
                    kept = 2 <= depth <= sort_levels + 1
                    assert (atom != MISSING_KEY) == kept, (sort_levels, depth)
            assert depths == {1, 2, 3}

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("names_coded", [False, True])
    def test_matches_token_pipeline(self, name, compact, names_coded):
        """Same records, keys, order and charges as decoding to tokens
        and running records_from_annotated_events + encode_record."""
        plain = sibling_case(name)
        tokens = compact_subtree_tokens(plain) if compact else plain
        names = NameDictionary() if names_coded else None
        added, counts, charges = form(tokens, compact, names=names)
        events = restore_end_tags(tokens) if compact else tokens
        expected = [
            (normalized_path_key(record.path), encode_record(record, names))
            for record in records_from_annotated_events(events)
        ]
        assert added == expected
        assert charges == [1] * len(expected)
        assert counts == unit_counts(tokens)
        # The keys double as merge sidecars: they must be what the merge
        # would compute from the records.
        assert [key for key, _ in added] == [
            fast_path_key(record) for _, record in added
        ]

    def test_unkeyed_start_rejected(self):
        with pytest.raises(SortSpecError):
            form([StartTag("r", pos=0), EndTag("r", pos=0)])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), compact=st.booleans(), coded=st.booleans())
    def test_random_subtrees_match_token_pipeline(self, data, compact, coded):
        """Starts that repeat their tag, attributes and key (so later ones
        take the looked-up split), with keys whose last bytes look like a
        position varint's (non-ASCII strings, negative numbers), and
        positions of one to three varint bytes.  A former with room for
        every pair takes them through ``extend`` and one token charge."""
        heads = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b" * 130]),
                    st.sampled_from([(), (("n", "é"),), (("n", "v" * 200),)]),
                    st.one_of(
                        st.just(MISSING_KEY),
                        st.builds(number_key, st.sampled_from([-7.5, 3.0, -0.0])),
                        st.builds(string_key, st.sampled_from(["", "k", "é", "中"])),
                    ),
                ),
                min_size=1,
                max_size=3,
            )
        )
        positions = iter(
            sorted(data.draw(st.sets(st.integers(0, 3 * 10**5), min_size=40, max_size=40)))
        )

        def element(depth):
            tag, attrs, key = data.draw(st.sampled_from(heads))
            pos = next(positions)
            out = [StartTag(tag, attrs, key=key, pos=pos)]
            if data.draw(st.integers(0, 3)) == 0:
                out.append(Text("t"))
            for _ in range(data.draw(st.integers(0, 3)) if depth < 3 else 0):
                out.extend(element(depth + 1))
            out.append(EndTag(tag, pos=pos))
            return out

        plain = element(0)
        tokens = compact_subtree_tokens(plain) if compact else plain
        names = NameDictionary() if coded else None
        added, counts, charges = form(tokens, compact, names=names)
        events = restore_end_tags(tokens) if compact else tokens
        expected = [
            (normalized_path_key(record.path), encode_record(record, names))
            for record in records_from_annotated_events(events)
        ]
        assert added == expected
        assert charges == [1] * len(expected)
        assert counts == unit_counts(tokens)
        roomy = _ListFormer()
        roomy.room = 1 << 30
        roomy.extend = lambda pairs, nbytes: roomy.added.extend(pairs)
        stats = _ChargeList()
        records = TokenCodec(names).encode_batch(tokens)
        assert form_subtree_runs(
            (records,), compact, coded, None, roomy, stats
        ) == counts
        assert roomy.added == expected
        assert stats.charges == [len(expected)]
        assert set(records) <= {None}  # consumed


class TestColumnarSiblingGroups:
    """Batched sibling-group sorts reproduce the frozen results of the
    retired per-group ``list.sort`` path (``scalar_reference.json``)."""

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("sort_levels", [None, 1, 0])
    def test_sort_node_tree_kernel_parity(self, name, sort_levels):
        """The raw-record node tree sorts and serializes exactly as the
        retired token-object tree did."""
        expected = scalar_reference(f"sibling/{name}/{sort_levels}")
        records = TokenCodec().encode_batch(sibling_case(name))
        device = BlockDevice(block_size=256)
        out, _units, _real = sort_subtree_records(
            records, False, False, 1, sort_levels, device.stats
        )
        assert sha256_records(out) == expected["tokens_sha256"]
        assert device.stats.comparisons == expected["comparisons"]

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("names_coded", [False, True])
    def test_sort_records_matches_sort_tokens(self, name, compact, names_coded):
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


def end_tag_key_tokens():
    """Keys evaluated at end tags, as NEXSORT's token scan leaves them."""
    return [
        StartTag("r", pos=0),
        StartTag("a", pos=1),
        Text("x"),
        EndTag("a", key=string_key("k2"), pos=1),
        StartTag("b", pos=2),
        StartTag("c", pos=3),
        EndTag("c", key=number_key(1), pos=3),
        EndTag("b", key=string_key("k1"), pos=2),
        EndTag("r", key=string_key("root"), pos=0),
    ]


def test_internal_and_external_subtree_sorts_agree():
    """The two subtree-sort paths must produce identical runs.

    Covered: plain and names-coded input, keys on end tags, pointer
    children, and compacted mode, each fully sorted and with
    ``sort_levels`` 0 and 1.  In compacted mode the external path writes
    texts without a level while the internal path writes the owning
    element's level (both restore the same document); the runs are
    compared with text levels ignored.
    """
    cases = [
        ("plain", plain_tokens(), False, None),
        ("names-coded", plain_tokens(), False, NameDictionary()),
        ("end-tag keys", end_tag_key_tokens(), False, None),
        ("pointer children", sibling_case("pointer-children"), False, None),
        ("wide siblings", sibling_case("wide-siblings"), False, None),
        (
            "compact",
            compact_subtree_tokens(sibling_case("wide-siblings")),
            True,
            None,
        ),
        (
            "compact pointers",
            compact_subtree_tokens(sibling_case("pointer-children")),
            True,
            NameDictionary(),
        ),
    ]

    def run_tokens(tokens, compact, names, capacity, sort_levels):
        codec = TokenCodec(names)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store, codec, compact=compact, capacity_bytes=capacity, fan_in=2
        )
        result = sorter.sort_tokens(tokens, 500, 1, sort_levels)
        out = []
        for record in store.open_reader(result.run):
            token = codec.decode(record)
            if isinstance(token, Text):
                token = Text(token.text)
            out.append(token)
        return out, result

    for label, tokens, compact, names in cases:
        for sort_levels in (None, 0, 1):
            internal, internal_result = run_tokens(
                tokens, compact, names, 10**6, sort_levels
            )
            external, external_result = run_tokens(
                tokens, compact, names, 16, sort_levels
            )
            assert internal_result.internal, label
            assert not external_result.internal, label
            assert internal == external, (label, sort_levels)
            for field in ("units", "real_elements", "root_key", "root_pos"):
                assert getattr(internal_result, field) == getattr(
                    external_result, field
                ), (label, field)


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("case", ["two roots", "text after the root"])
def test_records_after_the_root_are_rejected(case, compact):
    """Internal and external subtree sorts reject the same subtrees: a
    record after the root has closed raises CodecError on both paths,
    instead of a run holding two roots or a text silently dropped."""
    if case == "two roots":
        plain = [
            StartTag("a", key=number_key(2), pos=0),
            EndTag("a", pos=0),
            StartTag("b", key=number_key(1), pos=1),
            EndTag("b", pos=1),
        ]
    else:
        plain = [
            StartTag("r", key=number_key(2), pos=0),
            EndTag("r", pos=0),
            Text("t"),
        ]
    tokens = compact_subtree_tokens(plain) if compact else plain
    for capacity in (10**6, 16):
        sorter = SubtreeSorter(
            RunStore(BlockDevice(block_size=256)), TokenCodec(),
            compact=compact, capacity_bytes=capacity, fan_in=2,
        )
        with pytest.raises(CodecError):
            sorter.sort_tokens(tokens, 500, 1, None)


class _Counting:
    """A sort key that counts the ``<`` comparisons made on it."""

    def __init__(self, value, counter):
        self.value = value
        self.counter = counter

    def __lt__(self, other):
        self.counter[0] += 1
        return self.value < other.value


class TestOnePass:
    """The one-pass internal sort against a recursive sort of the drawn
    tree, with the comparisons charged per sorted child list."""

    KEYS = st.one_of(
        st.none(),
        st.just(MISSING_KEY),
        st.builds(number_key, st.sampled_from([-1.5, 0.0, 2.0, 7.0])),
        st.builds(string_key, st.sampled_from(["", "a", "b", "é"])),
    )

    def draw_node(self, data, depth, compact):
        """One element or pointer: a dict with its annotations, content
        (texts and child nodes in document order) and effective key."""
        pos = data.draw(st.integers(0, 6))
        key = data.draw(self.KEYS)
        if depth > 1 and data.draw(st.integers(0, 4)) == 0:
            return {
                "pointer": (
                    data.draw(st.integers(0, 300)),
                    data.draw(st.integers(1, 5)),
                    data.draw(st.integers(0, 200)),
                ),
                "key": key, "pos": pos,
                "order": (key or MISSING_KEY, pos),
            }
        end_key = end_pos = None
        if not compact:
            end_key = data.draw(self.KEYS)
            end_pos = data.draw(st.sampled_from([None, pos, 6 - pos]))
        content = []
        width = data.draw(st.integers(0, 4)) if depth < 4 else 0
        for _ in range(width):
            if data.draw(st.integers(0, 2)) == 0:
                content.append(data.draw(st.sampled_from(["", "x", "&é"])))
            else:
                content.append(self.draw_node(data, depth + 1, compact))
        return {
            "pointer": None,
            "tag": data.draw(st.sampled_from(["a", "b"])),
            "attrs": data.draw(st.sampled_from([(), (("n", "v"),)])),
            "key": key, "pos": pos, "end_key": end_key, "end_pos": end_pos,
            "content": content,
            "order": (
                end_key or key or MISSING_KEY,
                pos if end_pos is None else end_pos,
            ),
        }

    def records(self, node, depth, compact):
        """The node's data-stack tokens in document order."""
        if node["pointer"]:
            run_id, count, payload = node["pointer"]
            return [
                RunPointer(
                    run_id=run_id, key=node["key"], pos=node["pos"],
                    level=depth if compact else None,
                    element_count=count, payload_bytes=payload,
                )
            ]
        out = [
            StartTag(
                node["tag"], node["attrs"], key=node["key"], pos=node["pos"],
                level=depth if compact else None,
            )
        ]
        for item in node["content"]:
            if type(item) is str:
                out.append(Text(item, level=depth if compact else None))
            else:
                out.extend(self.records(item, depth + 1, compact))
        if not compact:
            out.append(
                EndTag(node["tag"], key=node["end_key"], pos=node["end_pos"])
            )
        return out

    def expected(self, node, depth, args, charges):
        """(run tokens, units, real) of the recursively sorted node;
        appends each sorted child list's charge to ``charges``."""
        compact, base_level, sort_levels, counted = args
        level = base_level + depth - 1 if compact else None
        if node["pointer"]:
            run_id, count, payload = node["pointer"]
            pointer = RunPointer(
                run_id=run_id, level=level, element_count=count,
                payload_bytes=payload,
            )
            return [pointer], 1, count
        out = [StartTag(node["tag"], node["attrs"], level=level)]
        texts = [item for item in node["content"] if type(item) is str]
        if texts:
            out.append(Text("".join(texts), level=level))
        children = [item for item in node["content"] if type(item) is dict]
        n = len(children)
        if n > 1 and (sort_levels is None or depth <= sort_levels):
            if counted:
                counter = [0]
                children = sorted(
                    children,
                    key=lambda child: _Counting(child["order"], counter),
                )
                charges.append(counter[0])
            else:
                children = sorted(children, key=lambda child: child["order"])
                charges.append(n * max(1, ceil(log2(n))))
        units = real = 1
        for child in children:
            tokens, child_units, child_real = self.expected(
                child, depth + 1, args, charges
            )
            out.extend(tokens)
            units += child_units
            real += child_real
        if not compact:
            out.append(EndTag(node["tag"]))
        return out, units, real

    def scan_fields(self, data, tokens, codec):
        """Fields for a random set of starts as the document scan splits
        them (a keyed, positioned start that stayed in memory), and
        :data:`END_FIELDS` for ends that add nothing to their start."""
        fields = []
        opened = []
        for token in tokens:
            known = None
            if type(token) is StartTag:
                opened.append(token)
                if (
                    token.key is not None
                    and token.pos is not None
                    and data.draw(st.booleans())
                ):
                    known = (
                        normalized_atom_bytes(token.key),
                        token.pos,
                        codec.encode(StartTag(token.tag, token.attrs)),
                        codec.encode(EndTag(token.tag)),
                    )
            elif type(token) is EndTag:
                start = opened.pop()
                if (
                    token.key is None
                    and token.pos in (None, start.pos)
                    and data.draw(st.booleans())
                ):
                    known = END_FIELDS
            fields.append(known)
        return fields

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_recursive_sort(self, data):
        storage = data.draw(st.sampled_from(["plain", "names", "levels", "full"]))
        compact = storage in ("levels", "full")
        names = NameDictionary() if storage in ("names", "full") else None
        codec = TokenCodec(names)
        sort_levels = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
        counted = data.draw(st.booleans())
        base_level = data.draw(st.integers(1, 3))
        root = self.draw_node(data, 1, compact)
        tokens = self.records(root, 1, compact)
        fields = None
        if not compact and data.draw(st.booleans()):
            fields = self.scan_fields(data, tokens, codec)
        charges = []
        expected, units, real = self.expected(
            root, 1, (compact, base_level, sort_levels, counted), charges
        )
        device = BlockDevice(block_size=256)
        out, got_units, got_real = sort_subtree_records(
            codec.encode_batch(tokens), compact, names is not None,
            base_level, sort_levels, device.stats, counted=counted,
            fields=fields,
        )
        assert codec.decode_batch(out) == expected
        assert (got_units, got_real) == (units, real)
        assert device.stats.comparisons == sum(charges)


def mutated(records, rng):
    """One seeded mutation or truncation of a record list."""
    records = list(records)
    index = rng.randrange(len(records))
    record = records[index]
    action = rng.randrange(5) if record else 2
    if action == 0:
        records[index] = record[: rng.randrange(len(record))]
    elif action == 1:
        position = rng.randrange(len(record))
        records[index] = (
            record[:position]
            + bytes([rng.randrange(256)])
            + record[position + 1 :]
        )
    elif action == 2:
        del records[index]
    elif action == 3:
        records.insert(index, record)
    else:
        records = records[: index + 1]
    return records


class TestMalformedRecords:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        capacity=st.sampled_from([10**6, 16]),
        compact=st.booleans(),
        names_coded=st.booleans(),
        sort_levels=st.sampled_from([None, 0, 1]),
    )
    def test_sort_records_raises_typed_errors(
        self, seed, capacity, compact, names_coded, sort_levels
    ):
        """Mutated or truncated subtree records either sort or raise a
        ReproError subclass - never IndexError, struct.error or
        UnicodeDecodeError - on both the internal and external path."""
        rng = random.Random(seed)
        names = NameDictionary() if names_coded else None
        codec = TokenCodec(names)
        plain = sibling_case("pointer-children")
        plain.insert(1, Text("é"))
        tokens = compact_subtree_tokens(plain) if compact else plain
        records = codec.encode_batch(tokens)
        for _ in range(rng.randrange(1, 4)):
            if records:
                records = mutated(records, rng)
        device = BlockDevice(block_size=256)
        sorter = SubtreeSorter(
            RunStore(device), codec, compact=compact,
            capacity_bytes=capacity, fan_in=2,
        )
        try:
            sorter.sort_records(records, 500, 1, sort_levels)
        except ReproError:
            pass


def captured_internal_sorts(monkeypatch, events, block_size, memory_blocks,
                            **options):
    """(records, fields, base_level, sort_levels) of every internal subtree
    sort a NEXSORT run of ``events`` hands its sorter."""
    calls = []
    original = SubtreeSorter.sort_records

    def capture(self, records, payload_bytes, base_level, sort_levels,
                fields=None):
        if self.sorts_internally(payload_bytes):
            calls.append(
                (list(records), list(fields), base_level, sort_levels)
            )
        else:
            assert fields is None  # an external sort parses every record
        return original(
            self, records, payload_bytes, base_level, sort_levels,
            fields=fields,
        )

    monkeypatch.setattr(SubtreeSorter, "sort_records", capture)
    document = Document.from_events(
        RunStore(BlockDevice(block_size=block_size)), events
    )
    nexsort(document, SortSpec.parse("*=@name"), memory_blocks, **options)
    return calls


def start_residency(records, fields):
    """(starts with fields, starts without) of one captured sort."""
    with_fields = without = 0
    for record, known in zip(records, fields):
        if record[0] == 1:
            if known:
                with_fields += 1
            else:
                without += 1
    return with_fields, without


def assert_fields_change_nothing(calls, counted=False):
    """Each captured sort gives the same records, units, real elements
    and comparison charge with its fields as from its bytes alone."""
    for records, fields, base_level, sort_levels in calls:
        results = []
        for given in (fields, None):
            device = BlockDevice(block_size=256)
            out, units, real = sort_subtree_records(
                records, False, False, base_level, sort_levels,
                device.stats, counted=counted, fields=given,
            )
            results.append((out, units, real, device.stats.comparisons))
        assert results[0] == results[1]


class TestResidentFields:
    """Internal subtree sorts read the scan's fields where records stayed
    in memory, and match the byte parse exactly."""

    def test_all_resident_figure5_shape(self, monkeypatch):
        calls = captured_internal_sorts(
            monkeypatch,
            level_fanout_events([6, 6, 6, 8], seed=3, pad_bytes=24),
            block_size=1024, memory_blocks=48,
        )
        assert calls
        for records, fields, _base, _levels in calls:
            assert start_residency(records, fields)[1] == 0
        assert_fields_change_nothing(calls)

    def test_mixed_residency(self, monkeypatch):
        calls = captured_internal_sorts(
            monkeypatch,
            level_fanout_events([11, 11, 11, 5], seed=5, pad_bytes=24),
            block_size=512, memory_blocks=16,
        )
        residency = [start_residency(r, f) for r, f, _b, _l in calls]
        # Some sort mixes resident starts with paged-in ones: a spill
        # policy change must not silently drop this case.
        assert any(resident and paged for resident, paged in residency)
        assert any(not paged for _resident, paged in residency)
        assert_fields_change_nothing(calls)

    def test_depth_limited(self, monkeypatch):
        calls = captured_internal_sorts(
            monkeypatch,
            level_fanout_events([6, 6, 6, 8], seed=4, pad_bytes=24),
            block_size=1024, memory_blocks=48, depth_limit=1,
        )
        assert any(levels is not None for _r, _f, _b, levels in calls)
        assert_fields_change_nothing(calls)

    def test_counted_comparisons(self, monkeypatch):
        calls = captured_internal_sorts(
            monkeypatch,
            level_fanout_events([6, 6, 6, 8], seed=5, pad_bytes=24),
            block_size=1024, memory_blocks=48,
            merge_options=MergeOptions(merge_kernel="loser-tree"),
        )
        assert calls
        assert_fields_change_nothing(calls, counted=True)
