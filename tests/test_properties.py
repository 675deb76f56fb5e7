"""Cross-cutting property tests: all sorters agree, structure preserved."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import external_merge_sort, is_fully_sorted, sort_element
from repro.core import nexsort
from repro.io import BlockDevice, RunStore
from repro.io.budget import MINIMUM_NEXSORT_BLOCKS
from repro.keys import ByAttribute, SortSpec
from repro.merge.engine import MergeOptions
from repro.xml import CompactionConfig, Document, Element

SPEC = SortSpec(default=ByAttribute("name"))

#: Ordering criteria of the oracle grid: the start-computable attribute key
#: (fused scan) and a child-path key in the style of the auction spec,
#: evaluated at end tags (token scan).
ORACLE_SPECS = {
    "*=@name": SPEC,
    "item=k, *=@name": SortSpec.parse("item=k, *=@name"),
}


@st.composite
def document_tree(draw, max_depth=4):
    """Random documents with duplicate-prone keys and optional text."""

    def node(depth):
        name = draw(st.integers(min_value=0, max_value=30))
        children = []
        if depth < max_depth:
            count = draw(st.integers(min_value=0, max_value=4))
            children = [node(depth + 1) for _ in range(count)]
        text = ""
        if not children and draw(st.booleans()):
            text = f"t{draw(st.integers(min_value=0, max_value=99))}"
        return Element("n", {"name": f"k{name:03d}"}, text, children)

    return node(1)


settings_kwargs = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSorterAgreement:
    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_nexsort_matches_oracle(self, tree):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = nexsort(doc, SPEC, memory_blocks=6)
        assert result.to_element() == sort_element(tree, SPEC)

    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_merge_sort_matches_oracle(self, tree):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = external_merge_sort(doc, SPEC, memory_blocks=4)
        assert result.to_element() == sort_element(tree, SPEC)

    @settings(**settings_kwargs)
    @given(
        tree=document_tree(),
        threshold=st.sampled_from([48, 128, 512]),
    )
    def test_nexsort_threshold_invariance(self, tree, threshold):
        """Any threshold yields the same sorted document."""
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = nexsort(
            doc, SPEC, memory_blocks=6, threshold_bytes=threshold
        )
        assert result.to_element() == sort_element(tree, SPEC)

    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_compact_and_plain_agree(self, tree):
        plain_device = BlockDevice(block_size=256)
        plain_store = RunStore(plain_device)
        plain_doc = Document.from_element(plain_store, tree)
        plain, _ = nexsort(plain_doc, SPEC, memory_blocks=6)

        compact_device = BlockDevice(block_size=256)
        compact_store = RunStore(compact_device)
        compact_doc = Document.from_element(
            compact_store, tree, CompactionConfig()
        )
        compact, _ = nexsort(compact_doc, SPEC, memory_blocks=6)
        assert plain.to_element() == compact.to_element()


@st.composite
def keyed_tree(draw, max_depth=4):
    """Documents for the child-path spec: ``item`` elements whose sort key
    is the text of an optional ``k`` child (numeric or not, often
    duplicated or missing), nested among plain named elements."""

    def node(depth):
        children = []
        if depth < max_depth:
            count = draw(st.integers(min_value=0, max_value=4))
            children = [node(depth + 1) for _ in range(count)]
        name = f"k{draw(st.integers(min_value=0, max_value=30)):03d}"
        if not draw(st.booleans()):
            return Element("n", {"name": name}, "", children)
        key = draw(
            st.sampled_from(["", "7", "12", "7.5", "-3", "ab", "Ab", "ab"])
        )
        if key:
            children.insert(
                draw(st.integers(min_value=0, max_value=len(children))),
                Element("k", {}, key, []),
            )
        return Element("item", {"name": name}, "", children)

    return node(1)


merge_options = st.builds(
    MergeOptions,
    run_formation=st.sampled_from(["load-sort", "replacement-selection"]),
    merge_kernel=st.sampled_from(["heap", "loser-tree"]),
)


class TestOracleAcrossConfigurations:
    """Output equals the DOM oracle beyond the defaults: both scans, graceful
    degeneration, every merge-engine combination, and memory at the
    algorithm's floor and a few blocks above it."""

    @settings(**settings_kwargs)
    @given(
        data=st.data(),
        spec_name=st.sampled_from(sorted(ORACLE_SPECS)),
        flat=st.booleans(),
        options=merge_options,
        extra_blocks=st.integers(min_value=0, max_value=3),
    )
    def test_nexsort_matches_oracle(
        self, data, spec_name, flat, options, extra_blocks
    ):
        spec = ORACLE_SPECS[spec_name]
        tree = data.draw(
            document_tree() if spec is SPEC else keyed_tree()
        )
        doc = Document.from_element(RunStore(BlockDevice(block_size=256)), tree)
        result, _report = nexsort(
            doc, spec,
            memory_blocks=MINIMUM_NEXSORT_BLOCKS + extra_blocks,
            flat_optimization=flat,
            merge_options=options,
        )
        assert result.to_element() == sort_element(tree, spec)

    @settings(**settings_kwargs)
    @given(
        tree=document_tree(),
        options=merge_options,
        extra_blocks=st.integers(min_value=0, max_value=3),
    )
    def test_merge_sort_matches_oracle(self, tree, options, extra_blocks):
        doc = Document.from_element(RunStore(BlockDevice(block_size=256)), tree)
        result, _report = external_merge_sort(
            doc, SPEC, memory_blocks=3 + extra_blocks, merge_options=options
        )
        assert result.to_element() == sort_element(tree, SPEC)


class TestStructuralInvariants:
    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_sorting_preserves_unordered_structure(self, tree):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = nexsort(doc, SPEC, memory_blocks=6)
        assert (
            result.to_element().unordered_canonical()
            == tree.unordered_canonical()
        )

    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_output_is_fully_sorted(self, tree):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, _report = nexsort(doc, SPEC, memory_blocks=6)
        assert is_fully_sorted(result.to_element(), SPEC)

    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_lemma_4_6_holds_for_every_document(self, tree):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        _result, report = nexsort(
            doc, SPEC, memory_blocks=6, threshold_bytes=96
        )
        assert report.sum_si == report.element_count - 1 + report.x


class TestMergeProperties:
    @settings(**settings_kwargs)
    @given(tree=document_tree())
    def test_split_then_merge_recovers_children(self, tree):
        """Splitting a document's children and merging the sorted halves
        recovers every child (an outerjoin identity)."""
        from repro.merge import structural_merge

        device = BlockDevice(block_size=256)
        store = RunStore(device)
        left_tree = Element(
            tree.tag, {"name": "root"}, tree.text, tree.children[0::2]
        )
        right_tree = Element(
            tree.tag, {"name": "root"}, tree.text, tree.children[1::2]
        )
        left_doc = Document.from_element(store, left_tree)
        right_doc = Document.from_element(store, right_tree)
        left, _ = nexsort(left_doc, SPEC, memory_blocks=6)
        right, _ = nexsort(right_doc, SPEC, memory_blocks=6)
        merged, report = structural_merge(left, right, SPEC)
        total_children = sum(
            1 for _ in merged.to_element().children
        )
        # Children with identical keys merge pairwise; everything else
        # survives individually, so counts can only shrink by the number
        # of key collisions across the halves.
        assert total_children <= len(tree.children)
        assert is_fully_sorted(merged.to_element(), SPEC)
