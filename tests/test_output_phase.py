"""Tests for the output phase: expanding the tree of sorted runs."""

from repro.baselines import sort_element
from repro.core import nexsort
from repro.io import BlockDevice, RunStore
from repro.xml import Document

from .conftest import chain_tree, random_tree


def run(tree, spec, memory_blocks=8, threshold_bytes=None):
    device = BlockDevice(block_size=256)
    store = RunStore(device)
    doc = Document.from_element(store, tree)
    result, report = nexsort(
        doc,
        spec,
        memory_blocks=memory_blocks,
        threshold_bytes=threshold_bytes,
    )
    return device, result, report


class TestRunTreeExpansion:
    def test_small_threshold_builds_deep_run_tree(self, spec):
        """Many collapses produce nested pointers; output flattens them."""
        tree = random_tree(2, depth=6, max_fanout=4, pad=12)
        _device, result, report = run(tree, spec, threshold_bytes=96)
        assert report.x > 5
        assert result.to_element() == sort_element(tree, spec)

    def test_output_copies_records_not_pointers(self, spec):
        from repro.xml.tokens import RunPointer

        tree = random_tree(3, depth=5, max_fanout=5, pad=8)
        _device, result, report = run(tree, spec, threshold_bytes=128)
        assert report.x > 1
        tokens = list(result.iter_tokens("export"))
        assert not any(isinstance(t, RunPointer) for t in tokens)

    def test_lemma_4_12_run_read_accounting(self, spec):
        """Run-block reads = total run blocks + pointer resumptions.

        Each of the x-1 non-root pointers causes at most one extra read of
        the block where traversal resumes, so run reads are bounded by
        run_blocks + (x - 1) and can never be below run_blocks.
        """
        tree = random_tree(5, depth=6, max_fanout=5, pad=12)
        _device, _result, report = run(tree, spec, threshold_bytes=128)
        run_reads = report.output_stats.category_total("run_read")
        assert run_reads >= report.run_blocks_written - report.x
        assert run_reads <= report.run_blocks_written + report.x

    def test_output_blocks_match_input_scale(self, spec):
        tree = random_tree(6, depth=5, max_fanout=5, pad=12)
        _device, result, report = run(tree, spec)
        output_writes = report.output_stats.category_total("output")
        assert output_writes == result.block_count

    def test_intermediate_runs_freed_after_output(self, spec):
        device, result, report = run(
            random_tree(7, depth=5, max_fanout=5, pad=12),
            spec,
            threshold_bytes=128,
        )
        # Only the input document and the output document remain.
        from repro.io import BlockDevice

        expected = result.block_count + report.input_blocks
        assert device.occupied_blocks <= expected + 2


class TestOutputLocationStack:
    def test_deep_nesting_spills_output_stack(self, spec):
        """A chain collapsed at tiny thresholds nests runs deeply enough
        to overflow the one-block output-location stack (Lemma 4.13)."""
        tree = chain_tree(600)
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(store, tree)
        result, report = nexsort(
            doc, spec, memory_blocks=6, threshold_bytes=64
        )
        assert report.x > 50
        assert report.output_stack_page_outs > 0
        assert report.output_stack_page_ins > 0
        assert result.to_element() == sort_element(tree, spec)

    def test_shallow_documents_do_not_spill(self, spec):
        tree = random_tree(8, depth=3, max_fanout=4)
        _device, _result, report = run(tree, spec)
        assert report.output_stack_page_outs == 0


class TestCorruptRuns:
    def test_empty_record_is_typed(self):
        """A run record with no type byte raises RunError, not
        IndexError, when the walk looks for pointers."""
        import pytest

        from repro.core.output import output_phase
        from repro.errors import RunError
        from repro.xml import TokenCodec
        from repro.xml.tokens import EndTag, RunPointer, StartTag

        store = RunStore(BlockDevice(block_size=256))
        codec = TokenCodec()
        writer = store.create_writer()
        writer.write_records(
            [codec.encode(StartTag("a")), b"", codec.encode(EndTag("a"))]
        )
        run = writer.finish()
        with pytest.raises(RunError):
            output_phase(store, RunPointer(run_id=run.run_id))
