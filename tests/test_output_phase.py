"""Tests for the output phase: expanding the tree of sorted runs."""

import pytest

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


def _walk_one_record_at_a_time(store, root_run_id):
    """The output walk as a loop of ``read_record`` calls: the reference
    for the span-at-a-time walk (same reads, writes and tokens)."""
    from repro.errors import RunError
    from repro.xml import TokenCodec
    from repro.xml.codec import TYPE_POINTER

    codec = TokenCodec()
    writer = store.create_writer("output")
    saved = []
    current = store.get(root_run_id)
    reader = store.open_reader(current, category="run_read", readahead=0)
    while True:
        record = reader.read_record()
        if record is None:
            if not saved:
                return writer.finish()
            current, offset = saved.pop()
            reader = store.open_reader(
                current, offset=offset, category="run_read", readahead=0
            )
        elif not record:
            raise RunError("corrupt run: empty record")
        elif record[0] == TYPE_POINTER:
            saved.append((current, reader.tell()))
            current = store.get(codec.decode(record).run_id)
            reader = store.open_reader(
                current, category="run_read", readahead=0
            )
        else:
            writer.write_record(record)
            store.device.stats.record_tokens(1)


_TEXT_M = object()


def _pointer_tree(block_size, pad, middle=_TEXT_M):
    """A store holding a child run and a root run whose pointer to it
    follows a start and a ``pad``-character text; ``middle`` is a record
    placed between the text and the pointer (default: a one-character
    text; None: no record)."""
    from repro.xml import TokenCodec
    from repro.xml.tokens import EndTag, RunPointer, StartTag, Text

    codec = TokenCodec()
    device = BlockDevice(block_size=block_size)
    store = RunStore(device)
    child = store.create_writer()
    child.write_records(
        [codec.encode(StartTag("c")), codec.encode(Text("child")),
         codec.encode(EndTag("c"))]
    )
    child = child.finish()
    root = store.create_writer()
    records = [codec.encode(StartTag("r")), codec.encode(Text("t" * pad))]
    if middle is _TEXT_M:
        middle = codec.encode(Text("m"))
    if middle is not None:
        records.append(middle)
    pointer = codec.encode(RunPointer(run_id=child.run_id))
    records += [pointer, codec.encode(Text("after")),
                codec.encode(EndTag("r"))]
    root.write_records(records)
    root = root.finish()
    # Framed offset and size of the pointer record.
    start = sum(4 + len(record) for record in records[: records.index(pointer)])
    return device, store, root.run_id, start, 4 + len(pointer)


def _walks_agree(block_size, pad, middle=_TEXT_M):
    from repro.core.output import output_phase
    from repro.xml.tokens import RunPointer

    device, store, root, start, size = _pointer_tree(block_size, pad, middle)
    ref_device, ref_store, ref_root, _start, _size = _pointer_tree(
        block_size, pad, middle
    )
    before = device.stats.snapshot()
    handle, _ins, _outs = output_phase(store, RunPointer(run_id=root))
    ref_before = ref_device.stats.snapshot()
    ref_handle = _walk_one_record_at_a_time(ref_store, ref_root)
    assert device.stats.since(before).counter_totals() == (
        ref_device.stats.since(ref_before).counter_totals()
    )
    assert list(store.open_reader(handle)) == list(
        ref_store.open_reader(ref_handle)
    )
    return start, size


class TestSpanWalk:
    """The walk copies framed spans up to each pointer, and reads, writes
    and charges exactly what a record-at-a-time walk does."""

    BLOCK = 64

    def _pad_for(self, where):
        """A text pad that puts the pointer record where asked."""
        for pad in range(200):
            _d, _s, _r, start, size = _pointer_tree(self.BLOCK, pad)
            offset = start % self.BLOCK
            if where == "start" and offset == 0:
                return pad
            if where == "middle" and 0 < offset and offset + size < self.BLOCK:
                return pad
            if where == "end" and offset + size == self.BLOCK:
                return pad
            if where == "straddle" and offset + size > self.BLOCK > offset:
                return pad
        raise AssertionError(where)

    @pytest.mark.parametrize("where", ["start", "middle", "end", "straddle"])
    def test_pointer_positions(self, where):
        start, size = _walks_agree(self.BLOCK, self._pad_for(where))
        offset = start % self.BLOCK
        assert {
            "start": offset == 0,
            "middle": 0 < offset and offset + size < self.BLOCK,
            "end": offset + size == self.BLOCK,
            "straddle": offset + size > self.BLOCK > offset,
        }[where]

    def test_straddling_text_record(self):
        # A 90-character text spans two 64-byte blocks.
        _walks_agree(self.BLOCK, 90)

    def test_no_pointer(self):
        _walks_agree(self.BLOCK, 30, middle=None)

    @pytest.mark.parametrize("pad", [3, 20, 40])
    def test_empty_record_is_typed(self, pad):
        from repro.core.output import output_phase
        from repro.errors import RunError
        from repro.xml.tokens import RunPointer

        _device, store, root, _start, _size = _pointer_tree(
            self.BLOCK, pad, middle=b""
        )
        with pytest.raises(RunError):
            output_phase(store, RunPointer(run_id=root))
