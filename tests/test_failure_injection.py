"""Failure injection: corruption and misuse must fail loudly and typed.

Errors should never pass silently: a corrupted block, a truncated record,
or a misused structure must surface as the package's typed exceptions,
never as an IndexError/UnicodeDecodeError leaking from internals or -
worse - silently wrong output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, ReproError, XMLSyntaxError
from repro.io import BlockDevice, RunStore
from repro.xml import Document, TokenCodec, parse_events
from repro.xml.codec import decode_key_atom, read_varint

from .conftest import random_tree


class TestCorruptTokenRecords:
    @settings(max_examples=150, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_decoding_garbage_raises_typed_errors(self, garbage):
        codec = TokenCodec()
        try:
            codec.decode(garbage)
        except ReproError:
            pass  # typed failure: good
        except (UnicodeDecodeError, OverflowError, ValueError):
            pass  # string decode of random bytes: acceptable, contained
        # Anything else (IndexError, KeyError...) fails the test.

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.binary(max_size=32),
        position=st.integers(min_value=0, max_value=32),
    )
    def test_varint_reader_never_crashes_uncontrolled(self, data, position):
        position = min(position, len(data))
        try:
            read_varint(data, position)
        except CodecError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=32))
    def test_key_atom_decoder_contained(self, data):
        try:
            decode_key_atom(data, 0)
        except (CodecError, UnicodeDecodeError):
            pass

    def test_truncated_token_record(self):
        codec = TokenCodec()
        from repro.xml.tokens import StartTag

        encoded = codec.encode(
            StartTag("element", (("attr", "value"),))
        )
        for cut in range(1, len(encoded)):
            try:
                codec.decode(encoded[:cut])
            except (ReproError, UnicodeDecodeError):
                pass


class TestCorruptDeviceContents:
    def test_overwritten_run_block_raises_not_garbage(self, spec):
        """Corrupting a sorted-run block mid-sort surfaces as a typed
        error (or a parse failure), never silently wrong output."""
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        tree = random_tree(5, depth=4, max_fanout=4, pad=10)
        doc = Document.from_element(store, tree)

        # Corrupt one block of the stored document.
        victim = doc.handle.block_ids[len(doc.handle.block_ids) // 2]
        device.write_block(victim, b"\xff" * 200, "corruption")

        from repro.core import nexsort

        with pytest.raises((ReproError, UnicodeDecodeError, ValueError)):
            result, _ = nexsort(doc, spec, memory_blocks=8)
            # If decoding happened to survive, the output must still be
            # a well-formed document - force full materialization.
            result.to_element()


class TestParserFuzzing:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=200))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            list(parse_events(text))
        except XMLSyntaxError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        mutation_point=st.integers(min_value=0, max_value=200),
        replacement=st.characters(),
    )
    def test_mutated_valid_document(self, mutation_point, replacement):
        """Flipping one character of a valid document either still parses
        or raises XMLSyntaxError - never an internal error."""
        from repro.xml import element_to_string

        text = element_to_string(random_tree(1, depth=3, max_fanout=3))
        mutation_point = min(mutation_point, len(text) - 1)
        mutated = (
            text[:mutation_point] + replacement + text[mutation_point + 1 :]
        )
        try:
            list(parse_events(mutated))
        except XMLSyntaxError:
            pass


class TestMisuse:
    def test_reading_document_from_freed_blocks(self, spec):
        from repro.errors import DeviceError, RunError

        device = BlockDevice(block_size=256)
        store = RunStore(device)
        doc = Document.from_element(
            store, random_tree(2, depth=3, max_fanout=3)
        )
        doc.free()
        with pytest.raises((DeviceError, RunError)):
            doc.to_element()

    def test_sorting_with_insufficient_memory_is_typed(self, spec):
        from repro.core import NexSorter
        from repro.errors import SortSpecError

        with pytest.raises(SortSpecError):
            NexSorter(spec, 1)

    def test_stack_misuse_is_typed(self):
        from repro.errors import StackError
        from repro.io import ExternalStack

        device = BlockDevice(block_size=256)
        stack = ExternalStack(device, 1, "t")
        stack.push(b"abcdef")
        with pytest.raises(StackError):
            stack.pop_through(3)  # mid-record

    def test_budget_over_subscription_is_typed(self):
        from repro.errors import MemoryBudgetExceeded
        from repro.io import MemoryBudget

        budget = MemoryBudget(4)
        budget.reserve(4)
        with pytest.raises(MemoryBudgetExceeded):
            budget.reserve(1)
