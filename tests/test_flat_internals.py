"""Direct unit tests for the graceful-degeneration internals."""

import pytest

from repro.core.flat import (
    ChildGroup,
    PartialRunWriter,
    decode_group,
    encode_group,
    group_sort_key,
    groups_from_region,
    split_children,
)
from repro.errors import CodecError
from repro.io import BlockDevice, RunStore
from repro.xml import TokenCodec
from repro.xml.tokens import (
    EndTag,
    RunPointer,
    StartTag,
    Text,
    number_key,
)

CODEC = TokenCodec()


def region_tokens():
    """Two complete children and a loose text, as popped off the stack."""
    return [
        Text("frame text"),
        StartTag("a", key=number_key(2), pos=1),
        Text("inner"),
        EndTag("a", pos=1),
        RunPointer(
            run_id=3, key=number_key(1), pos=2, element_count=5,
            payload_bytes=60,
        ),
    ]


def region_records():
    return CODEC.encode_batch(region_tokens())


def split(tokens, compact):
    """split_children of the encoded tokens, decoded back to tokens."""
    texts, children = split_children(
        CODEC.encode_batch(tokens), compact, False
    )
    return (
        [CODEC.decode(text).text for text in texts],
        [CODEC.decode_batch(child) for child in children],
    )


class TestSplitRegion:
    def test_plain_split(self):
        texts, children = split(region_tokens(), compact=False)
        assert texts == ["frame text"]
        assert len(children) == 2
        assert isinstance(children[0][0], StartTag)
        assert isinstance(children[1][0], RunPointer)

    def test_nested_children_stay_grouped(self):
        tokens = [
            StartTag("a", key=number_key(1), pos=1),
            StartTag("b", pos=2),
            EndTag("b", pos=2),
            EndTag("a", pos=1),
        ]
        _texts, children = split(tokens, compact=False)
        assert len(children) == 1
        assert len(children[0]) == 4

    def test_compact_split_uses_levels(self):
        tokens = [
            Text("frame", level=2),
            StartTag("a", key=number_key(2), pos=1, level=3),
            Text("inner", level=3),
            StartTag("b", pos=2, level=4),
            StartTag("c", key=number_key(9), pos=3, level=3),
        ]
        texts, children = split(tokens, compact=True)
        assert texts == ["frame"]
        assert len(children) == 2
        assert len(children[0]) == 3  # a, its text, b

    def test_open_child_rejected(self):
        tokens = [StartTag("a", pos=1)]  # no matching end
        with pytest.raises(CodecError):
            split(tokens, compact=False)


class TestGroupCodec:
    def test_round_trip(self):
        group = ChildGroup(
            key=number_key(7),
            pos=12,
            units=3,
            real=9,
            token_bytes=[b"one", b"two"],
        )
        decoded = decode_group(encode_group(group))
        assert decoded.key == group.key
        assert decoded.pos == group.pos
        assert decoded.units == group.units
        assert decoded.real == group.real
        assert decoded.token_bytes == group.token_bytes

    @pytest.mark.parametrize("cut", [1, 2])
    def test_truncated_token_raises_codec_error(self, cut):
        group = ChildGroup(number_key(3), 4, 1, 1, [b"\x03\x04"])
        with pytest.raises(CodecError):
            decode_group(encode_group(group)[:-cut])

    def test_sort_key_reads_header_only(self):
        group = ChildGroup(number_key(7), 12, 1, 1, [b"payload"])
        assert group_sort_key(encode_group(group)) == (number_key(7), 12)


class TestGroupsFromRegion:
    def test_groups_sorted_by_key(self):
        device = BlockDevice(block_size=256)
        codec = TokenCodec()
        texts, groups = groups_from_region(
            region_records(), False, False, 2, None, device.stats
        )
        assert [codec.decode(text).text for text in texts] == ["frame text"]
        assert [g.key for g in groups] == [number_key(1), number_key(2)]
        # The pointer child contributes its run's element count.
        assert groups[0].real == 5
        assert groups[1].real == 1

    def test_partial_run_round_trip(self):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        _texts, groups = groups_from_region(
            region_records(), False, False, 2, None, device.stats
        )
        writer = PartialRunWriter(store)
        writer.write_groups(groups)
        handle = writer.finish()
        decoded = [
            decode_group(record)
            for record in store.open_reader(handle)
        ]
        assert [g.key for g in decoded] == [g.key for g in groups]

    def test_child_subtrees_internally_sorted(self):
        device = BlockDevice(block_size=256)
        codec = TokenCodec()
        tokens = [
            StartTag("parent", key=number_key(1), pos=1),
            StartTag("x", key=number_key(9), pos=2),
            EndTag("x", pos=2),
            StartTag("x", key=number_key(3), pos=3),
            EndTag("x", pos=3),
            EndTag("parent", pos=1),
        ]
        _texts, groups = groups_from_region(
            codec.encode_batch(tokens), False, False, 2, None, device.stats
        )
        decoded = [codec.decode(b) for b in groups[0].token_bytes]
        inner_tags = [
            t.tag for t in decoded if isinstance(t, StartTag)
        ]
        assert inner_tags == ["parent", "x", "x"]
        # Sorting happened: the serialized group has the x's reordered.
        # Verify by rebuilding and checking nothing is lost.
        assert sum(isinstance(t, EndTag) for t in decoded) == 3
