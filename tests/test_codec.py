"""Unit and property tests for the binary token codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.xml import NameDictionary, TokenCodec
from repro.xml.codec import (
    decode_key_atom,
    encode_key_atom,
    encode_varint,
    is_pointer_record,
    read_varint,
    write_varint,
)
from repro.xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    number_key,
    string_key,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 2**20, 2**40]
    )
    def test_round_trip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, pos = read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_varint(bytearray(), -1)

    def test_truncated_raises(self):
        out = bytearray()
        write_varint(out, 2**20)
        with pytest.raises(CodecError):
            read_varint(bytes(out[:-1]) + b"\x80", len(out))

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2**62))
    def test_round_trip_property(self, value):
        out = bytearray()
        write_varint(out, value)
        assert read_varint(bytes(out), 0) == (value, len(out))

    @pytest.mark.parametrize(
        "value",
        [0, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, 2**63],
    )
    def test_encode_varint_matches_write_varint(self, value):
        """Each fast path and its boundaries frame like the loop."""
        out = bytearray()
        write_varint(out, value)
        assert encode_varint(value) == bytes(out)

    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2**64))
    def test_encode_varint_round_trip(self, value):
        encoded = encode_varint(value)
        assert read_varint(encoded, 0) == (value, len(encoded))

    @pytest.mark.parametrize("value", [-1, -0x80, -0x4000, -(2**63)])
    def test_encode_varint_negative_rejected(self, value):
        with pytest.raises(CodecError):
            encode_varint(value)


class TestKeyAtoms:
    @pytest.mark.parametrize(
        "atom",
        [
            MISSING_KEY,
            number_key(0),
            number_key(-12.5),
            number_key(1e18),
            string_key(""),
            string_key("Durham"),
            string_key("ünïcode ✓"),
        ],
    )
    def test_round_trip(self, atom):
        out = bytearray()
        encode_key_atom(out, atom)
        decoded, pos = decode_key_atom(bytes(out), 0)
        assert decoded == atom
        assert pos == len(out)

    def test_atom_ordering_is_total(self):
        atoms = [MISSING_KEY, number_key(1), number_key(2), string_key("a")]
        assert sorted(atoms) == atoms  # missing < numbers < strings

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            decode_key_atom(b"\x07", 0)


def token_examples():
    return [
        StartTag("company"),
        StartTag("region", (("name", "NE"),)),
        StartTag(
            "employee",
            (("ID", "454"), ("pad", "x" * 50)),
            key=number_key(454),
            pos=7,
            level=4,
        ),
        Text(""),
        Text("Smith & Jones <esc>"),
        Text("levelled", level=3),
        EndTag("region"),
        EndTag("employee", key=string_key("k"), pos=12),
        RunPointer(run_id=9, element_count=42, payload_bytes=1000),
        RunPointer(
            run_id=0,
            key=number_key(3.5),
            pos=1,
            level=2,
            element_count=1,
            payload_bytes=10,
        ),
    ]


class TestTokenRoundTrip:
    @pytest.mark.parametrize("token", token_examples())
    def test_plain_round_trip(self, token):
        codec = TokenCodec()
        assert codec.decode(codec.encode(token)) == token

    @pytest.mark.parametrize("token", token_examples())
    def test_dictionary_round_trip(self, token):
        codec = TokenCodec(NameDictionary())
        assert codec.decode(codec.encode(token)) == token

    def test_dictionary_coding_is_smaller_for_repeated_names(self):
        plain = TokenCodec()
        coded = TokenCodec(NameDictionary())
        token = StartTag("averylongtagname", (("longattribute", "v"),))
        coded.encode(token)  # populate the dictionary
        assert len(coded.encode(token)) < len(plain.encode(token))

    def test_encoded_size_matches(self):
        codec = TokenCodec()
        for token in token_examples():
            assert codec.encoded_size(token) == len(codec.encode(token))

    def test_is_pointer_record(self):
        codec = TokenCodec()
        pointer = RunPointer(run_id=1)
        assert is_pointer_record(codec.encode(pointer))
        assert not is_pointer_record(codec.encode(StartTag("a")))
        assert not is_pointer_record(b"")

    def test_empty_record_rejected(self):
        with pytest.raises(CodecError):
            TokenCodec().decode(b"")

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            TokenCodec().decode(b"\x99")


@st.composite
def arbitrary_token(draw):
    name = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
        min_size=1,
        max_size=10,
    )
    kind = draw(st.sampled_from(["start", "text", "end", "pointer"]))
    maybe_key = st.one_of(
        st.none(),
        st.builds(number_key, st.floats(allow_nan=False, allow_infinity=False)),
        st.builds(string_key, st.text(max_size=20)),
    )
    maybe_pos = st.one_of(st.none(), st.integers(0, 2**30))
    maybe_level = st.one_of(st.none(), st.integers(0, 1000))
    if kind == "text":
        return Text(draw(st.text(max_size=50)), level=draw(maybe_level))
    if kind == "end":
        return EndTag(draw(name), key=draw(maybe_key), pos=draw(maybe_pos))
    if kind == "pointer":
        return RunPointer(
            run_id=draw(st.integers(0, 2**30)),
            key=draw(maybe_key),
            pos=draw(maybe_pos),
            level=draw(maybe_level),
            element_count=draw(st.integers(0, 2**30)),
            payload_bytes=draw(st.integers(0, 2**30)),
        )
    attrs = draw(
        st.lists(
            st.tuples(name, st.text(max_size=20)),
            max_size=4,
            unique_by=lambda pair: pair[0],
        )
    )
    return StartTag(
        draw(name),
        tuple(attrs),
        key=draw(maybe_key),
        pos=draw(maybe_pos),
        level=draw(maybe_level),
    )


class TestHypothesisRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(token=arbitrary_token())
    def test_any_token_round_trips(self, token):
        codec = TokenCodec()
        assert codec.decode(codec.encode(token)) == token

    @settings(max_examples=80, deadline=None)
    @given(tokens=st.lists(arbitrary_token(), max_size=20))
    def test_shared_dictionary_round_trips_streams(self, tokens):
        names = NameDictionary()
        codec = TokenCodec(names)
        encoded = [codec.encode(token) for token in tokens]
        assert [codec.decode(record) for record in encoded] == tokens
