"""Unit tests for the byte-record kernels.

The accounting-parity suite pins the end-to-end counter contract; these
tests pin the individual kernels: the path-only key parse (and its typed
errors on truncated input), the stable argsort, key sidecars, and the heap
merge with sidecar-served keys against computed keys and the frozen
record-at-a-time results.
"""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.keypath import (
    KeyPathRecord,
    decode_record,
    encode_record,
    records_from_annotated_events,
    tokens_from_sorted_records,
)
from repro.core.columnar import (
    StartKeyCache,
    argsort_normalized,
    batch_path_keys,
    emit_output_columnar,
    fast_path_key,
    form_subtree_runs,
    keyed_puller,
    run_sidecar,
)
from repro.errors import CodecError, RunError
from repro.io import BlockDevice, RunStore, StripedDevice
from repro.keys import ByAttribute, KeyEvaluator, SortSpec
from repro.merge.engine import MergeOptions, RunFormer, normalized_path_key
from repro.xml import CompactionConfig, Document, TokenCodec, parse_events
from repro.xml.codec import read_tag_attrs
from repro.xml.compact import NameDictionary
from repro.xml.tokens import (
    KEY_NUMBER,
    KEY_STRING,
    MISSING_KEY,
    RunPointer,
    StartTag,
)

from .conftest import WriteLoggingDevice, scalar_reference, sha256_records

SPEC = SortSpec(default=ByAttribute("name"))

XML = (
    '<site name="root">'
    '<region name="Durham"><city name="west">rain</city>'
    '<city name="east"/></region>'
    '<region name="7"><city name="west">sun</city></region>'
    '<region name="Durham"><city name=""/></region>'
    "</site>"
)


#: Enough records for 18+ runs, so a 3-way merge takes three passes or more.
WIDE_XML = (
    '<site name="root">'
    + "".join(
        f'<region name="r{i * 37 % 50}"><city name="c{i % 7}"/></region>'
        for i in range(60)
    )
    + "</site>"
)


def sample_records(xml=XML):
    annotated = KeyEvaluator(SPEC).annotate(parse_events(xml))
    return [
        encode_record(record)
        for record in records_from_annotated_events(annotated)
    ]


def random_keys(count, seed=11):
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            keys.append(b"")
        elif kind < 0.4:
            # Heavy prefix collisions: differ only past the window.
            keys.append(
                b"\x02shared-prefix-shared-prefix-shared\x00"
                + bytes([rng.randrange(4)])
            )
        else:
            keys.append(
                bytes(
                    rng.randrange(256)
                    for _ in range(rng.randrange(0, 48))
                )
            )
    return keys


class TestFastPathKey:
    def test_matches_decoded_sort_key(self):
        for encoded in sample_records():
            expected = normalized_path_key(
                decode_record(encoded).sort_key()
            )
            assert fast_path_key(encoded) == expected

    def test_batch_path_keys_matches_scalar(self):
        records = sample_records()
        assert batch_path_keys(records) == [
            fast_path_key(record) for record in records
        ]

    @pytest.mark.parametrize(
        "parse,data",
        [
            (fast_path_key, b"\x02\x03\x02"),  # string atom cut short
            (fast_path_key, b"\x02\x01\x01\x00"),  # number atom cut short
            (fast_path_key, b"\x01"),  # no path depth
            (lambda data: read_tag_attrs(data, 0), b"\x05ab"),
            (lambda data: read_tag_attrs(data, 0), b"\x01a\x01"),
            # A string frame whose bytes are not UTF-8.
            (TokenCodec().decode, b"\x01\x00\x01a\x01\x01\xf5\x011"),
        ],
    )
    def test_truncated_input_raises_codec_error(self, parse, data):
        with pytest.raises(CodecError):
            parse(data)


class TestArgsortNormalized:
    def assert_stable_order(self, keys):
        expected = sorted(range(len(keys)), key=keys.__getitem__)
        assert argsort_normalized(keys) == expected

    def test_small_batch_python_path(self):
        self.assert_stable_order(random_keys(500))

    def test_empty_and_single(self):
        assert argsort_normalized([]) == []
        assert argsort_normalized([b"only"]) == [0]

    def test_stability_on_equal_keys(self):
        keys = [b"dup", b"a", b"dup", b"dup", b"a"] * 400
        order = argsort_normalized(keys)
        positions = [i for i in order if keys[i] == b"dup"]
        assert positions == sorted(positions)


def form_runs(options, capacity_bytes=220, device=None, xml=XML):
    store = RunStore(device or BlockDevice(block_size=128))
    former = RunFormer(store, capacity_bytes, options)
    records = sample_records(xml)
    for record in records:
        former.add(fast_path_key(record), record)
    return store, former.finish()


class TestSidecars:
    def test_run_formation_attaches_sidecars(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert len(runs) > 1
        for run in runs:
            sidecar = run_sidecar(store, run, fast_path_key)
            assert sidecar is not None
            reader = store.open_reader(run)
            assert sidecar == [
                fast_path_key(record) for record in reader
            ]

    def test_custom_key_function_gets_no_sidecar(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert run_sidecar(store, runs[0], len) is None

    def test_freed_run_drops_sidecar(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert runs[0].run_id in store.key_sidecars
        store.free(runs[0])
        assert runs[0].run_id not in store.key_sidecars

    def test_tuple_keys_attach_no_sidecars(self):
        store = RunStore(BlockDevice(block_size=128))
        former = RunFormer(store, 220, MergeOptions())
        for record in sample_records():
            former.add(decode_record(record).sort_key(), record)
        assert len(former.finish()) > 1
        assert store.key_sidecars == {}


class TestKeyedPuller:
    def test_sidecar_and_batch_keys_agree(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        run = runs[0]
        sidecar = run_sidecar(store, run, fast_path_key)

        def drain(pull):
            out = []
            while True:
                entry = pull()
                if entry is None:
                    return out
                out.append(entry)

        computed = drain(
            keyed_puller(store.open_reader(run), batch_path_keys)
        )
        served = drain(
            keyed_puller(
                store.open_reader(run), batch_path_keys, sidecar
            )
        )
        assert computed == served
        assert [key for key, _record in computed] == sidecar


class TestReplayMerge:
    """The heap merge serves keys from the runs' sidecars or computes
    them; either way it matches the frozen record-at-a-time heap merge
    (the ``replay`` cell of ``scalar_reference.json``)."""

    def test_replay_equals_fallback_heap_merge(self):
        from repro.baselines.merging import merge_pass

        options = MergeOptions()
        # The retired record-at-a-time heap merge, frozen.
        expected = scalar_reference("replay")

        store, runs = form_runs(options)
        assert len(runs) > 1
        assert all(run_sidecar(store, run, fast_path_key) for run in runs)
        served = list(
            merge_pass(store, runs, fast_path_key, options=options)
        )

        # Same runs, sidecars dropped: keys are computed per batch.
        store2, runs2 = form_runs(options)
        store2.key_sidecars.clear()
        fallback = list(
            merge_pass(store2, runs2, fast_path_key, options=options)
        )
        assert served == fallback
        assert sha256_records(served) == expected["records_sha256"]
        for merged_store in (store, store2):
            totals = merged_store.device.stats.snapshot().counter_totals()
            assert totals == expected["counters"]

    @pytest.mark.parametrize("materialized", [False, True])
    def test_striped_clock_equals_heap_merge(self, materialized):
        """Sidecar-served keys charge nothing the computed keys do not:
        a striped device - which reads the CPU clock at every access -
        sees the same stall and overlap time either way."""
        from repro.baselines.merging import merge_pass, merge_to_single_run

        options = MergeOptions()

        def drive(keep_sidecars):
            store, runs = form_runs(
                options,
                device=StripedDevice(disks=2, block_size=128),
                xml=WIDE_XML,
            )
            assert len(runs) > 9
            if not keep_sidecars:
                store.key_sidecars.clear()
            if materialized:
                run, _passes = merge_to_single_run(
                    store, runs, fast_path_key, fan_in=3, options=options
                )
                totals = store.device.stats.snapshot().counter_totals()
                records = list(store.open_reader(run))
            else:
                records = list(
                    merge_pass(store, runs, fast_path_key, options=options)
                )
                totals = store.device.stats.snapshot().counter_totals()
            return records, totals

        served, served_totals = drive(keep_sidecars=True)
        heap, heap_totals = drive(keep_sidecars=False)
        assert served == heap
        assert served_totals["stall_seconds"] > 0
        assert served_totals == heap_totals


def _five_record_runs(sidecars, widen=False):
    """Two sorted 5-record runs, with key sidecars or without.  With
    ``widen`` the first run's record 3 has its length header widened to
    swallow record 4, so the run yields 4 records, not 5."""
    records = sorted(sample_records(WIDE_XML)[:10], key=fast_path_key)
    store = RunStore(BlockDevice(block_size=512))
    runs = []
    for part in (records[0::2], records[1::2]):
        writer = store.create_writer("run_write")
        writer.write_records(part)
        run = writer.finish()
        if sidecars:
            store.key_sidecars[run.run_id] = batch_path_keys(part)
        runs.append(run)
    if widen:
        first = records[0::2]
        [block_id] = runs[0].block_ids
        data = bytearray(store.device.read_block(block_id))
        offset = sum(4 + len(record) for record in first[:2])
        swallowed = len(first[2]) + 4 + len(first[3])
        struct.pack_into("<I", data, offset, swallowed)
        store.device.store_block_raw(block_id, bytes(data))
    return store, runs


class TestMergeIntegrity:
    """A run whose framing yields more or fewer records than its handle
    counts raises :class:`RunError` under both kernels, whether keys come
    from sidecars or are computed."""

    @pytest.mark.parametrize("kernel", ["heap", "loser-tree"])
    @pytest.mark.parametrize("sidecars", [False, True])
    def test_run_short_of_its_count_raises(self, kernel, sidecars):
        from repro.baselines.merging import merge_pass

        store, runs = _five_record_runs(sidecars, widen=True)
        assert bool(run_sidecar(store, runs[0], fast_path_key)) == sidecars
        stream = merge_pass(
            store, runs, fast_path_key,
            options=MergeOptions(merge_kernel=kernel),
        )
        with pytest.raises(RunError, match="holds 5 records but yields 4"):
            list(stream)

    @pytest.mark.parametrize("kernel", ["heap", "loser-tree"])
    def test_run_past_its_count_raises(self, kernel):
        from repro.baselines.merging import merge_pass

        store, runs = _five_record_runs(sidecars=False)
        runs[0] = dataclasses.replace(runs[0], record_count=4)
        stream = merge_pass(
            store, runs, fast_path_key,
            options=MergeOptions(merge_kernel=kernel),
        )
        with pytest.raises(RunError, match="holds 4 records but yields more"):
            list(stream)


_SCAN_NAMES = st.sampled_from(
    [None, "", "a", "b", "7", "-3.5", "1e3", "\u00e9\u4e2d", "k" * 130]
)
_SCAN_TEXTS = st.sampled_from(["", "", "t", "\u00e9t\u00e9", "a<&b", "x" * 140])


@st.composite
def _scan_documents(draw):
    """XML for the fused scan: duplicate, numeric, missing and non-ASCII
    keys, mixed content (texts between children, joined per element),
    and sometimes a root with 130 more children (two-byte positions) or
    a chain 70 levels deep (two-byte depths past 63)."""
    from xml.sax.saxutils import escape, quoteattr

    def attrs():
        out = ""
        name = draw(_SCAN_NAMES)
        if name is not None:
            out += f" name={quoteattr(name)}"
        if draw(st.booleans()):
            out += ' x="v"'
        return out

    def element(depth):
        tag = draw(st.sampled_from(["n", "item", "t" * 130]))
        parts = [f"<{tag}{attrs()}>"]
        count = draw(st.integers(0, 3)) if depth < 4 else 0
        for _ in range(count):
            parts.append(escape(draw(_SCAN_TEXTS)))
            parts.append(element(depth + 1))
        parts.append(escape(draw(_SCAN_TEXTS)))
        parts.append(f"</{tag}>")
        return "".join(parts)

    extra = draw(st.sampled_from(["", "", "wide", "deep"]))
    body = element(2)
    if extra == "wide":
        body += "".join(
            f'<w name="{draw(st.integers(0, 9))}"/>' for _ in range(130)
        )
    elif extra == "deep":
        body += '<c name="d">' * 70 + "</c>" * 70
    return f"<root{attrs()}>{body}</root>"


_SCAN_COMPACTIONS = {
    "plain": None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "levels": lambda: CompactionConfig(names=None),
    "full": CompactionConfig,
}


def _scan_document(xml, mode, device):
    make = _SCAN_COMPACTIONS[mode]
    return Document.from_events(
        RunStore(device),
        parse_events(xml),
        compaction=None if make is None else make(),
    )


def _fused_scan(document, spec, former):
    """Merge sort's run formation: the stored document through
    :func:`form_subtree_runs` a block at a time, its tokens charged once
    after the scan."""
    compaction = document.compaction
    names = compaction.names if compaction is not None else None
    reader = document.store.open_reader(
        document.handle, category="input_scan"
    )
    units, real = form_subtree_runs(
        reader.batches(),
        compaction is not None and compaction.eliminate_end_tags,
        names is not None,
        None,
        former,
        None,
        start_keys=StartKeyCache(spec, names),
    )
    assert units == real
    document.store.device.stats.record_tokens(units)


def _token_pipeline(document, spec, former):
    """The reference: tokenize, key-evaluate, build and encode key-path
    records, one add each, tokens charged after the scan."""
    names = document.compaction.names if document.compaction else None
    annotated = KeyEvaluator(spec).annotate(
        document.iter_events("input_scan")
    )
    count = 0
    for record in records_from_annotated_events(annotated):
        former.add(
            normalized_path_key(record.path), encode_record(record, names)
        )
        count += 1
    document.store.device.stats.record_tokens(count)


class TestFusedScan:
    """Merge sort's document scan through :func:`form_subtree_runs` forms
    byte-identical runs - same records, same order, same device writes
    with the same counters before each - as the token pipeline, in every
    storage dialect."""

    @settings(max_examples=25, deadline=None)
    @given(
        xml=_scan_documents(),
        capacity=st.sampled_from([200, 600, 1 << 20]),
        formation=st.sampled_from(["load-sort", "replacement-selection"]),
    )
    @pytest.mark.parametrize("mode", ["plain", "names", "levels", "full"])
    def test_compacted_document_fast_path_matches_scalar(
        self, mode, xml, capacity, formation
    ):
        """Compacted documents take the fused scan too, and so do plain
        ones (``plain`` mode)."""

        def scan(form):
            device = WriteLoggingDevice(block_size=128)
            document = _scan_document(xml, mode, device)
            former = RunFormer(
                document.store, capacity,
                MergeOptions(run_formation=formation),
            )
            form(document, SPEC, former)
            runs = former.finish()
            contents = [list(document.store.open_reader(run)) for run in runs]
            return (
                contents,
                former.run_lengths,
                device.log,
                device.stats.snapshot().counter_totals(),
            )

        assert scan(_fused_scan) == scan(_token_pipeline)

    @pytest.mark.parametrize(
        "mode, kind, flags",
        [
            (mode, 1, flags)
            for mode, stored in (
                ("plain", 0), ("names", 0), ("levels", 4), ("full", 4)
            )
            for flags in (0, 1, 2, 4)
            if flags != stored
        ]
        + [("plain", 2, 4), ("names", 2, 4)],
    )
    def test_flags_without_their_fields_are_typed(self, mode, kind, flags):
        """A stored start (kind 1) or text (kind 2) whose flag byte
        declares a field it lacks - or, in a compacted stream, not the
        level a start has - raises ``CodecError`` in merge sort."""
        from repro.baselines import external_merge_sort

        device = BlockDevice(block_size=128)
        document = _scan_document(XML, mode, device)
        store = document.store
        records = list(store.open_reader(document.handle))
        index = [i for i, r in enumerate(records) if r[0] == kind][1]
        records[index] = records[index][:1] + bytes([flags]) + records[
            index
        ][2:]
        writer = store.create_writer("load")
        writer.write_records(records)
        document = Document(
            store, writer.finish(), document.stats, document.compaction
        )
        with pytest.raises(CodecError):
            external_merge_sort(document, SPEC, 4)


_EMIT_ATOMS = st.one_of(
    st.just(MISSING_KEY),
    st.builds(lambda v: (KEY_NUMBER, float(v)), st.integers(-300, 300)),
    st.builds(
        lambda v: (KEY_STRING, v),
        st.text(alphabet="abé中", max_size=3),
    ),
    st.builds(lambda n: (KEY_STRING, "k" * n), st.sampled_from([127, 200])),
)
_EMIT_TEXTS = st.sampled_from(["", "", "t", "été", "x" * 140])
_EMIT_ATTRS = st.lists(
    st.tuples(st.sampled_from(["id", "n"]), st.sampled_from(["", "1", "v" * 130])),
    max_size=2,
    unique_by=lambda pair: pair[0],
).map(tuple)


@st.composite
def _key_path_streams(draw):
    """Path-sorted key-path records of a random subtree: elements with
    tags, attributes and texts, pointers as leaves, and sometimes one
    chain deeper than 128 levels (a two-byte depth varint)."""
    records = []
    next_pos = [draw(st.integers(0, 200))]

    def position():
        next_pos[0] += draw(st.sampled_from([1, 1, 5000]))
        return next_pos[0]

    def element(path, depth_left):
        records.append(
            KeyPathRecord(
                path=path,
                tag=draw(st.sampled_from(["r", "item", "t" * 140])),
                attrs=draw(_EMIT_ATTRS),
                text=draw(_EMIT_TEXTS),
            )
        )
        if depth_left <= 0:
            return
        for _ in range(draw(st.integers(0, 3))):
            child = path + ((draw(_EMIT_ATOMS), position()),)
            if draw(st.integers(0, 4)) == 0:
                records.append(
                    KeyPathRecord(
                        path=child,
                        run_id=draw(st.integers(0, 300)),
                        element_count=draw(st.integers(1, 300)),
                        payload_bytes=draw(st.integers(1, 10**5)),
                    )
                )
            else:
                element(child, depth_left - 1)

    root = ((draw(_EMIT_ATOMS), position()),)
    element(root, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        path = root
        for _ in range(draw(st.integers(127, 131))):
            path = path + ((MISSING_KEY, position()),)
            records.append(KeyPathRecord(path=path, tag="d", text=""))
    records.sort(key=lambda record: normalized_path_key(record.path))
    return records


def _emitted(records, names, emit, **options):
    """(write log, written run records, returned count, tokens charged)
    of ``emit`` writing ``records`` to a fresh run."""
    device = WriteLoggingDevice()
    store = RunStore(device)
    writer = store.create_writer("run_write")
    count = emit(records, names, writer, device, **options)
    handle = writer.finish()
    return (
        device.log,
        list(store.open_reader(handle)),
        count,
        device.stats.tokens,
    )


def _emit_columnar(records, names, writer, device, **options):
    return emit_output_columnar(
        iter([encode_record(record, names) for record in records]),
        writer,
        device,
        names_coded=names is not None,
        **options,
    )


def _emit_full_walk(
    records, names, writer, device, emit_ends=True, base_level=1,
    levels=True, charge_tokens=True,
):
    """The reference: every record decoded in full, its tokens rebuilt
    by ``tokens_from_sorted_records``, encoded, and written with one
    writer call per record, then charged."""
    codec = TokenCodec(names)
    groups = []

    def decoded():
        for record in records:
            groups.append([])
            yield decode_record(encode_record(record, names), names)
        groups.append([])  # the closes after the last record

    for token in tokens_from_sorted_records(decoded(), base_level, emit_ends):
        if not levels and isinstance(token, (StartTag, RunPointer)):
            token = dataclasses.replace(token, level=None)
        groups[-1].append(codec.encode(token))
    count = 0
    for group in groups:
        writer.write_records(group)
        if charge_tokens:
            device.stats.record_tokens(len(group))
        count += len(group)
    return count


class TestEmitOneComponent:
    """The emit skips each record's parent path and parses one component:
    the same stream, counters and device accesses as a full decode of
    every record."""

    @settings(max_examples=150, deadline=None)
    @given(
        records=_key_path_streams(),
        coded=st.booleans(),
        dialect=st.sampled_from(
            [
                dict(),  # merge sort's output: levels on starts
                dict(levels=False, base_level=3, charge_tokens=False),
                dict(emit_ends=False, base_level=2),  # compacted
            ]
        ),
    )
    def test_matches_a_full_walk(self, records, coded, dialect):
        names = NameDictionary() if coded else None
        assert _emitted(records, names, _emit_columnar, **dialect) == (
            _emitted(records, names, _emit_full_walk, **dialect)
        )

    def test_record_off_its_parents_path_is_typed(self):
        a = ((KEY_STRING, "a"), 0)
        records = [
            encode_record(KeyPathRecord(path=(a,), tag="r")),
            encode_record(
                KeyPathRecord(path=(((KEY_STRING, "b"), 0), a), tag="c")
            ),
        ]
        device = BlockDevice(block_size=64)
        writer = RunStore(device).create_writer("run_write")
        with pytest.raises(CodecError, match="parent's path"):
            emit_output_columnar(iter(records), writer, device)
