"""Unit tests for the byte-record kernels.

The accounting-parity suite pins the end-to-end counter contract; these
tests pin the individual kernels: the path-only key parse (and its typed
errors on truncated input), the stable argsort, key sidecars, and the replay merge against its keyed-puller
fallback and the frozen record-at-a-time results.
"""

import random

import pytest

from repro.baselines.keypath import (
    decode_record,
    encode_record,
    records_from_annotated_events,
)
from repro.core.columnar import (
    argsort_normalized,
    batch_path_keys,
    fast_path_key,
    form_runs_columnar,
    keyed_puller,
    merge_sidecars,
    run_sidecar,
)
from repro.errors import CodecError
from repro.io import BlockDevice, RunStore, StripedDevice
from repro.keys import ByAttribute, KeyEvaluator, SortSpec
from repro.merge.engine import MergeOptions, RunFormer, normalized_path_key
from repro.xml import TokenCodec, parse_events
from repro.xml.codec import read_tag_attrs

from .conftest import scalar_reference, sha256_records

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
        assert merge_sidecars(store, runs, len) is None

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
        replayed = drain(
            keyed_puller(
                store.open_reader(run), batch_path_keys, sidecar
            )
        )
        assert computed == replayed
        assert [key for key, _record in computed] == sidecar


class TestReplayMerge:
    def test_replay_equals_fallback_heap_merge(self):
        from repro.baselines.merging import merge_pass

        options = MergeOptions()
        # The retired record-at-a-time heap merge, frozen.
        expected = scalar_reference("replay")

        store, runs = form_runs(options)
        assert len(runs) > 1
        replayed = list(
            merge_pass(store, runs, fast_path_key, options=options)
        )

        # Same runs, sidecars dropped: forces the keyed-puller path.
        store2, runs2 = form_runs(options)
        store2.key_sidecars.clear()
        fallback = list(
            merge_pass(store2, runs2, fast_path_key, options=options)
        )
        assert replayed == fallback
        assert sha256_records(replayed) == expected["records_sha256"]
        for merged_store in (store, store2):
            totals = merged_store.device.stats.snapshot().counter_totals()
            assert totals == expected["counters"]

    @pytest.mark.parametrize("materialized", [False, True])
    def test_striped_clock_equals_heap_merge(self, materialized):
        """A replayed pass charges its comparisons where the heap loop
        does, record by record, so a striped device - which reads the
        CPU clock at every access - sees the same stall and overlap
        time whether the pass replays or runs the heap."""
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

        replayed, replayed_totals = drive(keep_sidecars=True)
        heap, heap_totals = drive(keep_sidecars=False)
        assert replayed == heap
        assert replayed_totals["stall_seconds"] > 0
        assert replayed_totals == heap_totals


class TestFusedScan:
    @pytest.mark.parametrize("mode", ["names", "levels", "full"])
    def test_compacted_document_fast_path_matches_scalar(self, mode):
        """Compacted documents no longer fall back (ISSUE 7).

        The fused scan handles dictionary-coded and level-annotated
        (end-tag-eliminated) storage directly, forming byte-identical
        runs - same records, same order, same counters - as the token
        pipeline (tokenize -> key-evaluate -> encode).
        """
        from repro.xml import CompactionConfig, Document

        def compaction():
            if mode == "names":
                return CompactionConfig(eliminate_end_tags=False)
            if mode == "levels":
                return CompactionConfig(names=None)
            return CompactionConfig()

        def scan(fused):
            device = BlockDevice(block_size=128)
            store = RunStore(device)
            document = Document.from_events(
                store, parse_events(XML), compaction=compaction()
            )
            former = RunFormer(store, 600, MergeOptions())
            if fused:
                assert form_runs_columnar(document, SPEC, former, device)
            else:
                names = document.compaction.names
                annotated = KeyEvaluator(SPEC).annotate(
                    document.iter_events("input_scan")
                )
                for record in records_from_annotated_events(annotated):
                    device.stats.record_tokens(1)
                    former.add(
                        record.sort_key(), encode_record(record, names)
                    )
            runs = former.finish()
            contents = [list(store.open_reader(run)) for run in runs]
            return contents, device.stats.snapshot().counter_totals()

        assert scan(fused=True) == scan(fused=False)

    def test_non_start_computable_spec_falls_back(self):
        from repro.keys import ByText
        from repro.xml import Document

        device = BlockDevice(block_size=128)
        store = RunStore(device)
        document = Document.from_events(store, parse_events(XML))
        former = RunFormer(
            store, 600, MergeOptions()
        )
        spec = SortSpec(default=ByText())
        assert not form_runs_columnar(document, spec, former, device)
