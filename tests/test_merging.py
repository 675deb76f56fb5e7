"""Unit tests for generic multi-way run merging."""

import pytest

from repro.baselines import merge_pass, merge_to_single_run, merge_to_stream
from repro.errors import RunError
from repro.io import BlockDevice, RunStore


def make_store():
    device = BlockDevice(block_size=128)
    return device, RunStore(device)


def write_run(store, values):
    writer = store.create_writer()
    for value in values:
        writer.write_record(value.to_bytes(4, "big"))
    return writer.finish()


def key_of(record: bytes) -> int:
    return int.from_bytes(record, "big")


def read_values(store, handle):
    return [key_of(record) for record in store.open_reader(handle)]


class TestMergePass:
    def test_merges_in_order(self):
        _, store = make_store()
        runs = [
            write_run(store, [1, 4, 7]),
            write_run(store, [2, 5, 8]),
            write_run(store, [3, 6, 9]),
        ]
        merged = [key_of(r) for r in merge_pass(store, runs, key_of)]
        assert merged == list(range(1, 10))

    def test_empty_runs_handled(self):
        _, store = make_store()
        runs = [write_run(store, []), write_run(store, [1, 2])]
        merged = [key_of(r) for r in merge_pass(store, runs, key_of)]
        assert merged == [1, 2]

    def test_single_run_streams_through(self):
        _, store = make_store()
        runs = [write_run(store, [3, 1, 2])]  # not re-sorted
        merged = [key_of(r) for r in merge_pass(store, runs, key_of)]
        assert merged == [3, 1, 2]

    def test_consumed_runs_are_freed(self):
        device, store = make_store()
        runs = [write_run(store, [1]), write_run(store, [2])]
        occupied = device.occupied_blocks
        list(merge_pass(store, runs, key_of))
        assert device.occupied_blocks < occupied

    def test_comparisons_charged(self):
        device, store = make_store()
        runs = [write_run(store, [1, 3]), write_run(store, [2, 4])]
        before = device.stats.comparisons
        list(merge_pass(store, runs, key_of))
        assert device.stats.comparisons > before


class TestMultiPass:
    def test_merge_to_single_run(self):
        _, store = make_store()
        runs = [write_run(store, sorted([i, i + 10, i + 20])) for i in range(9)]
        final, passes = merge_to_single_run(store, runs, key_of, fan_in=3)
        assert passes == 2  # 9 -> 3 -> 1
        values = read_values(store, final)
        assert values == sorted(values)
        assert len(values) == 27

    def test_merge_to_stream_saves_final_pass(self):
        _, store = make_store()
        runs = [write_run(store, sorted([i, i + 10])) for i in range(6)]
        stream, passes, width = merge_to_stream(store, runs, key_of, fan_in=3)
        assert passes == 1  # 6 -> 2, then streamed
        assert width == 2
        values = [key_of(r) for r in stream]
        assert values == sorted(values)

    def test_merge_to_stream_single_run_no_passes(self):
        _, store = make_store()
        runs = [write_run(store, [1, 2, 3])]
        stream, passes, width = merge_to_stream(store, runs, key_of, fan_in=4)
        assert (passes, width) == (0, 1)
        assert [key_of(r) for r in stream] == [1, 2, 3]

    def test_bad_fan_in_rejected(self):
        _, store = make_store()
        runs = [write_run(store, [1])]
        with pytest.raises(RunError):
            merge_to_single_run(store, runs, key_of, fan_in=1)

    def test_nothing_to_merge_rejected(self):
        _, store = make_store()
        with pytest.raises(RunError):
            merge_to_single_run(store, [], key_of, fan_in=2)

    def test_pass_count_matches_logarithm(self):
        _, store = make_store()
        runs = [write_run(store, [i]) for i in range(30)]
        _, passes = merge_to_single_run(store, runs, key_of, fan_in=4)
        # 30 -> 8 -> 2 -> 1
        assert passes == 3

