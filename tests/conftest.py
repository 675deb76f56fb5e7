"""Shared fixtures and tree builders for the test suite."""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.xml import Document, Element


@pytest.fixture
def device() -> BlockDevice:
    """A small-block device so experiments exercise paging at tiny sizes."""
    return BlockDevice(block_size=256)


@pytest.fixture
def store(device: BlockDevice) -> RunStore:
    return RunStore(device)


@pytest.fixture
def spec() -> SortSpec:
    """The workhorse criterion: order everything by its ``name``."""
    return SortSpec(default=ByAttribute("name"))


def random_tree(
    seed: int,
    depth: int = 4,
    max_fanout: int = 5,
    pad: int = 0,
    text_leaves: bool = False,
    key_space: int = 1000,
) -> Element:
    """A random document tree with seeded keys (duplicates possible)."""
    rng = random.Random(seed)

    def build(level: int) -> Element:
        attrs = {"name": f"n{rng.randrange(key_space):04d}"}
        if pad:
            attrs["pad"] = "x" * pad
        children = []
        if level < depth:
            for _ in range(rng.randint(1, max_fanout)):
                children.append(build(level + 1))
        text = ""
        if text_leaves and not children:
            text = f"v{rng.randrange(key_space)}"
        return Element("e", attrs, text, children)

    return build(1)


def flat_tree(count: int, seed: int = 0, pad: int = 8) -> Element:
    """A two-level document: one root with ``count`` children."""
    rng = random.Random(seed)
    children = [
        Element(
            "item",
            {"name": f"n{rng.randrange(10 * count):06d}", "pad": "y" * pad},
        )
        for _ in range(count)
    ]
    return Element("root", {}, "", children)


def chain_tree(length: int) -> Element:
    """A degenerate single-path document of the given height."""
    node = Element("leaf", {"name": "end"})
    for index in range(length - 1):
        node = Element("link", {"name": f"l{index:05d}"}, "", [node])
    return node


def store_tree(
    store: RunStore, tree: Element, compaction=None
) -> Document:
    return Document.from_element(store, tree, compaction=compaction)


@functools.cache
def _scalar_reference() -> dict:
    path = Path(__file__).with_name("scalar_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def scalar_reference(cell: str) -> dict:
    """One cell of ``scalar_reference.json``: what the retired token-object
    sort path produced (output digest, counters, phase breakdown) for a
    fixed input and configuration."""
    return _scalar_reference()[cell]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_records(records) -> str:
    """Digest of a record sequence, each record length-framed."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(len(record).to_bytes(4, "big"))
        digest.update(record)
    return digest.hexdigest()


class WriteLoggingDevice(BlockDevice):
    """A device that logs every write: category, block ids, the bytes,
    and the counters the device holds before it."""

    def __init__(self, block_size: int = 64):
        super().__init__(block_size=block_size)
        self.log: list = []

    def write_blocks(self, block_ids, datas, category="other", stream=None):
        datas = list(datas)
        self.log.append(
            (
                category,
                list(block_ids),
                datas,
                self.stats.snapshot().counter_totals(),
            )
        )
        super().write_blocks(block_ids, datas, category, stream)
