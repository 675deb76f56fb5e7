"""Shared fixtures and tree builders for the test suite."""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.xml import Document, Element
from repro.xml.tokens import EndTag, StartTag, Text


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


#: Documents on which a streamed ``a=b/c`` key once differed from the DOM
#: oracle's, each beside a sibling ``a`` keyed 5: a child before the
#: matched text, text split by a child, an empty first match, and a first
#: ``b`` without a ``c``.
CHILD_PATH_CASES = [
    pytest.param(xml, id=name)
    for name, xml in (
        (
            "child-before-text",
            "<r><a><b><c><d/>9</c></b></a><a><b><c>5</c></b></a></r>",
        ),
        (
            "text-split-by-child",
            "<r><a><b><c>1<d/>9</c></b></a><a><b><c>5</c></b></a></r>",
        ),
        (
            "empty-first-match",
            "<r><a><b><c/><c>9</c></b></a><a><b><c>5</c></b></a></r>",
        ),
        (
            "first-step-without-next",
            "<r><a><b/><b><c>9</c></b></a><a><b><c>5</c></b></a></r>",
        ),
    )
]


@st.composite
def child_path_documents(draw):
    """(token stream, child path): elements tagged from a 3-letter
    alphabet with mixed content whose texts come split into several text
    tokens, and a path of 1-3 steps over the same alphabet."""
    texts = st.lists(st.sampled_from(["1", "5", "9", "x"]), max_size=2)

    def element(depth: int) -> list:
        tag = draw(st.sampled_from("abc"))
        children = draw(st.integers(0, 3)) if depth < 4 else 0
        tokens: list = [StartTag(tag)]
        for index in range(children + 1):
            tokens.extend(Text(text) for text in draw(texts))
            if index < children:
                tokens.extend(element(depth + 1))
        tokens.append(EndTag(tag))
        return tokens

    path = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
    return element(1), "/".join(path)
