"""Document load and emit reproduce their frozen results.

``document_edges_reference.json`` was recorded from the token pipeline
(tokenizer -> ``Token`` objects -> ``TokenCodec.encode`` on load,
``TokenCodec.decode`` -> ``events_to_string`` on emit).  For each input
shape and compaction mode it holds the sha256 of the input text and of the
stored records, the block and payload figures, ``DocumentStats``, the name
dictionary's interning order, ``counter_totals()`` after the load and after
both emits, and the sha256 of ``to_string()`` and ``to_string(indent="  ")``.
``sorted`` cells hold the emitted text of NEXSORT and merge-sort outputs,
whose starts carry sort annotations.

Every cell must reproduce on both argsort backends, through
``Document.from_file`` and ``Document.from_string`` alike.
"""

import dataclasses
import functools
import json
import random
from pathlib import Path

import pytest

from repro.baselines.merge_sort import external_merge_sort
from repro.core.nexsort import nexsort
from repro.generators import auction_events, level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import SortSpec
from repro.xml import Document, Element, escape_attr, escape_text
from repro.xml.compact import CompactionConfig
from repro.xml.writer import events_to_string

from .conftest import (
    each_argsort_backend,
    random_tree,
    sha256_records,
    sha256_text,
)

COMPACTIONS = {
    "plain": lambda: None,
    "names": lambda: CompactionConfig(eliminate_end_tags=False),
    "full": CompactionConfig,
}


def rich_document(tree: Element, seed: int = 0) -> str:
    """``tree`` as text with a prologue, comments, PIs, CDATA sections,
    entity and character references in text and attributes, mixed content
    and indentation - every construct the tokenizer skips or decodes."""
    rng = random.Random(seed)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        "<!DOCTYPE e [\n  <!ELEMENT e ANY>\n"
        "  <!ATTLIST e name CDATA #IMPLIED>\n]>\n",
        "<!-- generated -->\n",
    ]

    def attr_value(value: str) -> str:
        escaped = escape_attr(value)
        choice = rng.randrange(4)
        if choice == 0:
            return escaped + "&amp;&#65;&#x42;"
        if choice == 1:
            return escaped + " &lt;q&gt; &apos;"
        return escaped

    def write(node: Element, depth: int) -> None:
        pad = "  " * depth
        attrs = "".join(
            f' {name}="{attr_value(value)}"'
            for name, value in node.attrs.items()
        )
        if rng.randrange(5) == 0:
            attrs += " note='single \"quoted\"'"
        out.append(f"{pad}<{node.tag}{attrs}")
        text = node.text if node.children or rng.randrange(3) else ""
        if not node.children and not text and rng.randrange(2):
            out.append(" />\n" if rng.randrange(2) else "/>\n")
            return
        out.append(">")
        if text:
            choice = rng.randrange(4)
            escaped = escape_text(text)
            if choice == 0:
                out.append(f"<![CDATA[{text}<&>]]>")
            elif choice == 1:
                out.append(f"{escaped}&amp;&#x3C;&#62;&quot;")
            elif choice == 2:
                out.append(f"{escaped}<!-- inner -->{escaped}")
            else:
                out.append(escaped)
        if node.children:
            out.append("\n")
            if rng.randrange(4) == 0:
                out.append(f"{pad}  lead &#x263A; text\n")
            for index, child in enumerate(node.children):
                if rng.randrange(4) == 0:
                    out.append(f"{pad}  <!-- child {index} -->\n")
                if rng.randrange(6) == 0:
                    out.append(f"{pad}  <?pi target {index}?>\n")
                write(child, depth + 1)
            out.append(pad)
        out.append(f"</{node.tag}>\n")

    write(tree, 0)
    out.append("<!-- trailer -->\n<?done?>\n")
    return "".join(out)


#: Shape name -> the document text it loads.
SHAPES = {
    "level-fanout": lambda: events_to_string(
        level_fanout_events([7, 5, 4], seed=3, pad_bytes=12), indent="  "
    ),
    "auction": lambda: events_to_string(
        auction_events(auctions_per_region=4, max_bids=4, seed=2, regions=3)
    ),
    "text-leaves": lambda: events_to_string(
        level_fanout_events([6, 5, 3], seed=4, pad_bytes=8, text_leaves=True)
    ),
    "rich": lambda: rich_document(
        random_tree(5, depth=4, max_fanout=4, text_leaves=True), seed=6
    ),
}

CELLS = [f"{shape}/{mode}" for shape in SHAPES for mode in COMPACTIONS]
SORTED_CELLS = [f"sorted/{mode}" for mode in COMPACTIONS]


def load_cell(cell: str, tmp_path: Path, via: str = "file") -> dict:
    """Load one cell's document and summarize what was stored and emitted."""
    shape, mode = cell.split("/")
    text = SHAPES[shape]()
    store = RunStore(BlockDevice(block_size=512))
    compaction = COMPACTIONS[mode]()
    if via == "file":
        path = tmp_path / f"{shape}-{mode}.xml"
        path.write_text(text, encoding="utf-8")
        document = Document.from_file(store, str(path), compaction)
    else:
        document = Document.from_string(store, text, compaction)
    stats = store.device.stats
    load_counters = stats.snapshot().counter_totals()
    records = list(store.open_reader(document.handle, category="check"))
    plain = document.to_string()
    pretty = document.to_string(indent="  ")
    names = compaction.names if compaction is not None else None
    return {
        "input_sha256": sha256_text(text),
        "records_sha256": sha256_records(records),
        "record_count": len(records),
        "blocks": document.block_count,
        "payload_bytes": document.payload_bytes,
        "stats": dataclasses.asdict(document.stats),
        "names": (
            [names.lookup(i) for i in range(len(names))] if names else None
        ),
        "load_counters": load_counters,
        "emit_counters": stats.snapshot().counter_totals(),
        "output_sha256": sha256_text(plain),
        "pretty_sha256": sha256_text(pretty),
    }


def sorted_cell(cell: str) -> dict:
    """Emitted text of NEXSORT and merge-sort outputs of one document."""
    mode = cell.split("/")[1]
    spec = SortSpec.parse("*=@name")
    result = {}
    for algorithm in ("nexsort", "mergesort"):
        store = RunStore(BlockDevice(block_size=512))
        document = Document.from_events(
            store,
            level_fanout_events([9, 6, 4], seed=7, pad_bytes=16),
            COMPACTIONS[mode](),
        )
        if algorithm == "nexsort":
            output, _ = nexsort(document, spec, memory_blocks=8)
        else:
            output, _ = external_merge_sort(document, spec, memory_blocks=6)
        result[f"{algorithm}_sha256"] = sha256_text(output.to_string())
        result[f"{algorithm}_pretty_sha256"] = sha256_text(
            output.to_string(indent="  ")
        )
        result[f"{algorithm}_counters"] = (
            store.device.stats.snapshot().counter_totals()
        )
    return result


@functools.cache
def _reference() -> dict:
    path = Path(__file__).with_name("document_edges_reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def test_reference_covers_every_cell():
    assert sorted(_reference()) == sorted(CELLS + SORTED_CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_load_and_emit_match_reference(monkeypatch, tmp_path, cell):
    expected = _reference()[cell]
    for backend in each_argsort_backend(monkeypatch):
        for via in ("file", "string"):
            got = json.loads(json.dumps(load_cell(cell, tmp_path, via)))
            for field in expected:
                assert got[field] == expected[field], (backend, via, field)


@pytest.mark.parametrize("cell", SORTED_CELLS)
def test_sorted_output_text_matches_reference(monkeypatch, cell):
    expected = _reference()[cell]
    for backend in each_argsort_backend(monkeypatch):
        got = json.loads(json.dumps(sorted_cell(cell)))
        for field in expected:
            assert got[field] == expected[field], (backend, field)


def test_rich_shape_exercises_every_construct():
    text = SHAPES["rich"]()
    for construct in ("<?xml", "<!DOCTYPE", "<!--", "<![CDATA[", "<?pi",
                      "&amp;", "&#x", "&#6", "'single", "/>", " />"):
        assert construct in text, construct
