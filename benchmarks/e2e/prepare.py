"""Write one workload's input document and its oracle digest (untimed).

Usage: python3 prepare.py WORKLOAD SEED SMOKE(0|1) DIRECTORY

Writes DIRECTORY/input.xml and then DIRECTORY/meta.json holding the sha256
of the DOM oracle's output: the input parsed into an in-memory tree, sorted
by ``repro.sort_element`` and serialized with the same settings
``repro sort`` writes its output with.  meta.json is written
last, so its presence marks a complete cache entry.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    name, seed, smoke, directory = sys.argv[1:]
    workload = WORKLOADS[name]
    from repro import (
        Element,
        SortSpec,
        element_to_string,
        events_to_string,
        parse_events,
        sort_element,
    )

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    text = events_to_string(workload.events(int(seed), smoke == "1"))
    (out / "input.xml").write_text(text, encoding="utf-8")
    tree = Element.from_events(parse_events(text))
    oracle = element_to_string(
        sort_element(tree, SortSpec.parse(workload.spec)), indent="  "
    )
    meta = {
        "oracle_sha256": hashlib.sha256(oracle.encode("utf-8")).hexdigest(),
    }
    (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
