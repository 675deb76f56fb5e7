"""Import hygiene: ``import repro`` and a default sort load only the code
the sort runs, every lazy package export resolves, every opt-in layer
loads where its option turns it on, and the package never loads numpy.

Module sets are only observable in a fresh interpreter, so each check
runs its probe in a child process.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a default sort (``nexsort``, ``external_merge_sort`` or
#: ``run_plan``) never executes.
NEVER_ON_DEFAULT_PATH = (
    "repro.analysis.planner",
    "repro.baselines.internal_sort",
    "repro.baselines.keypath",
    "repro.baselines.xsort",
    "repro.bench.harness",
    "repro.cli",
    "repro.core.idref",
    "repro.faults",
    "repro.io.file_device",
    "repro.io.lease",
    "repro.merge.archive",
    "repro.merge.batch",
    "repro.merge.dedup",
    "repro.merge.nested_loop",
    "repro.merge.order_preserving",
    "repro.merge.structural",
    "repro.obs.diff",
    "repro.obs.sinks",
    "repro.service.scheduler",
    "repro.xml.dtd",
)

#: Layers that load only when their option is set.
OPT_IN_LAYERS = (
    "repro.core.flat",
    "repro.io.bufferpool",
    "repro.io.compress",
    "repro.io.parallel",
    "repro.xml.compact",
    "repro.xml.model",
)


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def sample_xml(children: int = 150, seed: int = 7) -> str:
    """A root whose child list overflows an 8-block, 256-byte memory."""
    rng = random.Random(seed)
    rows = "".join(
        f'<e name="k{rng.randrange(1000):04d}">'
        f'<c name="d{rng.randrange(30)}"/><c name="d{rng.randrange(30)}"/>'
        f"</e>"
        for _ in range(children)
    )
    return f"<root>{rows}</root>"


@pytest.fixture
def xml_file(tmp_path) -> Path:
    path = tmp_path / "in.xml"
    path.write_text(sample_xml())
    return path


# Shared child prelude: the default sort's output, taken before any
# opt-in runs, so it is also the first sort in the interpreter.
PRELUDE = """
import sys
import repro
from repro import BlockDevice, Document, RunStore, SortSpec

XML = open({path!r}).read()
SPEC = SortSpec.parse("*=@name")


def load(device=None, compaction=None):
    device = device or BlockDevice(block_size=256)
    return Document.from_string(RunStore(device), XML, compaction)


EXPECTED = repro.nexsort(load(), SPEC, memory_blocks=8)[0].to_string()
"""


class TestDefaultPath:
    def test_sort_and_emit_load_nothing_off_the_path(self, xml_file):
        code = PRELUDE.format(path=str(xml_file)) + """
import json

from repro.plan import PlanConfig, run_plan


def planned(algorithm):
    def sort(document, spec, memory_blocks):
        config = PlanConfig(algorithm=algorithm, memory_blocks=memory_blocks)
        return run_plan(document, spec, config)

    return sort


loaded_during = []
for sort in (
    planned("nexsort"), planned("merge_sort"),
    repro.nexsort, repro.external_merge_sort,
):
    document = load()
    before = set(sys.modules)
    result, report = sort(document, SPEC, memory_blocks=8)
    text = result.to_string()
    loaded_during += sorted(set(sys.modules) - before)
    assert text == EXPECTED
assert report.initial_runs > report.fan_in  # a real merge ran
print(json.dumps({"loaded": sorted(sys.modules), "during": loaded_during}))
"""
        out = json.loads(run_child(code))
        assert out["during"] == []
        loaded = set(out["loaded"])
        assert loaded & set(NEVER_ON_DEFAULT_PATH) == set()
        assert loaded & set(OPT_IN_LAYERS) == set()

    def test_package_import_does_not_load_numpy(self):
        """The argsort is a stable ``sorted``; importing the package,
        its CLI and its bench harness never pays for numpy, even where
        numpy is installed."""
        out = run_child(
            "import sys, repro, repro.cli, repro.bench.harness; "
            "print('numpy' in sys.modules)"
        )
        assert out.strip() == "False"


#: (layer, probe): each probe is the first code in its interpreter to
#: reach ``layer``, and must leave ``text`` equal to the default output.
OPT_INS = {
    "cache_blocks": ("repro.io.bufferpool", """
text = repro.nexsort(
    load(), SPEC, memory_blocks=10, cache_blocks=2
)[0].to_string()
assert text == EXPECTED
text = repro.external_merge_sort(
    load(), SPEC, memory_blocks=10, cache_blocks=2
)[0].to_string()
"""),
    "compress": ("repro.io.compress", """
from repro.merge import MergeOptions

options = MergeOptions(compress="container", compress_capacity=True)
text = repro.nexsort(
    load(), SPEC, memory_blocks=8, merge_options=options
)[0].to_string()
assert text == EXPECTED
text = repro.external_merge_sort(
    load(), SPEC, memory_blocks=8, merge_options=options
)[0].to_string()
"""),
    "prefetch": ("repro.io.parallel", """
import repro.io.parallel as parallel
from repro.io import StripedDevice
from repro.merge import MergeOptions

started = []


class CountingPrefetcher(parallel.MergePrefetcher):
    def __init__(self, *args, **kwargs):
        started.append(1)
        super().__init__(*args, **kwargs)


parallel.MergePrefetcher = CountingPrefetcher
device = StripedDevice(disks=2, block_size=256, prefetch_depth=4)
text = repro.external_merge_sort(
    load(device), SPEC, memory_blocks=8,
    merge_options=MergeOptions(merge_kernel="loser-tree"),
)[0].to_string()
assert started
"""),
    "flat_optimization": ("repro.core.flat", """
result, report = repro.nexsort(
    load(), SPEC, memory_blocks=8, flat_optimization=True
)
assert report.flat_partial_runs > 0
text = result.to_string()
"""),
    "compaction": ("repro.xml.compact", """
from repro.xml import CompactionConfig

document = load(compaction=CompactionConfig())
text = repro.nexsort(document, SPEC, memory_blocks=8)[0].to_string()
"""),
    "faults": ("repro.faults", """
import contextlib
import io
import os
import tempfile

from repro.cli import main

with tempfile.TemporaryDirectory() as scratch:
    source = os.path.join(scratch, "in.xml")
    target = os.path.join(scratch, "out.xml")
    with open(source, "w") as handle:
        handle.write(XML)
    stats = io.StringIO()
    with contextlib.redirect_stderr(stats):
        code = main([
            "sort", source, "-o", target, "--spec", "*=@name",
            "--memory", "8", "--block-size", "256",
            "--faults", "write@2:run_write", "--retries", "3", "--stats",
        ])
    assert code == 0
    assert "faults injected:     1 " in stats.getvalue(), stats.getvalue()
    reference = repro.nexsort(load(), SPEC, memory_blocks=8)[0]
    assert open(target).read() == reference.to_string(indent="  ")
text = EXPECTED
"""),
    "tracer_sink": ("repro.obs.sinks", """
import io

from repro.obs import Tracer

device = BlockDevice(block_size=256)
document = load(device)
tracer = Tracer(device.stats)
result = repro.nexsort(document, SPEC, memory_blocks=8, tracer=tracer)[0]
trace = tracer.finish()
assert "repro.obs.sinks" not in sys.modules
from repro.obs import TRACE_WRITERS

written = io.StringIO()
TRACE_WRITERS["jsonl"](trace, written)
assert written.getvalue()
text = result.to_string()
"""),
}


class TestOptInLayers:
    @pytest.mark.parametrize("name", sorted(OPT_INS))
    def test_option_loads_its_layer_first(self, name, xml_file):
        layer, probe = OPT_INS[name]
        code = (
            PRELUDE.format(path=str(xml_file))
            + f"assert {layer!r} not in sys.modules\n"
            + probe
            + f"assert text == EXPECTED\nassert {layer!r} in sys.modules\n"
        )
        run_child(code)


def packages_with_all() -> list[str]:
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [
        name for name in names
        if hasattr(importlib.import_module(name), "__all__")
    ]


class TestLazyExports:
    """The contract every package ``__init__`` keeps, lazy or not."""

    @pytest.mark.parametrize("package", packages_with_all())
    def test_every_export_resolves(self, package):
        code = f"""
import importlib

package = importlib.import_module({package!r})
names = list(package.__all__)
assert len(set(names)) == len(names), "duplicate names in __all__"
listed = dir(package)
for name in names:
    assert name in listed, name
    getattr(package, name)
star = {{}}
exec("from {package} import *", star)
missing = set(names) - set(star)
assert not missing, missing
try:
    getattr(package, "no_such_export")
except AttributeError:
    pass
else:
    raise AssertionError("unknown name did not raise AttributeError")
"""
        run_child(code)

    @pytest.mark.parametrize(
        "package, name",
        [("repro.core", "nexsort"), ("repro.baselines", "xsort")],
    )
    def test_export_outlives_its_same_named_submodule(self, package, name):
        """Importing ``repro.core.nexsort`` first still leaves
        ``repro.core.nexsort`` the function, as the eager package did."""
        run_child(f"""
import importlib
import types

importlib.import_module("{package}.{name}")
from {package} import {name} as value

assert callable(value) and not isinstance(value, types.ModuleType)
""")
