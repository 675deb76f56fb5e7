"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.core import nexsort
from repro.generators import figure1_d1, figure1_d2, figure1_merged
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.xml import Document, Element, element_to_string

DTD_TEXT = """
<!ELEMENT company (region*)>
<!ELEMENT region (branch*)>
<!ELEMENT branch (employee*)>
<!ELEMENT employee (name?, phone?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ATTLIST region name CDATA #REQUIRED>
<!ATTLIST branch name CDATA #REQUIRED>
<!ATTLIST employee ID CDATA #REQUIRED>
"""


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.xml"
    path.write_text(element_to_string(figure1_d1(), indent="  "))
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.xml"
    path.write_text(element_to_string(figure1_d2(), indent="  "))
    return str(path)


class TestSortCommand:
    @pytest.mark.parametrize(
        "algorithm", ["nexsort", "mergesort", "xsort"]
    )
    def test_sorts_to_output_file(
        self, d1_file, tmp_path, algorithm, capsys
    ):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort",
                d1_file,
                "-o",
                str(out),
                "--by",
                "name",
                "--tag-attr",
                "employee=ID",
                "--algorithm",
                algorithm,
                "--memory",
                "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        regions = [r.attrs["name"] for r in tree.find_all("region")]
        if algorithm != "xsort":  # xsort needs --target for the root list
            assert regions == ["AC", "NE"]

    def test_xsort_with_target(self, d1_file, tmp_path):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--algorithm", "xsort", "--target", "company",
                "--memory", "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        assert [r.attrs["name"] for r in tree.find_all("region")] == [
            "AC",
            "NE",
        ]

    def test_prints_to_stdout_without_output(self, d1_file, capsys):
        code = main(["sort", d1_file, "--memory", "8"])
        assert code == 0
        assert "<company>" in capsys.readouterr().out

    def test_stats_flag(self, d1_file, capsys):
        code = main(["sort", d1_file, "--memory", "8", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "total block I/Os" in err
        assert "subtree sorts" in err

    def test_cache_blocks_flag(self, d1_file, tmp_path, capsys):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--memory", "12", "--cache-blocks", "4", "--stats",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        regions = [r.attrs["name"] for r in tree.find_all("region")]
        assert regions == ["AC", "NE"]
        assert "cache hits/misses" in capsys.readouterr().err

    def test_cache_blocks_cannot_eat_the_minimum(self, d1_file, capsys):
        code = main(
            ["sort", d1_file, "--memory", "8", "--cache-blocks", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_prefetch_depth_needs_the_loser_tree(self, d1_file, capsys):
        code = main([
            "sort", d1_file, "--memory", "12", "--disks", "2",
            "--prefetch-depth", "2",
        ])
        assert code == 2
        assert "--merge-kernel loser-tree" in capsys.readouterr().err
        assert main([
            "sort", d1_file, "--memory", "12", "--disks", "2",
            "--prefetch-depth", "2", "--merge-kernel", "loser-tree",
        ]) == 0

    @pytest.mark.parametrize("algorithm", ["mergesort", "xsort"])
    def test_depth_limit_needs_nexsort(self, d1_file, algorithm, capsys):
        """A depth limit is honoured or refused, never ignored."""
        code = main([
            "sort", d1_file, "--algorithm", algorithm, "--depth-limit", "1",
        ])
        assert code == 2
        assert "--depth-limit" in capsys.readouterr().err

    def test_plan_auto_keeps_the_depth_limit(self, tmp_path, capsys):
        """A depth limit pins NEXSORT: the planned run writes the same
        partly sorted document as the plain one."""
        doc = _fig5_file(tmp_path)
        geometry = ["--memory", "24", "--block-size", "512"]
        planned, plain = tmp_path / "planned.xml", tmp_path / "plain.xml"
        assert main([
            "sort", doc, "-o", str(planned), "--plan", "auto", "--stats",
            "--depth-limit", "1", *geometry,
        ]) == 0
        assert _plan_line(capsys.readouterr().err).startswith(
            "plan: nexsort "
        )
        assert main([
            "sort", doc, "-o", str(plain), "--depth-limit", "1", *geometry,
        ]) == 0
        assert planned.read_text() == plain.read_text()

    def test_plan_auto_sorts_with_the_exact_threshold(self, tmp_path, capsys):
        """A pinned threshold that is not a block multiple is not rounded
        to whole blocks: with every other axis pinned too, the planned
        run counts what the plain run counts."""
        from repro.generators import auction_events
        from repro.xml.writer import events_to_string

        doc = tmp_path / "auction.xml"
        doc.write_text(events_to_string(auction_events(
            seed=3, auctions_per_region=30, max_bids=8, regions=2
        )))
        flags = [
            "sort", str(doc), "-o", str(tmp_path / "out.xml"), "--stats",
            "--memory", "24", "--block-size", "512", "--threshold", "900",
        ]
        assert main(flags) == 0
        plain = _counter_lines(capsys.readouterr().err)
        assert main([
            *flags, "--plan", "auto", "--algorithm", "nexsort",
            "--cache-blocks", "0", "--run-formation", "load-sort",
            "--merge-kernel", "heap", "--compress", "off",
        ]) == 0
        err = capsys.readouterr().err
        assert "threshold=1.75781B" in _plan_line(err)
        assert _counter_lines(err) == plain
        assert "  subtree sorts (x):   45" in plain

    def test_plan_auto_sorts_and_reports(self, d1_file, tmp_path, capsys):
        out = tmp_path / "planned.xml"
        code = main([
            "sort", d1_file, "-o", str(out),
            "--memory", "12", "--plan", "auto", "--stats",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "plan: " in err
        assert "predicted" in err
        assert out.exists()

    def test_plan_auto_matches_unplanned_output(
        self, d1_file, tmp_path
    ):
        planned = tmp_path / "planned.xml"
        default = tmp_path / "default.xml"
        assert main([
            "sort", d1_file, "-o", str(planned),
            "--memory", "12", "--plan", "auto",
        ]) == 0
        assert main([
            "sort", d1_file, "-o", str(default), "--memory", "12",
        ]) == 0
        # Planning changes knobs, never the sorted result.
        assert planned.read_text() == default.read_text()

    def test_plan_auto_honors_explicit_algorithm(
        self, d1_file, tmp_path, capsys
    ):
        out = tmp_path / "pinned.xml"
        code = main([
            "sort", d1_file, "-o", str(out),
            "--memory", "12", "--plan", "auto",
            "--algorithm", "mergesort", "--stats",
        ])
        assert code == 0
        assert "plan: merge_sort" in capsys.readouterr().err

    def test_plan_auto_rejects_xsort(self, d1_file, capsys):
        code = main([
            "sort", d1_file, "--plan", "auto", "--algorithm", "xsort",
        ])
        assert code == 2
        assert "xsort" in capsys.readouterr().err

    def test_plan_off_emits_no_plan(self, d1_file, tmp_path, capsys):
        out = tmp_path / "sorted.xml"
        assert main([
            "sort", d1_file, "-o", str(out), "--memory", "12",
            "--stats",
        ]) == 0
        assert "plan: " not in capsys.readouterr().err

    def test_compact_and_flat_opt_flags(self, d1_file, tmp_path):
        out = tmp_path / "sorted.xml"
        code = main(
            [
                "sort", d1_file, "-o", str(out),
                "--compact", "--flat-opt", "--memory", "8",
            ]
        )
        assert code == 0
        assert "<company>" in out.read_text()

    def test_scratch_file_backing(self, d1_file, tmp_path):
        scratch = tmp_path / "scratch.bin"
        code = main(
            [
                "sort", d1_file, "--memory", "8",
                "--scratch", str(scratch), "-o",
                str(tmp_path / "out.xml"),
            ]
        )
        assert code == 0
        assert not scratch.exists()  # cleaned up

    def test_missing_file_is_an_error(self, capsys):
        code = main(["sort", "no-such-file.xml"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_tag_attr_is_an_error(self, d1_file, capsys):
        code = main(["sort", d1_file, "--tag-attr", "broken"])
        assert code == 2

    def test_kernel_flag_is_gone(self, d1_file, capsys):
        # One sort implementation: there is no kernel to choose.
        with pytest.raises(SystemExit) as excinfo:
            main(["sort", d1_file, "--kernel", "columnar"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_default_sort_loads_only_the_sort_path(self, d1_file, tmp_path):
        """``python -m repro sort`` with default flags writes what
        ``nexsort`` returns, without loading the opt-in subsystems."""
        out = tmp_path / "out.xml"
        src = str(Path(repro.__file__).resolve().parent.parent)
        child = subprocess.run(
            [
                sys.executable, "-X", "importtime", "-m", "repro",
                "sort", d1_file, "-o", str(out),
            ],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in child.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.core.nexsort" in loaded
        for module in (
            "repro.faults",
            "repro.analysis",
            "repro.service",
            "repro.xml.dtd",
            "repro.obs.sinks",
        ):
            assert module not in loaded
        document = Document.from_file(
            RunStore(BlockDevice(block_size=4096)), d1_file
        )
        spec = SortSpec(default=ByAttribute("name", missing_uses_tag=True))
        expected, _ = nexsort(document, spec, memory_blocks=24)
        assert out.read_text(encoding="utf-8") == expected.to_string(
            indent="  "
        )

    def test_trace_formats_are_the_trace_writers(self):
        from repro.obs import TRACE_WRITERS

        sort_parser = build_parser()._subparsers._group_actions[0].choices[
            "sort"
        ]
        (action,) = [
            a for a in sort_parser._actions if a.dest == "trace_format"
        ]
        assert sorted(action.choices) == sorted(TRACE_WRITERS)


class TestMergeCommand:
    def test_figure1_pipeline(self, d1_file, d2_file, tmp_path):
        out = tmp_path / "merged.xml"
        code = main(
            [
                "merge", d1_file, d2_file, "-o", str(out),
                "--by", "name", "--tag-attr", "employee=ID",
                "--depth-limit", "3", "--memory", "8",
            ]
        )
        assert code == 0
        assert Element.parse(out.read_text()) == figure1_merged()

    def test_preserve_order(self, d1_file, d2_file, tmp_path):
        out = tmp_path / "merged.xml"
        code = main(
            [
                "merge", d1_file, d2_file, "-o", str(out),
                "--by", "name", "--tag-attr", "employee=ID",
                "--preserve-order", "--memory", "8",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        # D1's original region order: NE before AC.
        assert [r.attrs["name"] for r in tree.find_all("region")][:2] == [
            "NE",
            "AC",
        ]


class TestTable1Command:
    def test_prints_key_paths(self, d1_file, capsys):
        code = main(
            [
                "table1", d1_file,
                "--by", "name", "--tag-attr", "employee=ID",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/AC/Durham/323/name" in out
        assert "<phone>5552345" in out


class TestValidateCommand:
    def test_valid_document(self, d1_file, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(DTD_TEXT)
        code = main(["validate", d1_file, "--dtd", str(dtd)])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(DTD_TEXT)
        bad = tmp_path / "bad.xml"
        bad.write_text("<company><rogue/></company>")
        code = main(["validate", str(bad), "--dtd", str(dtd)])
        assert code == 1
        assert "violation" in capsys.readouterr().err


def _plan_line(text: str) -> str:
    [line] = [line for line in text.splitlines() if line.startswith("plan:")]
    return line


def _counter_lines(text: str) -> list[str]:
    """``--stats`` lines after the plan, without wall time and RSS."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("["))
    return [
        line for line in lines[start:]
        if "wall seconds" not in line and "peak RSS" not in line
    ]


def _fig5_file(tmp_path) -> str:
    """The CI Figure-5 document as a file."""
    from repro.generators import level_fanout_events
    from repro.xml.writer import events_to_string

    path = tmp_path / "fig5.xml"
    path.write_text(events_to_string(
        level_fanout_events([11, 11, 11, 5], seed=5, pad_bytes=24)
    ))
    return str(path)


class TestAnalyzeCommand:
    def test_prints_geometry_and_bounds(self, d1_file, capsys):
        code = main(["analyze", d1_file, "--memory", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max fan-out" in out
        assert "Thm 4.4 lower bound" in out
        assert "merge sort passes" in out
        lines = out.splitlines()
        assert any(line.startswith("plan: ") for line in lines)
        assert any(line.startswith("predicted: ") for line in lines)

    @pytest.mark.parametrize(
        "fanouts, block_size, memory",
        [
            ([60, 4, 2], 512, 6),
            ([2000], 1024, 6),
            ([5000], 4096, 8),
            ([8, 8, 8], 256, 24),
            ([1500], 512, 64),
            ([11, 11, 11], 512, 24),
            ([20, 20], 1024, 16),
        ],
    )
    def test_plans_what_sort_plan_auto_runs(
        self, tmp_path, capsys, fanouts, block_size, memory
    ):
        """One answer: analyze prints the plan ``sort --plan auto`` runs."""
        from repro.generators import level_fanout_events
        from repro.xml.writer import events_to_string

        doc = tmp_path / "doc.xml"
        doc.write_text(
            events_to_string(
                level_fanout_events(fanouts, seed=3, pad_bytes=24)
            )
        )
        geometry = ["--memory", str(memory), "--block-size", str(block_size)]
        assert main(["analyze", str(doc), *geometry]) == 0
        analyzed = _plan_line(capsys.readouterr().out)
        out = tmp_path / "out.xml"
        assert main(
            ["sort", str(doc), "-o", str(out), "--plan", "auto", "--stats",
             *geometry]
        ) == 0
        assert analyzed == _plan_line(capsys.readouterr().err)

    def test_end_keyed_spec_plans_nexsort(self, tmp_path, capsys):
        """A key computed at end tags rules merge sort out of the plan:
        ``sort --plan auto`` sorts it, and ``analyze`` plans the same."""
        from repro.baselines import sort_element
        from repro.generators import auction_events
        from repro.xml.writer import events_to_string

        spec = "*=@name,open_auction=item/quantity"
        doc = tmp_path / "auction.xml"
        doc.write_text(
            events_to_string(
                auction_events(
                    seed=3, auctions_per_region=30, max_bids=8, regions=2
                )
            )
        )
        geometry = ["--memory", "8", "--block-size", "512", "--spec", spec]
        assert main(["analyze", str(doc), *geometry]) == 0
        analyzed = _plan_line(capsys.readouterr().out)
        assert analyzed.startswith("plan: nexsort ")
        out = tmp_path / "out.xml"
        assert main(
            ["sort", str(doc), "-o", str(out), "--plan", "auto", "--stats",
             *geometry]
        ) == 0
        assert analyzed == _plan_line(capsys.readouterr().err)
        oracle = sort_element(
            Element.parse(doc.read_text()), SortSpec.parse(spec)
        )
        assert Element.parse(out.read_text()) == oracle
        # An explicit merge sort still fails on the end-keyed spec.
        assert main(
            ["sort", str(doc), "-o", str(out), "--plan", "auto",
             "--algorithm", "mergesort", *geometry]
        ) == 2
        assert "start-computable" in capsys.readouterr().err

    def test_takes_no_depth_limit(self, d1_file, capsys):
        """``analyze`` takes the ordering flags its plan reads, and not
        ``--depth-limit``, which no plan reads."""
        assert main(
            ["analyze", d1_file, "--by", "name", "--spec", "*=@name"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", d1_file, "--depth-limit", "2"])
        assert exc.value.code == 2
        assert "--depth-limit" in capsys.readouterr().err


class TestCommandOptions:
    """Each subcommand takes only the options it reads, and removes its
    ``--scratch`` file however it ends."""

    @pytest.mark.parametrize(
        "command, option",
        [
            ("analyze", ["--stats"]),
            ("table1", ["--stats"]),
            ("validate", ["--stats"]),
            ("table1", ["--memory", "3"]),
            ("validate", ["--memory", "3"]),
            ("table1", ["--depth-limit", "1"]),
        ],
    )
    def test_inert_option_is_rejected(
        self, d1_file, tmp_path, capsys, command, option
    ):
        dtd = ["--dtd", str(tmp_path / "x.dtd")]
        extra = dtd if command == "validate" else []
        with pytest.raises(SystemExit) as exc:
            main([command, d1_file, *extra, *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sort", "{doc}", "-o", "{out}"], 0),
            (["sort", "{doc}", "-o", "{out}", "--algorithm", "mergesort",
              "--spec", "*=@name,employee=name"], 2),
            (["sort", "{doc}", "-o", "{out}", "--faults", "bogus"], 2),
            (["merge", "{doc}", "{doc}", "-o", "{out}"], 0),
            (["dedup", "{doc}", "-o", "{out}"], 0),
            (["table1", "{doc}"], 0),
            (["validate", "{doc}", "--dtd", "{dtd}"], 0),
            (["analyze", "{doc}", "--memory", "16"], 0),
        ],
    )
    def test_scratch_file_is_removed(
        self, d1_file, tmp_path, capsys, argv, code
    ):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(DTD_TEXT)
        scratch = tmp_path / "scratch.bin"
        paths = {"doc": d1_file, "out": tmp_path / "out.xml", "dtd": dtd}
        argv = [arg.format(**paths) for arg in argv]
        assert main([*argv, "--scratch", str(scratch)]) == code
        assert not scratch.exists()


class TestDedupCommand:
    def test_sorts_and_removes_duplicates(self, tmp_path, capsys):
        doc = tmp_path / "dup.xml"
        doc.write_text(
            '<r name="r"><a name="2"/><a name="1"/><a name="2"/></r>'
        )
        out = tmp_path / "out.xml"
        code = main(
            [
                "dedup", str(doc), "-o", str(out),
                "--by", "name", "--memory", "8", "--stats",
            ]
        )
        assert code == 0
        tree = Element.parse(out.read_text())
        assert [c.attrs["name"] for c in tree.children] == ["1", "2"]
        assert "duplicate subtrees removed: 1" in capsys.readouterr().err
