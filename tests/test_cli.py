"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.generators import figure1_d1, figure1_d2, figure1_merged
from repro.xml import Element, element_to_string

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
