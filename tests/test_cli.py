"""End-to-end command line exercises (main() called in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tgmenger import cli
from tgmenger.formats import load_graph, save_graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIANGLE = "a b 1\nb c 2\na c 3\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text(TRIANGLE)
    return str(path)


class TestPaths:
    def test_yes_and_report(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        code, out, _ = run(
            capsys, "paths", "-g", "demo", "-k", "2", "--report", str(report)
        )
        assert code == 0
        assert "(10+2)^2 = 144" in out
        assert "2 snapshot-disjoint s-z paths: yes" in out
        doc = json.loads(report.read_text())
        assert doc["answer"] is True
        assert len(doc["witness"]) == 2
        assert doc["budget_used"]["tuples_materialized"] < doc["budget_used"]["tuple_bound"]

    def test_no(self, capsys):
        code, out, _ = run(capsys, "paths", "-g", "demo", "-k", "3")
        assert code == 1
        assert "no" in out

    def test_budget_blown(self, capsys):
        # the k = 3 search reaches 9 tuples
        code, _, err = run(capsys, "paths", "-g", "demo", "-k", "3", "--budget", "8")
        assert code == 3
        assert "error" in err

    def test_budget_counts_tuples_reached_not_the_bound(self, capsys):
        # (10+2)^7 is far over the default budget, but the search reaches
        # only 8 tuples.
        code, out, _ = run(capsys, "paths", "-g", "demo", "-k", "7")
        assert code == 1
        assert "visited 8 tuples" in out
        code, _, err = run(capsys, "paths", "-g", "demo", "-k", "7", "--budget", "7")
        assert code == 3
        assert "budget of 7 units" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-k", "0"], "k must be at least 1"),
            (["-k", "2", "--budget", "-1"], "budget must be at least 0"),
            (["-k", "2", "-s", "nowhere"], "unknown vertex"),
        ],
    )
    def test_malformed_question_prints_no_bound(self, capsys, argv, message):
        code, out, err = run(capsys, "paths", "-g", "demo", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_bound_too_long_for_decimal(self, capsys, tmp_path):
        # 12^5000 has more digits than Python converts to text, so the
        # bound is printed and reported as the power itself.
        report = tmp_path / "run.json"
        code, out, _ = run(
            capsys, "paths", "-g", "demo", "-k", "5000", "--report", str(report)
        )
        assert code == 1
        assert "at most (10+2)^5000 = 12^5000 (budget" in out
        assert "5000 snapshot-disjoint s-z paths: no" in out
        doc = json.loads(report.read_text())
        assert doc["budget_used"]["tuple_bound"] == "12^5000"
        assert doc["budget_used"]["tuples_materialized"] == 8

    def test_file_requires_terminals(self, capsys, triangle_file):
        code, _, err = run(capsys, "paths", "-g", triangle_file, "-k", "1")
        assert code == 2
        assert "-s and -z" in err

    def test_file_instance(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "paths", "-g", triangle_file, "-s", "a", "-z", "c", "-k", "2"
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "paths", "-g", "no/such/file", "-k", "1")
        assert code == 2


class TestCuts:
    def test_cut_yes_with_witness(self, capsys, tmp_path):
        report = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "cut", "-g", "demo", "-k", "2", "--report", str(report)
        )
        assert code == 0
        assert "remove snapshots [2, 3]" in out
        doc = json.loads(report.read_text())
        assert doc["witness"] == [2, 3]
        assert doc["budget_used"]["engine"] == "hitting"

    def test_cut_no(self, capsys):
        code, out, _ = run(capsys, "cut", "-g", "demo", "-k", "1")
        assert code == 1

    def test_bound_line_comes_from_the_result(self, capsys):
        code, out, _ = run(capsys, "cut", "-g", "demo", "-k", "2")
        assert code == 0
        assert "4 candidate snapshots; checking at most 11 subsets" in out

    def test_bound_too_long_for_decimal(self, capsys, tmp_path):
        # 15,001 candidate labels at h = 7,500: the subset count has more
        # digits than Python converts to text, so the bound is printed and
        # reported as its formula.
        path = tmp_path / "wide.edges"
        path.write_text("".join(f"s a {t}\n" for t in range(1, 15001)) + "a z 15001\n")
        report = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "cut", "-g", str(path), "-s", "s", "-z", "z", "-k", "7500",
            "--report", str(report),
        )
        assert code == 0
        assert "checking at most sum_{i<=7500} C(15001, i) subsets (budget" in out
        assert "snapshot cut of size <= 7500: yes" in out
        assert "remove snapshots [15001]" in out
        doc = json.loads(report.read_text())
        assert doc["witness"] == [15001]
        assert doc["budget_used"]["subset_bound"] == "sum_{i<=7500} C(15001, i)"

    def test_long_path(self, capsys, tmp_path):
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1} {i + 1}\n" for i in range(1200)))
        code, out, _ = run(
            capsys, "cut", "-g", str(path), "-s", "0", "-z", "1200", "-k", "60"
        )
        assert code == 0
        assert "remove snapshots [1]" in out

    def test_hitting_engine_counts_search_nodes(self, capsys, tmp_path):
        # 30 parallel two-hop routes, one label each: 2^30 subsets, but the
        # seed's 30 single-label paths are the cut, found in one node.
        path = tmp_path / "routes.edges"
        path.write_text("".join(f"s v{i} {i + 1}\nv{i} z {i + 1}\n" for i in range(30)))
        report = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "cut", "-g", str(path), "-s", "s", "-z", "z", "-k", "30",
            "--report", str(report),
        )
        assert code == 0
        assert "engine hitting, 1 distinct subsets searched" in out
        assert "subsets checked" not in out
        used = json.loads(report.read_text())["budget_used"]
        assert (used["engine"], used["subsets_checked"]) == ("hitting", 1)

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cut", "-g", "demo", "-k", "2", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_mcut_witness(self, capsys, tmp_path):
        report = tmp_path / "mcut.json"
        code, out, _ = run(
            capsys, "mcut", "-g", "demo", "-k", "2", "--report", str(report)
        )
        assert code == 0
        assert "remove multiedges" in out
        doc = json.loads(report.read_text())
        assert doc["witness"] == [["s", "u"], ["s", "w"]]

    def test_fixture_terminals_can_be_overridden(self, capsys):
        # z -> w is cut by removing snapshot 1 alone... actually w is
        # reachable from s at times 1 and 3, so k=2 certainly succeeds
        code, out, _ = run(capsys, "cut", "-g", "demo", "-z", "w", "-k", "2")
        assert code == 0


class TestFlow:
    def test_injective_rejects_demo(self, capsys):
        code, _, err = run(capsys, "flow", "-g", "demo")
        assert code == 2
        assert "error" in err

    def test_edge_disjoint(self, capsys, tmp_path):
        report = tmp_path / "flow.json"
        code, out, _ = run(
            capsys,
            "flow", "-g", "demo", "--edge-disjoint", "--report", str(report),
        )
        assert code == 0
        assert ": 3" in out
        doc = json.loads(report.read_text())
        assert doc["witness"]["value"] == 3
        assert len(doc["witness"]["family"]) == 3

    @pytest.fixture
    def injective_file(self, tmp_path):
        path = tmp_path / "inj.edges"
        path.write_text("s a 1\na z 3\ns b 2\nb z 4\na b 6\n")
        return str(path)

    def test_injective_instance(self, capsys, injective_file):
        code, out, _ = run(capsys, "flow", "-g", injective_file, "-s", "s", "-z", "z")
        assert code == 0
        assert ": 2" in out
        assert "minimum snapshot cut:" in out

    def test_threshold_decision(self, capsys, injective_file):
        args = ("flow", "-g", injective_file, "-s", "s", "-z", "z")
        code, _, _ = run(capsys, *args, "-k", "3")
        assert code == 1
        code, _, _ = run(capsys, *args, "-k", "2")
        assert code == 0

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_threshold_must_be_positive(self, capsys, k):
        code, out, err = run(capsys, "flow", "-g", "demo", "--edge-disjoint", "-k", k)
        assert code == 2
        assert "k must be at least 1" in err
        assert out == ""


class TestUnexpectedErrors:
    def test_crash_is_not_a_no(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(cli.cuts, "snapshot_cut_at_most", crash)
        code, _, err = run(capsys, "cut", "-g", "demo", "-k", "2")
        assert code == 4
        assert err.startswith("error:")
        assert "solver broke" in err

    def test_closed_pipe_exits_141(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tgmenger", "cut", "-g", "demo", "-k", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestMengerian:
    def test_demo_is_rejected_with_witness(self, capsys, tmp_path):
        report = tmp_path / "meng.json"
        dot = tmp_path / "bad.dot"
        code, out, _ = run(
            capsys,
            "mengerian", "-g", "demo",
            "--witness-dot", str(dot), "--report", str(report),
        )
        assert code == 1
        assert "mengerian: no" in out
        assert "forbidden shape M5" in out
        doc = json.loads(report.read_text())
        assert doc["witness"]["code"] == "M5"
        assert set(doc["witness"]["vertex_map"]) == {"s", "z", "a", "b"}
        assert doc["witness"]["terminals"]
        text = dot.read_text()
        assert text.startswith("graph")
        # the DOT carries the whole underlying multigraph, relabeled
        bad = doc["witness"]["bad_labeling"]
        assert len(bad["edges"]) == 10

    def test_catalog_fixture_names_work(self, capsys):
        code, out, _ = run(capsys, "mengerian", "-g", "m1")
        assert code == 1
        assert "forbidden shape M1" in out

    def test_acceptance_on_file(self, capsys, triangle_file):
        code, out, _ = run(capsys, "mengerian", "-g", triangle_file)
        assert code == 0
        assert "mengerian: yes" in out


class TestOracle:
    def test_packing(self, capsys):
        code, out, _ = run(capsys, "oracle", "-g", "demo", "--what", "packing")
        assert code == 0
        assert "packing = 2" in out

    def test_cut_witness_printed(self, capsys):
        code, out, _ = run(capsys, "oracle", "-g", "demo", "--what", "cut")
        assert code == 0
        assert "cut = 2" in out
        assert "remove snapshots [2, 3]" in out

    def test_multiedge_cut(self, capsys, tmp_path):
        report = tmp_path / "oracle.json"
        code, out, _ = run(
            capsys,
            "oracle", "-g", "demo", "--what", "multiedge-cut",
            "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["answer"] == 2
        assert doc["witness"] == [["s", "u"], ["s", "w"]]

    @pytest.mark.parametrize("what", sorted(cli._ORACLES))
    def test_equal_terminals_exit_2(self, capsys, what):
        code, out, err = run(
            capsys, "oracle", "-g", "demo", "-s", "s", "-z", "s", "--what", what
        )
        assert code == 2
        assert "terminals must be distinct" in err
        assert out == ""


class TestGadget:
    def test_indep_set_round_trip(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        source.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}))
        out_path = tmp_path / "gadget.json"
        code, out, _ = run(
            capsys,
            "gadget", "indep-set", "--source", str(source), "--out", str(out_path),
        )
        assert code == 0
        g = load_graph(out_path)
        manifest = json.loads((tmp_path / "gadget.manifest.json").read_text())
        assert manifest["alpha"] == 2
        assert manifest["s"] in {str(v) for v in g.vertices} | set(g.vertices)

    def test_clique_needs_colors(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        source.write_text(json.dumps({"vertices": ["x", "y"], "edges": [["x", "y"]]}))
        out_path = tmp_path / "gadget.json"
        code, _, err = run(
            capsys,
            "gadget", "clique", "--source", str(source), "--out", str(out_path),
        )
        assert code == 2
        assert "colors" in err

    def test_clique_with_colors(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        source.write_text(
            json.dumps(
                {
                    "vertices": ["x", "y"],
                    "edges": [["x", "y"]],
                    "colors": {"x": "a", "y": "b"},
                }
            )
        )
        out_path = tmp_path / "clique.json"
        code, out, _ = run(
            capsys,
            "gadget", "clique", "--source", str(source), "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "clique.manifest.json").read_text())
        assert manifest["k"] == 2
        assert "snapshot cut" in manifest["question"]

    def test_vertex_cover(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        source.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
        out_path = tmp_path / "vc.json"
        code, _, _ = run(
            capsys,
            "gadget", "vertex-cover", "--source", str(source), "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "vc.manifest.json").read_text())
        assert manifest["n"] == 2 and manifest["tau"] == 1

    @pytest.mark.parametrize("kind", ["indep-set", "vertex-cover"])
    def test_large_edgeless_source(self, capsys, tmp_path, kind):
        source = tmp_path / "src.json"
        source.write_text(json.dumps({"vertices": list(range(1100)), "edges": []}))
        code, out, err = run(
            capsys,
            "gadget", kind, "--source", str(source), "--out", str(tmp_path / "g.json"),
        )
        assert (code, err) == (0, "")
        assert "1100" in out

    def test_bad_source_document(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        bad = [
            ("indep-set", [1, 2, 3]),
            ("indep-set", {"vertices": [0, 1], "edges": [3]}),
            ("vertex-cover", {"vertices": [0, 1], "edges": [{"u": 0, "v": 1}]}),
            ("indep-set", {"vertices": [[0], 1], "edges": []}),
            ("vertex-cover", {"vertices": [0, 1], "edges": [[[0], 1]]}),
            ("indep-set", {"vertices": 5, "edges": []}),
            ("vertex-cover", {"vertices": [0, 1], "edges": {"0": 1}}),
            ("clique", {"vertices": ["x", "y"], "edges": [["x", "y"]],
                        "colors": {"x": ["a"], "y": "b"}}),
        ]
        for kind, doc in bad:
            source.write_text(json.dumps(doc))
            code, _, err = run(
                capsys,
                "gadget", kind, "--source", str(source),
                "--out", str(tmp_path / "x.json"),
            )
            assert code == 2, (doc, err)


class TestExportDot:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "export-dot", "-g", "demo")
        assert code == 0
        assert out.startswith("graph")
        assert '"s" -- "w"' in out

    def test_file_and_highlight(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, out, _ = run(
            capsys,
            "export-dot", "-g", "demo", "-o", str(out_path),
            "--highlight-labels", "2,3",
        )
        assert code == 0
        assert "red" in out_path.read_text()

    def test_bad_highlight(self, capsys):
        code, _, err = run(
            capsys, "export-dot", "-g", "demo", "--highlight-labels", "x"
        )
        assert code == 2

    def test_product(self, capsys):
        code, out, _ = run(capsys, "export-dot", "-g", "two-route", "--product")
        assert code == 0
        assert out.startswith("digraph product")

    def test_product_dump_stops_at_500_tuples(self, capsys, tmp_path, petersen_gadget):
        # The gadget's k = 3 product is far larger than the dump may draw;
        # the dump stops at 501 tuples, within a budget of 501.
        path = tmp_path / "petersen.json"
        save_graph(path, petersen_gadget.graph)
        code, out, err = run(
            capsys,
            "export-dot", "-g", str(path), "--product", "-s", "s", "-z", "z",
            "-k", "3", "--budget", "501",
        )
        assert code == 3
        assert out == ""
        assert "more than 500 product tuples in DOT dump" in err

    def test_product_parses_the_file_once(self, capsys, monkeypatch, triangle_file):
        calls = []

        def counting(path):
            calls.append(path)
            return load_graph(path)

        monkeypatch.setattr(cli.formats, "load_graph", counting)
        code, out, _ = run(
            capsys, "export-dot", "-g", triangle_file, "--product", "-s", "a", "-z", "c"
        )
        assert code == 0
        assert out.startswith("digraph product")
        assert calls == [triangle_file]

    def test_product_needs_terminals_for_files(self, capsys, triangle_file):
        code, _, err = run(capsys, "export-dot", "-g", triangle_file, "--product")
        assert code == 2
        assert "-s and -z" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "-g", "demo", "-k", "2", "--budget", "-1"],
        ["cut", "-g", "demo", "-k", "0", "--budget", "-1"],
        ["mcut", "-g", "demo", "-k", "1", "--budget", "-5"],
        ["export-dot", "-g", "demo", "--product", "--budget", "-3"],
    ],
)
def test_negative_budget_exits_2(capsys, argv):
    # One rule in every engine, not a "no" from one and a blown budget
    # from another.
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "budget must be at least 0" in err


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": [["a"]], "edges": [{"u": "a", "v": "b", "t": 1}]},
            {"edges": [{"u": {"a": 1}, "v": "b", "t": 1}]},
            {"edges": [{"id": [0], "u": "a", "v": "b", "t": 1}]},
        ],
        ids=["vertex", "endpoint", "edge-id"],
    )
    def test_array_or_object_names_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "cut", "-g", str(path), "-s", "a", "-z", "b", "-k", "1")
        assert code == 2
        assert "array or object" in err
