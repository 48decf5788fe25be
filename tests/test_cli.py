"""End-to-end command line exercises (main() called in-process)."""

import json

import pytest

from tgmenger import cli
from tgmenger.formats import load_graph


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
        code, _, err = run(capsys, "paths", "-g", "demo", "-k", "3", "--budget", "10")
        assert code == 3
        assert "error" in err

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
        assert doc["budget_used"]["engine"] in ("enumeration", "hitting")

    def test_cut_no(self, capsys):
        code, out, _ = run(capsys, "cut", "-g", "demo", "-k", "1")
        assert code == 1

    def test_bound_line_comes_from_the_result(self, capsys):
        code, out, _ = run(capsys, "cut", "-g", "demo", "-k", "2")
        assert code == 0
        assert "4 candidate snapshots; checking at most 11 subsets" in out

    def test_long_path(self, capsys, tmp_path):
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1} {i + 1}\n" for i in range(1200)))
        code, out, _ = run(
            capsys, "cut", "-g", str(path), "-s", "0", "-z", "1200", "-k", "60"
        )
        assert code == 0
        assert "remove snapshots [1]" in out

    def test_hitting_engine_counts_search_nodes(self, capsys, tmp_path):
        # 30 parallel two-hop routes, one label each: 2^30 subsets, 30 paths.
        path = tmp_path / "routes.edges"
        path.write_text("".join(f"s v{i} {i + 1}\nv{i} z {i + 1}\n" for i in range(30)))
        report = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "cut", "-g", str(path), "-s", "s", "-z", "z", "-k", "30",
            "--report", str(report),
        )
        assert code == 0
        assert "engine hitting, 30 search nodes visited" in out
        assert "subsets checked" not in out
        used = json.loads(report.read_text())["budget_used"]
        assert (used["engine"], used["subsets_checked"]) == ("hitting", 30)

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


class TestUnexpectedErrors:
    def test_crash_is_not_a_no(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(cli.cuts, "snapshot_cut_at_most", crash)
        code, _, err = run(capsys, "cut", "-g", "demo", "-k", "2")
        assert code == 4
        assert err.startswith("error:")
        assert "solver broke" in err


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

    def test_bad_source_document(self, capsys, tmp_path):
        source = tmp_path / "src.json"
        source.write_text("[1, 2, 3]")
        code, _, err = run(
            capsys,
            "gadget", "indep-set", "--source", str(source),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2


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

    def test_product_needs_terminals_for_files(self, capsys, triangle_file):
        code, _, err = run(capsys, "export-dot", "-g", triangle_file, "--product")
        assert code == 2
        assert "-s and -z" in err
