"""The command line's shared recipes: one run-record schema, one rule for
files it cannot write, and its printed output pinned across refactors."""

import hashlib
import json
import re

import pytest

from tgmenger import cli

RECORD_KEYS = {"instance", "question", "answer", "witness", "elapsed", "budget_used"}

FILES = {
    # Injective: every label occurs once, so `flow` answers on it.
    "injective.edges": "s a 1\na z 3\ns b 2\nb z 4\na b 6\n",
    "triangle.edges": "a b 1\nb c 2\na c 3\n",
    # c is unreachable from a: the only walk would go back in time.
    "late.edges": "a b 2\nb c 1\n",
}

FIXTURES = ("demo", "tight-gap", "two-route", "m1")
ORACLE_WHATS = ("packing", "cut", "edge-disjoint", "multiedge-disjoint", "multiedge-cut")


def output_matrix() -> list:
    """The commands the digest below covers: every decision subcommand over
    the four fixtures, with other terminals, budgets and small files."""
    cases = []
    for fx in FIXTURES:
        for k in (1, 2, 3):
            cases.append(["paths", "-g", fx, "-k", str(k)])
            cases.append(["cut", "-g", fx, "-k", str(k - 1)])
            cases.append(["mcut", "-g", fx, "-k", str(k - 1)])
        cases.append(["paths", "-g", fx, "-k", "3", "--budget", "4"])
        cases.append(["cut", "-g", fx, "-k", "2", "--budget", "1"])
        cases.append(["flow", "-g", fx])
        cases.append(["flow", "-g", fx, "--edge-disjoint"])
        cases.append(["flow", "-g", fx, "--edge-disjoint", "-k", "3"])
        cases.append(["mengerian", "-g", fx, "--witness-dot", "{dot}"])
        for what in ORACLE_WHATS:
            cases.append(["oracle", "-g", fx, "--what", what])
    cases += [
        ["paths", "-g", "demo", "-z", "w", "-k", "2"],
        ["cut", "-g", "demo", "-s", "z", "-z", "s", "-k", "1"],
        ["mcut", "-g", "demo", "-z", "w", "-k", "1"],
        ["oracle", "-g", "demo", "-z", "w", "--what", "cut"],
        ["flow", "-g", "{injective.edges}", "-s", "s", "-z", "z"],
        ["flow", "-g", "{injective.edges}", "-s", "s", "-z", "z", "-k", "3"],
        ["mengerian", "-g", "{triangle.edges}", "--witness-dot", "{dot}"],
        ["paths", "-g", "{late.edges}", "-s", "a", "-z", "c", "-k", "1"],
        ["cut", "-g", "{late.edges}", "-s", "a", "-z", "c", "-k", "0"],
        ["mcut", "-g", "{late.edges}", "-s", "a", "-z", "c", "-k", "0"],
        ["flow", "-g", "{late.edges}", "-s", "a", "-z", "c", "--edge-disjoint"],
        ["oracle", "-g", "{late.edges}", "-s", "a", "-z", "c", "--what", "packing"],
        ["oracle", "-g", "demo", "-s", "s", "-z", "s", "--what", "cut"],
    ]
    return cases


def mask_timings(text: str) -> str:
    return re.sub(r"\b\d+\.\d{3}s\b", "N.NNNs", text)


def run_case(capsys, tmp_path, argv) -> tuple:
    """(exit code, masked stdout, report less elapsed, DOT file) of one run."""
    paths = {name: tmp_path / name for name in FILES}
    for name, text in FILES.items():
        paths[name].write_text(text)
    report, dot = tmp_path / "run.json", tmp_path / "bad.dot"
    for stale in (report, dot):
        stale.unlink(missing_ok=True)
    argv = [
        str(dot) if a == "{dot}" else str(paths[a[1:-1]]) if a.startswith("{") else a
        for a in argv
    ]
    code = cli.main(argv + ["--report", str(report)])
    out = mask_timings(capsys.readouterr().out).replace(str(tmp_path), "TMP")
    doc = None
    if report.exists():
        doc = json.loads(report.read_text())
        doc.pop("elapsed")
        doc["instance"] = doc["instance"].replace(str(tmp_path), "TMP")
    drawn = dot.read_text() if dot.exists() else None
    return code, out, doc, drawn


# sha256 over output_matrix()'s runs, recorded before the subcommands
# shared their record writer, timer, printers and file writer, and
# re-recorded when the cut witness came by self-reduction: three yes runs
# reach fewer distinct subsets (demo cut -k 2, demo and two-route mcut
# -k 2), with the same answers, witnesses and exit codes.  Re-recorded
# again when recognition grew its diamond (M5) from a cycle and one ear:
# demo's witness maps s -> z and z -> s, and its bad labeling follows.
CLI_OUTPUT_DIGEST = "c0f19fb32bfa43606db6b93385692ffc24715edd4d32bbd7a2607224ded16ac4"


def test_output_matches_recorded_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    for argv in output_matrix():
        code, out, doc, drawn = run_case(capsys, tmp_path, argv)
        assert code in (0, 1, 2, 3), (argv, code)
        key = (argv, code, out, json.dumps(doc, sort_keys=True), drawn)
        digest.update(repr(key).encode())
    assert digest.hexdigest() == CLI_OUTPUT_DIGEST


EDGELESS = {"vertices": list(range(1100)), "edges": []}


@pytest.mark.parametrize(
    "argv, budget_keys",
    [
        (["paths", "-g", "demo", "-k", "2"],
         {"tuple_bound", "tuples_materialized", "arcs_explored", "budget"}),
        (["cut", "-g", "demo", "-k", "2"],
         {"engine", "candidates", "subsets_checked", "subset_bound", "budget"}),
        (["mcut", "-g", "demo", "-k", "1"],
         {"engine", "candidates", "subsets_checked", "subset_bound", "budget"}),
        (["flow", "-g", "demo", "--edge-disjoint"], set()),
        (["mengerian", "-g", "demo"], set()),
        (["oracle", "-g", "demo", "--what", "multiedge-cut"], set()),
        (["gadget", "indep-set", "--source", "{source}", "--out", "{out}"], set()),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_every_report_has_one_schema(capsys, tmp_path, argv, budget_keys):
    source = tmp_path / "src.json"
    source.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}))
    spots = {"{source}": str(source), "{out}": str(tmp_path / "g.json")}
    report = tmp_path / "run.json"
    code = cli.main([spots.get(a, a) for a in argv] + ["--report", str(report)])
    assert code in (0, 1)
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert set(doc) == RECORD_KEYS
    assert isinstance(doc["elapsed"], float) and doc["elapsed"] >= 0
    assert isinstance(doc["budget_used"], dict)
    assert set(doc["budget_used"]) == budget_keys


def test_gadget_report_times_the_build(capsys, tmp_path):
    # The build runs the exponential ground-truth solvers, so its time is
    # part of the record.
    source = tmp_path / "src.json"
    source.write_text(json.dumps(EDGELESS))
    report = tmp_path / "run.json"
    code = cli.main(
        ["gadget", "indep-set", "--source", str(source),
         "--out", str(tmp_path / "g.json"), "--report", str(report)]
    )
    assert code == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["elapsed"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cut", "-k", "0"],
        ["oracle", "--what", "cut"],
        ["mcut", "-k", "0"],
        ["oracle", "--what", "multiedge-cut"],
    ],
    ids=["cut", "oracle-cut", "mcut", "oracle-multiedge-cut"],
)
def test_empty_cut_prints_no_removal(capsys, tmp_path, argv):
    # c is unreachable from a, so the empty set already cuts.
    path = tmp_path / "late.edges"
    path.write_text(FILES["late.edges"])
    code = cli.main([argv[0], "-g", str(path), "-s", "a", "-z", "c", *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert "remove" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["cut", "-g", "demo", "-k", "2", "--report", "{bad}"],
        ["mengerian", "-g", "demo", "--witness-dot", "{bad}"],
        ["export-dot", "-g", "demo", "-o", "{bad}"],
        ["gadget", "indep-set", "--source", "{source}", "--out", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_malformed_input(capsys, tmp_path, argv):
    source = tmp_path / "src.json"
    source.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    bad = tmp_path / "no-such-dir" / "x.out"
    spots = {"{bad}": str(bad), "{source}": str(source)}
    code = cli.main([spots.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}: ")
