"""Command line front end.

Every decision subcommand exits 0 for *yes* and 1 for *no*; malformed
input, which includes a file that cannot be read or written, exits 2 and
a blown search budget exits 3.  Any other error is printed as
``error: ...`` on stderr and exits 4, so a crash is never mistaken for an
answer.  A reader that closes standard output early (as ``| head`` does)
gets exit 141, the status of a process killed by SIGPIPE, and no error
line.

``--report FILE`` writes a JSON record of the run next to the
human-readable output, with the same six keys from every subcommand:
``instance``, ``question``, ``answer``, ``witness``, ``elapsed`` (seconds
spent in the solver, or in building the gadget) and ``budget_used`` (the
work counters of ``paths``, ``cut`` and ``mcut``; empty elsewhere).

The ``--graph`` argument takes either a path (JSON document or
whitespace edge list, sniffed) or the name of a bundled fixture such as
``demo`` or ``m1``; fixtures bring their own terminals, so ``-s``/``-z``
become optional for them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

from . import cuts, disjoint_paths, formats, gadgets, injective_flow, oracles
from .core import check_integer, pair_key
from .errors import DEFAULT_BUDGET, BudgetExceeded, LimitExceeded, MalformedInput
from .fixtures import fixture_names, get_fixture
from .mengerian import bad_labeling_for, extend_bad_labeling, recognize


def _load_instance(args, terminals: bool = True) -> tuple:
    """Resolve --graph plus optional -s/-z into (graph, s, z, name).

    A fixture brings its own terminals, which -s/-z override.  A graph file
    brings none: -s and -z are then required when *terminals* is true, and
    otherwise both come back ``None`` unless both were given.
    """
    name = args.graph
    given_s = getattr(args, "s", None)
    given_z = getattr(args, "z", None)
    if name.lower() in set(fixture_names()):
        fx = get_fixture(name)
        s = formats._token(given_s) if given_s else fx.s
        z = formats._token(given_z) if given_z else fx.z
        return fx.graph, s, z, fx.name
    g = formats.load_graph(name)
    if given_s is None or given_z is None:
        if terminals:
            raise MalformedInput("-s and -z are required for graphs loaded from files")
        return g, None, None, name
    return g, formats._token(given_s), formats._token(given_z), name


def _timed(solve, *args, **kwargs) -> tuple:
    """``(solve(*args, **kwargs), seconds it took)``."""
    started = time.perf_counter()
    return solve(*args, **kwargs), time.perf_counter() - started


def _write_json(path, doc: dict) -> None:
    formats.write_file(path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _write_report(
    path, instance, question, answer, witness, elapsed, budget_used=None
) -> None:
    """Write the run record to *path* (``--report``), if one was given."""
    if path is not None:
        _write_json(path, {
            "instance": instance, "question": question, "answer": answer,
            "witness": witness, "elapsed": elapsed, "budget_used": budget_used or {},
        })


def _show_walks(walks) -> list:
    """Print a walk family, one walk a line; return its report form."""
    for walk in walks:
        print(f"  {walk.pretty()}")
    return [formats.walk_document(w) for w in walks]


def _show_cut(kind: str, cut) -> list:
    """Print a ``"snapshot"`` or ``"multiedge"`` cut unless it is empty;
    return its report form, sorted."""
    if kind == "snapshot":
        witness = sorted(cut)
    else:
        witness = [list(p) for p in sorted(cut, key=pair_key)]
    if witness:
        print(f"  remove {kind}s {witness}")
    return witness


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommands -----------------------------------------------------------------


def _printable(value: int, text: str):
    """*value*, or *text* (the formula for it) when *value* has more digits
    than Python converts to decimal (``sys.get_int_max_str_digits``)."""
    try:
        str(value)
    except ValueError:
        return text
    return value


def cmd_paths(args) -> int:
    g, s, z, name = _load_instance(args)
    # Malformed input prints no bound line.
    disjoint_paths.check_question(g, s, z, args.k, args.budget)
    m = len(g.edges)
    bound = _printable((m + 2) ** args.k, f"{m + 2}^{args.k}")
    print(
        f"searching tuples over {m} edges: at most ({m}+2)^{args.k} = {bound} "
        f"(budget {args.budget})"
    )
    res, elapsed = _timed(
        disjoint_paths.max_snapshot_disjoint, g, s, z, args.k, budget=args.budget
    )
    print(f"{args.k} snapshot-disjoint {s}-{z} paths: {_yesno(res.found)}")
    witness = _show_walks(res.family)
    print(
        f"visited {res.tuples_materialized} tuples, {res.arcs_explored} arcs, "
        f"{elapsed:.3f}s"
    )
    _write_report(
        args.report, name,
        f"are there {args.k} pairwise snapshot-disjoint temporal paths from {s} to {z}?",
        res.found, witness, elapsed,
        {
            "tuple_bound": bound,
            "tuples_materialized": res.tuples_materialized,
            "arcs_explored": res.arcs_explored,
            "budget": args.budget,
        },
    )
    return 0 if res.found else 1


def _cut_command(args, kind: str) -> int:
    """``cut`` (*kind* ``"snapshot"``) and ``mcut`` (``"multiedge"``)."""
    g, s, z, name = _load_instance(args)
    # Looked up at call time, so a test can stand in for the solver.
    run = getattr(cuts, f"{kind}_cut_at_most")
    res, elapsed = _timed(run, g, s, z, args.k, budget=args.budget)
    n = len(res.candidates)
    bound = _printable(res.subset_bound, f"sum_{{i<={args.k}}} C({n}, i)")
    print(f"{n} candidate {kind}s; checking at most {bound} subsets (budget {args.budget})")
    print(f"{kind} cut of size <= {args.k}: {_yesno(res.found)}")
    witness = None
    if res.found:
        # The other kind's field is None.
        witness = _show_cut(kind, res.multiedges if res.labels is None else res.labels)
    print(f"engine {res.engine}, {res.subsets_checked} distinct subsets searched, {elapsed:.3f}s")
    _write_report(
        args.report, name,
        f"is there a {kind} cut of size at most {args.k} between {s} and {z}?",
        res.found, witness, elapsed,
        {
            "engine": res.engine,
            "candidates": n,
            "subsets_checked": res.subsets_checked,
            "subset_bound": bound,
            "budget": args.budget,
        },
    )
    return 0 if res.found else 1


def cmd_flow(args) -> int:
    if args.k is not None:
        check_integer("k", args.k, 1)
    g, s, z, name = _load_instance(args)
    if args.edge_disjoint:
        res, elapsed = _timed(injective_flow.max_edge_disjoint_paths, g, s, z)
        question = f"maximum edge-disjoint temporal {s}-{z} paths"
    else:
        res, elapsed = _timed(injective_flow.injective_connectivity, g, s, z)
        question = f"snapshot-disjoint {s}-{z} packing on an injective instance"
    print(f"{question}: {res.value}")
    witness = {"value": res.value, "family": _show_walks(res.family)}
    if not args.edge_disjoint:
        witness["min_cut_labels"] = sorted(res.cut_labels)
        print(f"  minimum snapshot cut: {witness['min_cut_labels']}")
    answer: object = res.value
    if args.k is not None:
        answer = res.value >= args.k
        question += f" >= {args.k}?"
    _write_report(args.report, name, question, answer, witness, elapsed)
    return 0 if args.k is None or answer else 1


def cmd_mengerian(args) -> int:
    g, _, _, name = _load_instance(args, terminals=False)
    mg = g.underlying()
    verdict, elapsed = _timed(recognize, mg)
    print(f"mengerian: {_yesno(verdict.mengerian)}")
    witness_doc = None
    if not verdict.mengerian:
        w = verdict.witness
        print(f"  forbidden shape {w.code} ({w.name})")
        for pv, hv in sorted(w.embedding.vertex_map.items()):
            print(f"    {pv} -> {hv}")
        witness_doc = {
            "code": w.code,
            "name": w.name,
            "vertex_map": {str(k): v for k, v in w.embedding.vertex_map.items()},
            "link_paths": {
                f"{u},{v}": list(p) for (u, v), p in sorted(w.embedding.link_paths.items())
            },
        }
        if args.witness_dot:
            base, bs, bz = bad_labeling_for(mg, w)
            full = extend_bad_labeling(mg, base, bs, bz)
            dot = formats.to_dot(full, name=f"bad labeling {bs}->{bz}")
            formats.write_file(args.witness_dot, dot)
            print(
                f"  wrote a full bad timefunction (terminals {bs}, {bz}) "
                f"to {args.witness_dot}"
            )
            witness_doc["bad_labeling"] = formats.graph_to_document(full)
            witness_doc["terminals"] = [bs, bz]
    _write_report(
        args.report, name,
        "does packing equal covering under every timefunction on the underlying multigraph?",
        verdict.mengerian, witness_doc, elapsed,
    )
    return 0 if verdict.mengerian else 1


_ORACLES = {
    "packing": oracles.brute_force_p,
    "cut": oracles.brute_force_c,
    "edge-disjoint": oracles.brute_force_edge_disjoint,
    "multiedge-disjoint": oracles.brute_force_multiedge_disjoint,
    "multiedge-cut": oracles.brute_force_multiedge_cut,
}


def cmd_oracle(args) -> int:
    g, s, z, name = _load_instance(args)
    result, elapsed = _timed(_ORACLES[args.what], g, s, z)
    print(f"{args.what} = {result.value}  (exhaustive)")
    if args.what == "cut":
        witness = _show_cut("snapshot", result.witness)
    elif args.what == "multiedge-cut":
        witness = _show_cut("multiedge", result.witness)
    else:
        witness = _show_walks(result.witness)
    _write_report(
        args.report, name, f"brute-force {args.what} between {s} and {z}",
        result.value, witness, elapsed,
    )
    return 0


def _load_source_document(path) -> dict:
    doc = formats.loads_json(formats.read_file(path))
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise MalformedInput("source document needs 'vertices' and 'edges'")
    return doc


def cmd_gadget(args) -> int:
    doc = _load_source_document(args.source)
    if args.kind == "clique":
        colors = doc.get("colors")
        if not isinstance(colors, dict):
            raise MalformedInput("clique sources need a 'colors' object")
        coloring = {formats._token(k): v for k, v in colors.items()}
        build = partial(gadgets.clique_gadget, coloring=coloring)
    elif args.kind == "indep-set":
        build = gadgets.indep_set_gadget
    else:
        build = gadgets.vc_gadget
    # The build runs the exponential ground-truth solvers for the manifest.
    instance, elapsed = _timed(build, doc["vertices"], doc["edges"])
    formats.save_graph(args.out, instance.graph)
    manifest_path = args.out.removesuffix(".json") + ".manifest.json"
    _write_json(manifest_path, {
        "s": instance.s, "z": instance.z, "question": instance.question,
        **instance.manifest,
    })
    print(f"wrote {args.out} and {manifest_path}")
    print(f"terminals: {instance.s} -> {instance.z}")
    print(f"question: {instance.question}")
    _write_report(
        args.report, args.source, instance.question, None,
        {"out": args.out, "manifest": manifest_path}, elapsed,
    )
    return 0


def cmd_export_dot(args) -> int:
    g, s, z, name = _load_instance(args, terminals=False)
    if args.product:
        if s is None:
            raise MalformedInput("--product needs -s and -z")
        product = disjoint_paths.ProductDigraph(g, s, z, args.k, budget=args.budget)
        text = product.to_dot()
    else:
        hot = []
        if args.highlight_labels:
            for chunk in args.highlight_labels.split(","):
                try:
                    hot.append(int(chunk))
                except ValueError:
                    raise MalformedInput(
                        f"bad label {chunk!r} in --highlight-labels"
                    ) from None
        text = formats.to_dot(g, name=name, highlight_labels=hot)
    if args.out:
        formats.write_file(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- wiring ------------------------------------------------------------------------


def _add_instance_args(p, terminals=True):
    p.add_argument("-g", "--graph", required=True,
                   help="graph file (JSON or edge list) or fixture name")
    if terminals:
        p.add_argument("-s", help="source terminal")
        p.add_argument("-z", help="target terminal")
    p.add_argument("--report", help="write a JSON run record here")


def _add_budget_args(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="stop with exit 3 once the search has spent more than this "
                   "many units (product tuples, or cut search nodes and checks); "
                   "must be at least 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgmenger",
        description="temporal graph connectivity: snapshot-disjoint paths, "
        "snapshot and multiedge cuts, Mengerian recognition, and "
        "hardness-reduction gadgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="decide k snapshot-disjoint paths")
    _add_instance_args(p)
    p.add_argument("-k", type=int, required=True, help="family size")
    _add_budget_args(p)
    p.set_defaults(run=cmd_paths)

    for command, kind in (("cut", "snapshot"), ("mcut", "multiedge")):
        p = sub.add_parser(command, help=f"decide a {kind} cut of size <= k")
        _add_instance_args(p)
        p.add_argument("-k", type=int, required=True, help="cut size bound")
        _add_budget_args(p)
        p.set_defaults(run=partial(_cut_command, kind=kind))

    p = sub.add_parser(
        "flow",
        help="exact packing on injective instances (or --edge-disjoint "
        "anywhere) via a polynomial flow network",
    )
    _add_instance_args(p)
    p.add_argument("-k", type=int, help="optionally decide value >= k")
    p.add_argument("--edge-disjoint", action="store_true",
                   help="maximize edge-disjoint paths instead (any instance)")
    p.set_defaults(run=cmd_flow)

    p = sub.add_parser("mengerian", help="recognize gap-free multigraphs")
    _add_instance_args(p, terminals=False)
    p.add_argument("--witness-dot",
                   help="on rejection, write DOT of a full bad timefunction")
    p.set_defaults(run=cmd_mengerian)

    p = sub.add_parser("oracle", help="exhaustive reference answers")
    _add_instance_args(p)
    p.add_argument("--what", choices=sorted(_ORACLES), default="packing")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("gadget", help="generate a hardness-reduction instance")
    p.add_argument("kind", choices=["indep-set", "clique", "vertex-cover"])
    p.add_argument("--source", required=True,
                   help="JSON with 'vertices', 'edges' (+ 'colors' for clique)")
    p.add_argument("--out", required=True, help="temporal graph output path")
    p.add_argument("--report", help="write a JSON run record here")
    p.set_defaults(run=cmd_gadget)

    p = sub.add_parser("export-dot", help="Graphviz views of instances")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-s", help="source terminal (for --product)")
    p.add_argument("-z", help="target terminal (for --product)")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.add_argument("--product", action="store_true",
                   help="draw the k-tuple search digraph instead of the graph")
    p.add_argument("-k", type=int, default=2, help="tuple width for --product")
    _add_budget_args(p)
    p.add_argument("--highlight-labels",
                   help="comma-separated labels to draw in red")
    p.set_defaults(run=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        # Meet a closed pipe here, not in the interpreter's shutdown flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output, as `| head` does.  Quieten the
        # shutdown flush and exit as a process killed by SIGPIPE would.
        sys.stdout = open(os.devnull, "w")
        return 141
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
