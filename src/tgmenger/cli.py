"""Command line front end.

Every decision subcommand exits 0 for *yes* and 1 for *no*; malformed
input exits 2 and a blown search budget exits 3.  Any other error is
printed as ``error: ...`` on stderr and exits 4, so a crash is never
mistaken for an answer.  A reader that closes standard output early (as
``| head`` does) gets exit 141, the status of a process killed by
SIGPIPE, and no error line.  ``--report FILE`` dumps a machine-readable
record of the run (instance, question, answer, witness, wall time, work
counters) next to the human-readable output.

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

from . import cuts, disjoint_paths, formats, gadgets, injective_flow, oracles
from .core import pair_key
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


def _write_report(path, doc: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommands -----------------------------------------------------------------


def _power(base: int, exp: int):
    """``base ** exp``, or the text ``"base^exp"`` when the power has more
    digits than Python converts to decimal (``sys.get_int_max_str_digits``)."""
    value = base**exp
    try:
        str(value)
    except ValueError:
        return f"{base}^{exp}"
    return value


def cmd_paths(args) -> int:
    g, s, z, name = _load_instance(args)
    # Malformed input prints no bound line.
    disjoint_paths.check_question(g, s, z, args.k, args.budget)
    m = len(g.edges)
    bound = _power(m + 2, args.k)
    print(
        f"searching tuples over {m} edges: at most ({m}+2)^{args.k} = {bound} "
        f"(budget {args.budget})"
    )
    started = time.perf_counter()
    res = disjoint_paths.max_snapshot_disjoint(g, s, z, args.k, budget=args.budget)
    elapsed = time.perf_counter() - started
    print(f"{args.k} snapshot-disjoint {s}-{z} paths: {_yesno(res.found)}")
    for walk in res.family:
        print(f"  {walk.pretty()}")
    print(
        f"visited {res.tuples_materialized} tuples, {res.arcs_explored} arcs, "
        f"{elapsed:.3f}s"
    )
    _write_report(
        args.report,
        {
            "instance": name,
            "question": f"are there {args.k} pairwise snapshot-disjoint "
            f"temporal paths from {s} to {z}?",
            "answer": res.found,
            "witness": [formats.walk_document(w) for w in res.family],
            "elapsed": elapsed,
            "budget_used": {
                "tuple_bound": bound,
                "tuples_materialized": res.tuples_materialized,
                "arcs_explored": res.arcs_explored,
                "budget": args.budget,
            },
        },
    )
    return 0 if res.found else 1


def _cut_command(args, kind: str) -> int:
    g, s, z, name = _load_instance(args)
    if kind == "snapshot":
        run = cuts.snapshot_cut_at_most
        noun = "snapshots"
    else:
        run = cuts.multiedge_cut_at_most
        noun = "multiedges"
    started = time.perf_counter()
    res = run(g, s, z, args.k, budget=args.budget)
    elapsed = time.perf_counter() - started
    print(
        f"{len(res.candidates)} candidate {noun}; checking at most "
        f"{res.subset_bound} subsets (budget {args.budget})"
    )
    print(f"{kind} cut of size <= {args.k}: {_yesno(res.found)}")
    witness = None
    if res.found:
        if kind == "snapshot":
            witness = sorted(res.labels)
            if witness:
                print(f"  remove snapshots {witness}")
        else:
            witness = [list(p) for p in sorted(res.multiedges, key=pair_key)]
            if witness:
                print(f"  remove multiedges {witness}")
    print(f"engine {res.engine}, {res.subsets_checked} distinct subsets searched, {elapsed:.3f}s")
    _write_report(
        args.report,
        {
            "instance": name,
            "question": f"is there a {kind} cut of size at most {args.k} "
            f"between {s} and {z}?",
            "answer": res.found,
            "witness": witness,
            "elapsed": elapsed,
            "budget_used": {
                "engine": res.engine,
                "candidates": len(res.candidates),
                "subsets_checked": res.subsets_checked,
                "subset_bound": res.subset_bound,
                "budget": args.budget,
            },
        },
    )
    return 0 if res.found else 1


def cmd_cut(args) -> int:
    return _cut_command(args, "snapshot")


def cmd_mcut(args) -> int:
    return _cut_command(args, "multiedge")


def cmd_flow(args) -> int:
    if args.k is not None and args.k < 1:
        raise MalformedInput("k must be at least 1")
    g, s, z, name = _load_instance(args)
    started = time.perf_counter()
    if args.edge_disjoint:
        res = injective_flow.max_edge_disjoint_paths(g, s, z)
        question = f"maximum edge-disjoint temporal {s}-{z} paths"
        extra: dict = {}
    else:
        res = injective_flow.injective_connectivity(g, s, z)
        question = f"snapshot-disjoint {s}-{z} packing on an injective instance"
        extra = {"min_cut_labels": sorted(res.cut_labels)}
    elapsed = time.perf_counter() - started
    print(f"{question}: {res.value}")
    for walk in res.family:
        print(f"  {walk.pretty()}")
    if extra:
        print(f"  minimum snapshot cut: {extra['min_cut_labels']}")
    answer: object = res.value
    code = 0
    if args.k is not None:
        code = 0 if res.value >= args.k else 1
        answer = res.value >= args.k
        question += f" >= {args.k}?"
    _write_report(
        args.report,
        {
            "instance": name,
            "question": question,
            "answer": answer,
            "witness": {
                "value": res.value,
                "family": [formats.walk_document(w) for w in res.family],
                **extra,
            },
            "elapsed": elapsed,
            "budget_used": {},
        },
    )
    return code


def cmd_mengerian(args) -> int:
    g, _, _, name = _load_instance(args, terminals=False)
    mg = g.underlying()
    started = time.perf_counter()
    verdict = recognize(mg)
    elapsed = time.perf_counter() - started
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
            with open(args.witness_dot, "w", encoding="utf-8") as fh:
                fh.write(formats.to_dot(full, name=f"bad labeling {bs}->{bz}"))
            print(
                f"  wrote a full bad timefunction (terminals {bs}, {bz}) "
                f"to {args.witness_dot}"
            )
            witness_doc["bad_labeling"] = formats.graph_to_document(full)
            witness_doc["terminals"] = [bs, bz]
    _write_report(
        args.report,
        {
            "instance": name,
            "question": "does packing equal covering under every timefunction "
            "on the underlying multigraph?",
            "answer": verdict.mengerian,
            "witness": witness_doc,
            "elapsed": elapsed,
            "budget_used": {},
        },
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
    started = time.perf_counter()
    result = _ORACLES[args.what](g, s, z)
    elapsed = time.perf_counter() - started
    print(f"{args.what} = {result.value}  (exhaustive)")
    if args.what in ("packing", "edge-disjoint", "multiedge-disjoint"):
        witness: object = [formats.walk_document(w) for w in result.witness]
        for walk in result.witness:
            print(f"  {walk.pretty()}")
    elif args.what == "cut":
        witness = sorted(result.witness)
        print(f"  remove snapshots {witness}")
    else:
        witness = [list(p) for p in sorted(result.witness, key=pair_key)]
        print(f"  remove multiedges {witness}")
    _write_report(
        args.report,
        {
            "instance": name,
            "question": f"brute-force {args.what} between {s} and {z}",
            "answer": result.value,
            "witness": witness,
            "elapsed": elapsed,
            "budget_used": {},
        },
    )
    return 0


def _load_source_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON in {path}: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise MalformedInput("source document needs 'vertices' and 'edges'")
    return doc


def cmd_gadget(args) -> int:
    doc = _load_source_document(args.source)
    vertices = doc["vertices"]
    edges = doc["edges"]
    if args.kind == "indep-set":
        instance = gadgets.indep_set_gadget(vertices, edges)
    elif args.kind == "vertex-cover":
        instance = gadgets.vc_gadget(vertices, edges)
    else:
        colors = doc.get("colors")
        if not isinstance(colors, dict):
            raise MalformedInput("clique sources need a 'colors' object")
        coloring = {formats._token(k): v for k, v in colors.items()}
        instance = gadgets.clique_gadget(vertices, edges, coloring)
    formats.save_graph(args.out, instance.graph)
    manifest_path = (
        args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    ) + ".manifest.json"
    manifest = {
        "s": instance.s,
        "z": instance.z,
        "question": instance.question,
        **instance.manifest,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"wrote {args.out} and {manifest_path}")
    print(f"terminals: {instance.s} -> {instance.z}")
    print(f"question: {instance.question}")
    _write_report(
        args.report,
        {
            "instance": args.source,
            "question": instance.question,
            "answer": None,
            "witness": {"out": args.out, "manifest": manifest_path},
            "elapsed": 0.0,
            "budget_used": {},
        },
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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

    p = sub.add_parser("cut", help="decide a snapshot cut of size <= k")
    _add_instance_args(p)
    p.add_argument("-k", type=int, required=True, help="cut size bound")
    _add_budget_args(p)
    p.set_defaults(run=cmd_cut)

    p = sub.add_parser("mcut", help="decide a multiedge cut of size <= k")
    _add_instance_args(p)
    p.add_argument("-k", type=int, required=True, help="cut size bound")
    _add_budget_args(p)
    p.set_defaults(run=cmd_mcut)

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
