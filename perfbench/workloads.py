"""Seeded inputs for the three benchmark workloads.

Each workload function takes a seed and returns the ordered list of :class:`Step`
that one pass makes, with what the correctness gate needs to judge every
answer.  Only public ``tgmenger`` names are used, always with
default arguments, so the workloads survive refactors of the package.

The reasons for each workload, and the layer metrics each one should move,
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import tgmenger
from tgmenger import oracles


@dataclass(frozen=True)
class Step:
    """One public solver call: ``kind`` names the call (see ``worker.py``),
    ``args`` are its positional arguments, ``meta`` is ground truth and
    grouping information that stays in the benchmark process."""

    kind: str
    args: tuple
    meta: dict = field(default_factory=dict)


def _relabel(rng: random.Random, vertices, edges):
    """An isomorphic copy of a simple source graph whose integer vertex
    names are permuted, so that every lexicographic tie-break the solvers
    make sees a different order while the instance's answers stay put."""
    verts = sorted(vertices)
    image = list(verts)
    rng.shuffle(image)
    f = dict(zip(verts, image))
    return sorted(f[v] for v in verts), sorted(tuple(sorted((f[u], f[v]))) for u, v in edges), f


# -- gadget-sweep ----------------------------------------------------------------

# Vertex-cover sources and the thresholds k asked of each (the gadget
# question is "multiedge cut <= n + k").  Picked from a profile of the full
# acceptance-criterion-8 sweep (283 calls, about 90 s) to keep the heavy
# tail of both engines in a pass of a few seconds: K5 at k = tau - 1 is a NO
# answer the hitting engine settles after about 0.7M search nodes; K3, P3
# and K2+K1 at k = 0 are NO answers the enumeration engine settles after
# 2k to 3.3k subsets, rebuilding the graph for each.  NO answers explore
# their whole search space, so their cost does not depend on the seeded
# vertex names; the YES answers kept here are cheap.
VC_SOURCES = (
    ("K1", 1, (), (0,)),
    ("K2", 2, ((0, 1),), (0, 1)),
    ("K2+K1", 3, ((0, 1),), (0,)),
    ("P3", 3, ((0, 1), (0, 2)), (0,)),
    ("K3", 3, ((0, 1), (0, 2), (1, 2)), (0,)),
    ("K4", 4, tuple(itertools.combinations(range(4), 2)), (2, 3)),
    ("K5", 5, tuple(itertools.combinations(range(5), 2)), (3,)),
)

# Multicolored-clique sources at k = 3 with one proper 3-colouring each.
# The first three have two edges in one colour pair: the enumeration engine
# checks about 3.5k subsets, rebuilding the graph for each.  The last two
# have at most one edge per colour pair and are cheap.  With the heavy
# vertex-cover calls above they make a group of about seven calls of
# similar cost, so the tail percentile of a pass falls inside a group
# instead of on the edge of a single call.
CLIQUE_SOURCES = (
    (4, ((0, 1), (0, 2), (0, 3), (1, 2)), (0, 1, 2, 1)),
    (4, ((0, 2), (0, 3), (1, 2), (1, 3)), (0, 0, 1, 2)),
    (5, ((0, 2), (0, 3), (1, 2), (1, 3)), (0, 0, 1, 2, 1)),
    (3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2)),
    (3, ((0, 1), (1, 2)), (0, 1, 2)),
)


def _two_k4():
    """Two vertex-disjoint K4s across classes a..d: a k = 4 YES instance
    with two candidate edges per colour pair."""
    vertices = [f"{cls}{i}" for cls in "abcd" for i in (1, 2)]
    edges = []
    for i in (1, 2):
        edges += list(itertools.combinations([f"{cls}{i}" for cls in "abcd"], 2))
    return vertices, edges, {v: v[0] for v in vertices}


def _crossed_k4():
    """Two edges per colour pair, crossed so no transversal is a clique:
    a k = 4 NO instance."""
    vertices = [f"{cls}{i}" for cls in "abcd" for i in (1, 2)]
    straight = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    crossed = [("a", "d"), ("b", "c")]
    edges = [(f"{x}{i}", f"{y}{i}") for x, y in straight for i in (1, 2)]
    edges += [(f"{x}1", f"{y}2") for x, y in crossed]
    edges += [(f"{x}2", f"{y}1") for x, y in crossed]
    return vertices, edges, {v: v[0] for v in vertices}


def gadget_sweep(seed: int) -> list:
    rng = random.Random(seed)
    steps = []
    # Independent set: every simple graph on 5 vertices, asked at alpha
    # (YES) and alpha + 1 (NO), as in acceptance criterion 8.
    for n in (5,):
        for mg in oracles.enumerate_simple_graphs(n):
            verts, edges, _ = _relabel(rng, mg.vertices, mg.links)
            inst = tgmenger.indep_set_gadget(verts, edges)
            alpha = inst.manifest["alpha"]
            for k in ([alpha] if alpha else []) + [alpha + 1]:
                steps.append(
                    Step("paths", (inst.graph, inst.s, inst.z, k), {"alpha": alpha})
                )
    for name, n, edges, ks in VC_SOURCES:
        verts, rel, _ = _relabel(rng, range(n), edges)
        inst = tgmenger.vc_gadget(verts, rel)
        tau = inst.manifest["tau"]
        for k in ks:
            steps.append(
                Step(
                    "mcut",
                    (inst.graph, inst.s, inst.z, n + k),
                    {"vc_tau": tau, "vc_k": k, "source": name},
                )
            )
    for n, edges, colours in CLIQUE_SOURCES:
        verts, rel, f = _relabel(rng, range(n), edges)
        coloring = {f[v]: f"c{c}" for v, c in enumerate(colours)}
        inst = tgmenger.clique_gadget(verts, rel, coloring)
        steps.append(
            Step(
                "cut",
                (inst.graph, inst.s, inst.z, inst.manifest["cut_threshold"]),
                {"has_clique": inst.manifest["has_clique"], "source": edges},
            )
        )
    for make in (_two_k4, _crossed_k4):
        vertices, edges, coloring = make()
        inst = tgmenger.clique_gadget(vertices, edges, coloring)
        steps.append(
            Step(
                "mincut",
                (inst.graph, inst.s, inst.z),
                {
                    "has_clique": inst.manifest["has_clique"],
                    "threshold": inst.manifest["cut_threshold"],
                },
            )
        )
    return steps


# -- flow-large ------------------------------------------------------------------

FLOW_EDGE_DISJOINT = dict(graphs=10, n=50, m=500, lifetime=125)
FLOW_INJECTIVE = dict(graphs=10, n=30, m=150, lifetime=150)


def _random_flow_graph(rng: random.Random, n: int, m: int, lifetime: int, injective: bool):
    """A snapshot-simple temporal graph with m edges on n vertices; with
    ``injective`` every label is used at most once."""
    labels = rng.sample(range(1, lifetime + 1), m) if injective else None
    taken = set()
    edges = []
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        t = labels[len(edges)] if injective else rng.randint(1, lifetime)
        slot = (min(u, v), max(u, v), t)
        if slot in taken:
            continue
        taken.add(slot)
        edges.append((len(edges), u, v, t))
    return tgmenger.TemporalGraph(edges, vertices=range(n))


def flow_large(seed: int) -> list:
    rng = random.Random(seed)
    steps = []
    for kind, spec, injective in (
        ("edp", FLOW_EDGE_DISJOINT, False),
        ("inj", FLOW_INJECTIVE, True),
    ):
        for _ in range(spec["graphs"]):
            g = _random_flow_graph(rng, spec["n"], spec["m"], spec["lifetime"], injective)
            s, z = rng.sample(range(spec["n"]), 2)
            steps.append(Step(kind, (g, s, z)))
    return steps


# -- random-corpus ---------------------------------------------------------------

# The criterion-2 generator draws the vertex count n in 2..6 and the edge
# count m in 1..8 uniformly.  Here every (n, m) cell gets the same number of
# graphs, which keeps that distribution but removes the seed-to-seed swing
# in how many large graphs a pass holds.  Each graph contributes at most
# CORPUS_PAIRS_PER_GRAPH ordered terminal pairs, drawn by the seed: with
# all n(n-1) pairs, a pass held few graphs and a handful of large ones
# supplied most of its calls, so the median call moved by a quarter from
# one seed to the next.  Many graphs with few pairs each keep the calls
# about as many and spread them over four times as many graphs.
CORPUS_VERTICES = range(2, 7)
CORPUS_EDGES = range(1, 9)
CORPUS_GRAPHS_PER_CELL = 8
CORPUS_PAIRS_PER_GRAPH = 4
CORPUS_MAX_LABEL = 5
# The Mengerian sweep of acceptance criterion 6 at a small size: every
# connected multigraph with at most 4 vertices and 6 edges (63 classes).
# The semantic sweep is exponential in the edge count, and on the corpus
# graphs themselves it takes over 40 s a pass.  On this pool, with each
# class once, it takes about 0.6 s, and its slowest calls form a fixed
# group of about thirty from 5 to 80 ms, so the tail percentile of a pass
# falls inside that group whatever the seed.
SWEEP_MAX_VERTICES = 4
SWEEP_MAX_EDGES = 6


def _corpus_graph(rng: random.Random, n: int, m: int):
    """The acceptance-criterion-2 generator at a given size: (pair, label)
    slots are drawn with rejection, so dense draws yield slightly fewer
    edges than requested."""
    verts = list(range(n))
    edges, slots = [], set()
    for _ in range(m):
        for _ in range(40):
            u, v = rng.sample(verts, 2)
            t = rng.randint(1, CORPUS_MAX_LABEL)
            slot = ((min(u, v), max(u, v)), t)
            if slot not in slots:
                slots.add(slot)
                edges.append((len(edges), u, v, t))
                break
    return tgmenger.TemporalGraph(edges, vertices=verts)


def random_corpus(seed: int) -> list:
    """Per terminal pair, the packing and cut solvers; per corpus graph,
    ``recognize`` with the lift and direct minor matching against the five
    catalog shapes on its underlying multigraph; then the small Mengerian
    sweep, which adds the semantic sweep.  The gate requires the Mengerian
    instruments to agree on every graph."""
    rng = random.Random(seed)
    shapes = [entry.shape for entry in tgmenger.catalog()]
    sizes = [
        (n, m)
        for n in CORPUS_VERTICES
        for m in CORPUS_EDGES
        for _ in range(CORPUS_GRAPHS_PER_CELL)
    ]
    rng.shuffle(sizes)
    steps = []
    for gi, (n, m) in enumerate(sizes):
        g = _corpus_graph(rng, n, m)
        injective = len(g.labels) == len(g.edges)
        pairs = list(itertools.permutations(sorted(g.vertices), 2))
        for s, z in rng.sample(pairs, min(len(pairs), CORPUS_PAIRS_PER_GRAPH)):
            meta = {"oracle": (gi, s, z)}
            for k in (1, 2, 3):
                steps.append(Step("paths", (g, s, z, k), meta))
            for h in (1, 2, 3):
                steps.append(Step("cut", (g, s, z, h), meta))
            for h in (1, 2, 3):
                steps.append(Step("mcut", (g, s, z, h), meta))
            steps.append(Step("edp", (g, s, z), meta))
            if injective:
                steps.append(Step("inj", (g, s, z), meta))
        group = {"sweep_graph": ("corpus", gi)}
        steps.append(Step("recognize", (g,), {"corpus_graph": gi, **group}))
        for shape in shapes:
            steps.append(Step("minor", (g.underlying(), shape), group))
    pool = oracles.enumerate_connected_multigraphs(SWEEP_MAX_VERTICES, SWEEP_MAX_EDGES)
    rng.shuffle(pool)
    for gi, mg in enumerate(pool):
        verts = sorted(mg.vertices)
        image = list(verts)
        rng.shuffle(image)
        f = dict(zip(verts, image))
        host = tgmenger.MGraph(
            {(f[u], f[v]): m for (u, v), m in mg.links.items()}, vertices=image
        )
        group = {"sweep_graph": ("pool", gi)}
        steps.append(Step("recognize", (host,), group))
        for shape in shapes:
            steps.append(Step("minor", (host, shape), group))
        steps.append(Step("semantic", (host,), group))
    return steps


WORKLOADS = {
    "gadget-sweep": gadget_sweep,
    "flow-large": flow_large,
    "random-corpus": random_corpus,
}
