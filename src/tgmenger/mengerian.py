"""Recognition of Mengerian multigraphs via a forbidden-shape catalog.

A multigraph is *Mengerian* when, under every timefunction and for every
terminal pair, the maximum number of snapshot-disjoint temporal paths
equals the minimum snapshot cut.  This holds exactly when none of five
small shapes (stored under ``data/catalog/``) embeds into the graph as a
multiplicity-respecting topological minor, and that in turn reduces to a
short checklist over the block decomposition of the underlying graph:

1. a doubled bridge hanging off a 2-connected piece       -> M2
2. two 2-connected pieces sharing a vertex                 -> M3
3. a 2-connected piece on >= 4 vertices that is not a cycle -> M5
4. a cycle on >= 4 vertices with a doubled link             -> M4
5. a 4-vertex path of doubled links                         -> M1

``recognize`` runs the checklist on the multigraph itself, one connected
component at a time.  The blocks come from one lowpoint search (Hopcroft
and Tarjan, CACM 1973); every cycle and path of a witness comes from one
breadth-first search in token order, so witnesses never depend on the
string-hash seed.  A cycle through a vertex closes the path between its
first two block neighbours; the diamond of step 3 is a cycle plus one ear,
the path grown from the first link that leaves the cycle (a chord is an
ear with no interior).

On rejection ``recognize`` returns an explicit embedding of the matching
shape; ``bad_labeling_for`` then lifts the shape's stored bad
timefunction through the embedding, producing a concrete instance where
packing < covering, and ``extend_bad_labeling`` stretches it to a full
supergraph labeling without closing the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from .core import (
    MGraph,
    MinorEmbedding,
    TemporalGraph,
    check_embedding,
    has_m_topological_minor,
    link_key,
    pair_key,
    token_key,
)
from .errors import CatalogViolation, MalformedInput
from .oracles import (
    brute_force_c,
    brute_force_p,
    find_semantic_violation,
    semantic_is_mengerian,
)


@dataclass(frozen=True)
class CatalogEntry:
    """One minimal non-Mengerian shape with its stored bad timefunction."""

    code: str
    name: str
    shape: MGraph
    labeling: TemporalGraph
    s: object
    z: object


@dataclass(frozen=True)
class MinorWitness:
    """Which catalog shape embeds, and how."""

    code: str
    name: str
    embedding: MinorEmbedding


@dataclass(frozen=True)
class MengerVerdict:
    mengerian: bool
    witness: Optional[MinorWitness]


@dataclass(frozen=True)
class CatalogReport:
    """Checks performed by :func:`verify_catalog`, one line each."""

    checks: tuple


@lru_cache(maxsize=1)
def catalog() -> tuple:
    """The five stored shapes, ordered by code."""
    entries = []
    root = resources.files("tgmenger").joinpath("data/catalog")
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        doc = json.loads(item.read_text(encoding="utf-8"))
        shape = MGraph(
            [(u, v, m) for u, v, m in doc["links"]], vertices=doc["vertices"]
        )
        edges = []
        for pair_text, labels in sorted(doc["labels"].items()):
            u, v = pair_text.split(",")
            for t in labels:
                edges.append((f"{u}-{v}@{t}", u, v, t))
        labeling = TemporalGraph(edges, vertices=doc["vertices"])
        entries.append(
            CatalogEntry(doc["code"], doc["name"], shape, labeling, doc["s"], doc["z"])
        )
    entries.sort(key=lambda e: e.code)
    return tuple(entries)


def catalog_entry(code: str) -> CatalogEntry:
    for entry in catalog():
        if code.upper() == entry.code or code.lower() == entry.name:
            return entry
    raise MalformedInput(
        f"unknown catalog entry {code!r}; have "
        + ", ".join(f"{e.code} ({e.name})" for e in catalog())
    )


# -- embeddings ------------------------------------------------------------------


def _witness(host: MGraph, code: str, vertex_map: dict, long_paths: dict) -> MinorWitness:
    """The embedding of shape *code* whose pattern links run along the
    given *long_paths*, each from the image of its key's first vertex to
    the second, or else along the host link between their two images;
    every path is stored oriented by :func:`link_key`."""
    entry = catalog_entry(code)
    link_paths = {}
    for pu, pv in entry.shape.links:
        if (pv, pu) in long_paths:
            path = long_paths[pv, pu][::-1]
        else:
            path = long_paths.get((pu, pv), (vertex_map[pu], vertex_map[pv]))
        link_paths[pu, pv] = tuple(path)
    emb = MinorEmbedding(dict(vertex_map), link_paths)
    check_embedding(host, entry.shape, emb)
    return MinorWitness(entry.code, entry.name, emb)


# -- the checklist ----------------------------------------------------------------


def _blocks(mg: MGraph) -> list:
    """The blocks of a connected multigraph (its maximal 2-connected pieces
    and its bridges) as vertex sets: one lowpoint search (Hopcroft and
    Tarjan, "Efficient algorithms for graph manipulation", CACM 1973) on an
    explicit stack, so long paths cannot exhaust the recursion limit."""
    root = min(mg.vertices, key=token_key)
    order = {root: 0}
    low = {root: 0}
    pending = [root]  # visited vertices not yet closed into a block
    # frame: (vertex, tree parent, neighbours left, its position in pending)
    stack = [(root, None, iter(mg.neighbors(root)), 0)]
    blocks = []
    while stack:
        v, parent, nbrs, pos = stack[-1]
        for w in nbrs:
            if w not in order:
                order[w] = low[w] = len(order)
                stack.append((w, v, iter(mg.neighbors(w)), len(pending)))
                pending.append(w)
                break
            if w != parent:
                low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                low[parent] = min(low[parent], low[v])
                if low[v] >= order[parent]:
                    blocks.append({parent, *pending[pos:]})
                    del pending[pos:]
    return blocks


def _path(mg: MGraph, start, stop, inside) -> list:
    """A shortest path from *start* to the nearest vertex of the sequence
    *stop*, all of its vertices in *inside*.  The breadth-first search
    grows from both ends, one level of the smaller frontier at a time (the
    start's on a tie), and ends where the two sides meet."""
    parents = ({start: None}, dict.fromkeys(stop))
    fringes = [[start], list(stop)]
    while fringes[0] and fringes[1]:
        side = int(len(fringes[0]) > len(fringes[1]))
        mine, theirs = parents[side], parents[1 - side]
        level, fringes[side] = fringes[side], []
        for v in level:
            for w in mg.neighbors(v):
                if w not in inside:
                    continue
                if w not in mine:
                    mine[w] = v
                    fringes[side].append(w)
                if w in theirs:
                    halves = ([w], [w])
                    for half, chain in zip(halves, parents):
                        while chain[half[-1]] is not None:
                            half.append(chain[half[-1]])
                    return halves[0][::-1] + halves[1][1:]
    raise AssertionError("no path inside the block")


def _cycle_through(mg: MGraph, block: tuple, x) -> list:
    """A cycle through *x* inside a 2-connected block, as x, n1, ..., n2:
    x's first two block neighbours joined by a path that avoids x."""
    inside = set(block) - {x}
    n1, n2 = [w for w in mg.neighbors(x) if w in inside][:2]
    return [x] + _path(mg, n1, (n2,), inside)


def _theta(mg: MGraph, block: tuple) -> tuple:
    """Two branch vertices joined by three internally disjoint paths, in a
    2-connected block that is not a cycle: a cycle through the block's
    least vertex, plus one ear grown from the first link that leaves the
    cycle (a chord is an ear with no interior).  All three paths are
    oriented from the first branch vertex to the second."""
    inside = set(block)
    cycle = _cycle_through(mg, block, block[0])
    on_cycle = set(cycle)
    n = len(cycle)
    for i, a in enumerate(cycle):
        for w in mg.neighbors(a):
            if w not in inside or w in (cycle[i - 1], cycle[(i + 1) % n]):
                continue
            if w in on_cycle:
                ear = [a, w]
            else:
                rest = [v for v in cycle if v != a]
                ear = [a] + _path(mg, w, rest, inside - {a})
            b = ear[-1]
            rot = cycle[i:] + cycle[:i]
            j = rot.index(b)
            return a, b, ear, rot[: j + 1], [a] + rot[j:][::-1]
    raise AssertionError("a block that is not a cycle has a link off any cycle")


def _recognize_component(mg: MGraph) -> Optional[MinorWitness]:
    blocks = sorted(
        (tuple(sorted(b, key=token_key)) for b in _blocks(mg)),
        key=lambda b: tuple(token_key(v) for v in b),
    )
    big = [b for b in blocks if len(b) >= 3]
    first: dict = {}  # vertex -> index of the first big block holding it
    for i, b in enumerate(big):
        for x in b:
            first.setdefault(x, i)

    # 1: doubled bridge meeting a 2-connected piece -> pendant-triangle.
    for b in blocks:
        if len(b) == 2 and mg.multiplicity(*b) >= 2:
            ends = [(first[x], x, y) for x, y in (b, b[::-1]) if x in first]
            if ends:
                i, x, y = min(ends, key=lambda end: end[0])
                cyc = _cycle_through(mg, big[i], x)
                n1, n2 = cyc[1], cyc[-1]
                return _witness(
                    mg,
                    "M2",
                    {"s": y, "c": x, "b": n1, "a": n2},
                    {("b", "a"): cyc[1:]},
                )

    # 2: two 2-connected pieces sharing a vertex -> bowtie.
    for i, b in enumerate(big):
        for x in b:
            if first[x] != i:
                c1 = _cycle_through(mg, big[first[x]], x)
                c2 = _cycle_through(mg, b, x)
                return _witness(
                    mg,
                    "M3",
                    {"c": x, "s": c1[1], "a": c1[-1], "b": c2[1], "z": c2[-1]},
                    {("s", "a"): c1[1:], ("b", "z"): c2[1:]},
                )

    # 3: a 2-connected piece on >= 4 vertices that is not a cycle -> diamond.
    for b in big:
        inside = set(b)
        if len(b) < 4 or all(
            sum(w in inside for w in mg.neighbors(v)) == 2 for v in b
        ):
            continue
        branch_a, branch_b, p1, p2, p3 = _theta(mg, b)
        short, mid, long_ = sorted((p1, p2, p3), key=len)
        return _witness(
            mg,
            "M5",
            {"a": branch_a, "b": branch_b, "s": mid[1], "z": long_[1]},
            {("a", "b"): short, ("s", "b"): mid[1:], ("z", "b"): long_[1:]},
        )

    # 4: a cycle on >= 4 vertices with a doubled link -> doubled-cycle.
    for b in big:
        inside = set(b)
        doubled = [
            link_key(v, w)
            for v in b
            for w in mg.neighbors(v)
            if w in inside and mg.multiplicity(v, w) >= 2
        ]
        if len(b) < 4 or not doubled:
            continue
        x, y = min(doubled, key=pair_key)
        # The cycle from x the long way round to y.
        n = next(w for w in mg.neighbors(x) if w in inside and w != y)
        arc = [x] + _path(mg, n, (y,), inside - {x})
        return _witness(
            mg,
            "M4",
            {"a": x, "z": y, "s": arc[1], "b": arc[2]},
            {("b", "z"): arc[2:]},
        )

    # 5: a 4-vertex path of doubled links -> doubled-path.
    heavy: dict = {}
    for (a, b), mult in mg.sorted_links():
        if mult >= 2:
            heavy.setdefault(a, []).append(b)
            heavy.setdefault(b, []).append(a)
    for v1 in sorted(heavy, key=token_key):
        for v2 in sorted(heavy[v1], key=token_key):
            for v0 in sorted(heavy[v1], key=token_key):
                if v0 == v2:
                    continue
                for v3 in sorted(heavy[v2], key=token_key):
                    if v3 in (v0, v1):
                        continue
                    return _witness(mg, "M1", {"s": v0, "a": v1, "b": v2, "z": v3}, {})
    return None


def recognize(g) -> MengerVerdict:
    """Decide Mengerian-ness of a multigraph (or of a temporal graph's
    underlying multigraph) and exhibit a forbidden shape on rejection."""
    mg = g.underlying() if isinstance(g, TemporalGraph) else g
    for comp in mg.components():
        witness = _recognize_component(comp)
        if witness is not None:
            return MengerVerdict(False, witness)
    return MengerVerdict(True, None)


def is_mengerian(g) -> bool:
    return recognize(g).mengerian


# -- lifting bad labelings ----------------------------------------------------------


def bad_labeling_for(host: MGraph, witness: MinorWitness) -> tuple:
    """Push the witness shape's stored bad timefunction through the
    embedding: every host link along a pattern link's path receives that
    pattern link's full label set.  Returns ``(labeling, s, z)`` on the
    embedded subgraph, where packing < covering by construction."""
    entry = catalog_entry(witness.code)
    emb = witness.embedding
    edges = []
    for (pu, pv), _ in entry.shape.sorted_links():
        labels = [e.t for e in entry.labeling.multiedge(pu, pv)]
        path = emb.link_paths[link_key(pu, pv)]
        for a, b in zip(path, path[1:]):
            for t in labels:
                edges.append((len(edges), a, b, t))
    s = emb.vertex_map[entry.s]
    z = emb.vertex_map[entry.z]
    return TemporalGraph(edges), s, z


def extend_bad_labeling(host: MGraph, base: TemporalGraph, s, z) -> TemporalGraph:
    """Label every remaining host edge without closing the gap.

    Extra parallel copies of the terminals' direct link become early
    isolated paths (they add exactly their count to both optima); other
    extra edges at *z* get labels too early to be usable; everything else
    gets labels above every useful one.  The packing/covering gap of
    ``base`` therefore survives in the full labeling.
    """
    base_links = base.underlying().links
    d_pairs = []
    dead_pairs = []
    high_pairs = []
    for pair, mult in host.sorted_links():
        extra = mult - base_links.get(pair, 0)
        if extra <= 0:
            continue
        if pair == link_key(s, z):
            d_pairs.append((pair, extra))
        elif z in pair:
            dead_pairs.append((pair, extra))
        else:
            high_pairs.append((pair, extra))
    d = sum(extra for _, extra in d_pairs)
    r = sum(extra for _, extra in dead_pairs)
    shift = d + r
    edges = []
    next_label = 1
    for pair, extra in d_pairs + dead_pairs:
        for _ in range(extra):
            edges.append((len(edges), pair[0], pair[1], next_label))
            next_label += 1
    top = 0
    for e in base.edges:
        edges.append((len(edges), e.u, e.v, e.t + shift))
        top = max(top, e.t + shift)
    next_high = top + 1
    for pair, extra in high_pairs:
        for _ in range(extra):
            edges.append((len(edges), pair[0], pair[1], next_high))
            next_high += 1
    return TemporalGraph(edges, vertices=host.vertices)


# -- certification -------------------------------------------------------------------


def verify_catalog(entries: Optional[tuple] = None, deep: bool = False) -> CatalogReport:
    """Machine-check every catalog entry; raise :class:`CatalogViolation`
    on the first failure.

    Always checked: the labeling realizes the shape; packing 1 < covering
    2 by brute force; the recognizer rejects the shape blaming exactly
    this entry; no other entry embeds into it (pairwise minimality).  With
    ``deep=True``, additionally: every single-step reduction (dropping a
    link or one parallel copy) is semantically Mengerian by exhaustive
    label sweep.
    """
    entries = catalog() if entries is None else tuple(entries)
    checks = []
    for entry in entries:
        code = entry.code
        if not entry.shape.is_connected():
            raise CatalogViolation(code, "shape must be connected")
        if entry.labeling.underlying() != entry.shape:
            raise CatalogViolation(code, "labeling does not realize the shape")
        checks.append(f"{code}: labeling realizes the shape")
        p = brute_force_p(entry.labeling, entry.s, entry.z)
        c = brute_force_c(entry.labeling, entry.s, entry.z)
        if not (p.value == 1 and c.value == 2):
            raise CatalogViolation(
                code, f"stored labeling has packing {p.value}, covering {c.value}; "
                "expected 1 < 2"
            )
        checks.append(f"{code}: stored labeling opens the gap (1 < 2)")
        verdict = recognize(entry.shape)
        if verdict.mengerian or verdict.witness.code != code:
            raise CatalogViolation(
                code,
                "recognizer does not reject the shape with its own code "
                f"(got {None if verdict.mengerian else verdict.witness.code})",
            )
        checks.append(f"{code}: recognizer rejects it, blaming {code}")
        for other in entries:
            if other.code != code and has_m_topological_minor(entry.shape, other.shape):
                raise CatalogViolation(
                    code, f"contains {other.code} as a topological minor; not minimal"
                )
        checks.append(f"{code}: no other catalog shape embeds into it")
        if deep:
            for (a, b), mult in entry.shape.sorted_links():
                reduced = (
                    entry.shape.drop_link(a, b)
                    if mult == 1
                    else entry.shape.set_multiplicity(a, b, mult - 1)
                )
                if not semantic_is_mengerian(reduced):
                    raise CatalogViolation(
                        code,
                        f"reduction at link {a}-{b} is still non-Mengerian; "
                        "the shape would not be minimal",
                    )
            checks.append(f"{code}: every one-step reduction is Mengerian (sweep)")
            if find_semantic_violation(entry.shape) is None:
                raise CatalogViolation(
                    code, "exhaustive label sweep found no violating timefunction"
                )
            checks.append(f"{code}: exhaustive sweep reconfirms a violating labeling")
    return CatalogReport(tuple(checks))
