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

``recognize`` runs the checklist and, on rejection, returns an explicit
embedding of the matching shape; ``bad_labeling_for`` then lifts the
shape's stored bad timefunction through the embedding, producing a
concrete instance where packing < covering, and ``extend_bad_labeling``
stretches it to a full supergraph labeling without closing the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

import networkx as nx

from .core import (
    MGraph,
    MinorEmbedding,
    TemporalGraph,
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


def _validate_embedding(host: MGraph, pattern: MGraph, emb: MinorEmbedding) -> None:
    images = list(emb.vertex_map.values())
    assert len(set(images)) == len(images), "branch images must be distinct"
    internals_seen: set = set()
    for (pu, pv), mult in pattern.links.items():
        path = emb.link_paths[link_key(pu, pv)]
        ends = {path[0], path[-1]}
        assert ends == {emb.vertex_map[pu], emb.vertex_map[pv]}, "path endpoints"
        for a, b in zip(path, path[1:]):
            assert host.multiplicity(a, b) >= mult, "multiplicity along path"
        inner = set(path[1:-1])
        assert not inner & set(images), "path internals avoid branch vertices"
        assert not inner & internals_seen, "paths are internally disjoint"
        internals_seen |= inner


def _witness(host: MGraph, code: str, vertex_map: dict, raw_paths: dict) -> MinorWitness:
    entry = catalog_entry(code)
    link_paths = {}
    for (pu, pv), path in raw_paths.items():
        key = link_key(pu, pv)
        link_paths[key] = tuple(path) if key == (pu, pv) else tuple(reversed(path))
    emb = MinorEmbedding(dict(vertex_map), link_paths)
    _validate_embedding(host, entry.shape, emb)
    return MinorWitness(entry.code, entry.name, emb)


# -- the checklist ----------------------------------------------------------------


def _underlying_nx(mg: MGraph) -> nx.Graph:
    u = nx.Graph()
    u.add_nodes_from(sorted(mg.vertices, key=token_key))
    for (a, b), _ in mg.sorted_links():
        u.add_edge(a, b)
    return u


def _cycle_through(u_block: nx.Graph, x) -> list:
    """A cycle through *x* inside a 2-connected block, as x, n1, ..., n2."""
    nbrs = sorted(u_block[x], key=token_key)
    rest = u_block.subgraph(n for n in u_block if n != x)
    for i, n1 in enumerate(nbrs):
        for n2 in nbrs[i + 1 :]:
            if n1 in rest and n2 in rest and nx.has_path(rest, n1, n2):
                return [x] + nx.shortest_path(rest, n1, n2)
    raise AssertionError("2-connected block must close a cycle through x")


def _recognize_component(mg: MGraph) -> Optional[MinorWitness]:
    u = _underlying_nx(mg)
    blocks = sorted(
        (tuple(sorted(b, key=token_key)) for b in nx.biconnected_components(u)),
        key=lambda b: tuple(token_key(v) for v in b),
    )
    big = [b for b in blocks if len(b) >= 3]

    # 1: doubled bridge meeting a 2-connected piece -> pendant-triangle.
    for b in blocks:
        if len(b) == 2 and mg.multiplicity(*b) >= 2:
            for big_b in big:
                for x, y in ((b[0], b[1]), (b[1], b[0])):
                    if x in big_b:
                        cyc = _cycle_through(u.subgraph(big_b), x)
                        n1, n2 = cyc[1], cyc[-1]
                        return _witness(
                            mg,
                            "M2",
                            {"s": y, "c": x, "b": n1, "a": n2},
                            {
                                ("s", "c"): (y, x),
                                ("c", "b"): (x, n1),
                                ("b", "a"): tuple(cyc[1:]),
                                ("c", "a"): (x, n2),
                            },
                        )

    # 2: two 2-connected pieces sharing a vertex -> bowtie.
    owner: dict = {}
    for bi, b in enumerate(big):
        for x in b:
            if x in owner:
                c1 = _cycle_through(u.subgraph(big[owner[x]]), x)
                c2 = _cycle_through(u.subgraph(b), x)
                return _witness(
                    mg,
                    "M3",
                    {"c": x, "s": c1[1], "a": c1[-1], "b": c2[1], "z": c2[-1]},
                    {
                        ("s", "c"): (c1[1], x),
                        ("s", "a"): tuple(c1[1:]),
                        ("a", "c"): (c1[-1], x),
                        ("c", "b"): (x, c2[1]),
                        ("b", "z"): tuple(c2[1:]),
                        ("c", "z"): (x, c2[-1]),
                    },
                )
            owner[x] = bi

    # 3: a 2-connected piece on >= 4 vertices that is not a cycle -> diamond.
    for b in big:
        if len(b) < 4:
            continue
        ub = u.subgraph(b)
        if all(ub.degree(v) == 2 for v in b):
            continue
        branch_a, branch_b, p1, p2, p3 = _theta_in_block(ub)
        short, mid, long_ = sorted((p1, p2, p3), key=len)
        return _witness(
            mg,
            "M5",
            {"a": branch_a, "b": branch_b, "s": mid[1], "z": long_[1]},
            {
                ("a", "b"): tuple(short),
                ("s", "a"): (mid[1], branch_a),
                ("s", "b"): tuple(mid[1:]),
                ("a", "z"): (branch_a, long_[1]),
                ("z", "b"): tuple(long_[1:]),
            },
        )

    # 4: a cycle on >= 4 vertices with a doubled link -> doubled-cycle.
    for b in big:
        if len(b) < 4:
            continue
        doubled = sorted(
            (
                pair
                for pair in (link_key(a, c) for a, c in u.subgraph(b).edges)
                if mg.multiplicity(*pair) >= 2
            ),
            key=pair_key,
        )
        if not doubled:
            continue
        x, y = doubled[0]
        arc = [x]
        prev = y
        while arc[-1] != y:
            nbrs = [n for n in u.subgraph(b)[arc[-1]] if n != prev]
            prev = arc[-1]
            arc.append(nbrs[0])
        return _witness(
            mg,
            "M4",
            {"a": x, "z": y, "s": arc[1], "b": arc[2]},
            {
                ("a", "z"): (x, y),
                ("s", "a"): (arc[1], x),
                ("s", "b"): (arc[1], arc[2]),
                ("z", "b"): tuple(reversed(arc[2:])),
            },
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
                    return _witness(
                        mg,
                        "M1",
                        {"s": v0, "a": v1, "b": v2, "z": v3},
                        {
                            ("s", "a"): (v0, v1),
                            ("a", "b"): (v1, v2),
                            ("b", "z"): (v2, v3),
                        },
                    )
    return None


def _theta_in_block(ub: nx.Graph) -> tuple:
    """Two branch vertices joined by three internally disjoint paths, in a
    2-connected non-cycle block.  All three are returned oriented from the
    first branch vertex to the second."""
    cycle = [a for a, _ in nx.find_cycle(ub)]
    in_cycle = set(cycle)
    outside = sorted((v for v in ub if v not in in_cycle), key=token_key)
    if outside:
        # Attach an ear: two vertex-disjoint routes from an outside vertex
        # down to the cycle, each clipped at its first cycle hit.
        w = outside[0]
        target = ("theta-target",)
        aux = nx.Graph(ub)
        while target in aux:
            target = target + ("x",)
        for v in in_cycle:
            aux.add_edge(v, target)
        routes = nx.node_disjoint_paths(aux, w, target)
        ear_a = _clip(next(routes), in_cycle)
        ear_b = _clip(next(routes), in_cycle)
        a, b = ear_a[-1], ear_b[-1]
        ear = list(reversed(ear_a)) + ear_b[1:]
    else:
        # The block is spanned by the cycle, so a non-cycle edge is a chord.
        chords = sorted(
            (link_key(a, b) for a, b in ub.edges if not _on_cycle(cycle, a, b)),
            key=pair_key,
        )
        a, b = chords[0]
        ear = [a, b]
    ia, ib = cycle.index(a), cycle.index(b)
    if ia > ib:
        ia, ib = ib, ia
        ear = list(reversed(ear))
    a, b = cycle[ia], cycle[ib]
    arc1 = cycle[ia : ib + 1]
    arc2 = [cycle[i % len(cycle)] for i in range(ib, len(cycle) + ia + 1)]
    return a, b, ear, arc1, list(reversed(arc2))


def _clip(route: list, stop: set) -> list:
    for i, v in enumerate(route):
        if v in stop:
            return route[: i + 1]
    raise AssertionError("route never reaches the cycle")


def _on_cycle(cycle: list, a, b) -> bool:
    n = len(cycle)
    for i in range(n):
        if {cycle[i], cycle[(i + 1) % n]} == {a, b}:
            return True
    return False


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
