"""Shared fixtures and seeded instance generators."""

import functools
import random

import pytest

from tgmenger.core import MGraph, TemporalGraph
from tgmenger.fixtures import demo_network, tight_gap_network, two_route_network
from tgmenger.gadgets import indep_set_gadget
from tgmenger.oracles import enumerate_connected_multigraphs


@pytest.fixture
def demo():
    return demo_network()


@pytest.fixture
def tight_gap():
    return tight_gap_network()


@pytest.fixture
def two_route():
    return two_route_network()


# The Petersen graph: outer 5-cycle 0-4, spokes i-(i+5), inner pentagram.
PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


@pytest.fixture
def petersen_gadget():
    """Independent-set gadget of the Petersen graph (alpha = 4): its
    product digraph at k = 3 reaches far more than 500 tuples."""
    return indep_set_gadget(range(10), PETERSEN_EDGES)


def random_temporal_graph(rng: random.Random, max_vertices=6, max_edges=8, max_label=5):
    """A random snapshot-simple temporal graph on integer vertices.

    Slots (vertex pair, label) are sampled with rejection so the
    constructor's simplicity rule always holds; dense parameter choices
    just yield slightly fewer edges than requested.
    """
    n = rng.randint(2, max_vertices)
    verts = list(range(n))
    m = rng.randint(1, max_edges)
    edges, slots = [], set()
    eid = 0
    for _ in range(m):
        for _ in range(40):
            u, v = rng.sample(verts, 2)
            t = rng.randint(1, max_label)
            slot = ((min(u, v), max(u, v)), t)
            if slot not in slots:
                slots.add(slot)
                edges.append((eid, u, v, t))
                eid += 1
                break
    return TemporalGraph(edges, vertices=verts)


def random_mgraph(rng: random.Random, max_vertices=6, max_links=7, max_mult=3):
    n = rng.randint(2, max_vertices)
    verts = list(range(n))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(1, min(max_links, len(pairs)))]
    return MGraph(
        [(u, v, rng.randint(1, max_mult)) for u, v in chosen], vertices=verts
    )


def terminals(g) -> list:
    """All ordered vertex pairs of a graph, deterministically."""
    vs = sorted(g.vertices)
    return [(s, z) for s in vs for z in vs if s != z]


@functools.cache
def all_multigraphs_up_to_iso(max_vertices=5, max_edges=7) -> tuple:
    """One multigraph per isomorphism class within the size box: the
    connected enumerations, their isolated-vertex paddings, and all
    two-component disjoint unions.  Built once per session."""
    connected = enumerate_connected_multigraphs(max_vertices, max_edges)
    family = {}

    def add(mg):
        family.setdefault(mg.canonical_form(), mg)

    def shifted(mg, tag):
        links = [((tag, u), (tag, v), m) for (u, v), m in mg.links.items()]
        return links, [(tag, v) for v in mg.vertices]

    for n in range(1, max_vertices + 1):
        add(MGraph([], vertices=list(range(n))))
    for mg in connected:
        add(mg)
        links = [(u, v, m) for (u, v), m in mg.links.items()]
        for extra in range(1, max_vertices + 1 - len(mg.vertices)):
            pads = [f"iso{i}" for i in range(extra)]
            add(MGraph(links, vertices=list(mg.vertices) + pads))
    for i, a in enumerate(connected):
        if len(a.vertices) < 2:
            continue
        for b in connected[i:]:
            if len(b.vertices) < 2:
                continue
            nv = len(a.vertices) + len(b.vertices)
            if nv > max_vertices or a.size() + b.size() > max_edges:
                continue
            la, va = shifted(a, "A")
            lb, vb = shifted(b, "B")
            add(MGraph(la + lb, vertices=va + vb))
            for extra in range(1, max_vertices + 1 - nv):
                pads = [f"iso{i}" for i in range(extra)]
                add(MGraph(la + lb, vertices=va + vb + pads))
    return tuple(family.values())
