"""Shared fixtures and seeded instance generators."""

import random

import pytest

from tgmenger.core import MGraph, TemporalGraph
from tgmenger.fixtures import demo_network, tight_gap_network, two_route_network
from tgmenger.gadgets import indep_set_gadget


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
