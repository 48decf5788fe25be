"""Exact packing/covering for injective timefunctions via max flow.

When no label repeats, snapshot-disjointness degenerates to edge-
disjointness, and both the packing and the covering collapse to a classic
max-flow/min-cut pair on a time-expanded network (Ford–Fulkerson 1958;
Berman's edge-disjoint temporal Menger theorem, Networks 1996).  The
network is compressed: a vertex gets one node per label at which it has
an incident edge, chained in label order by waiting arcs, and every edge
is a unit-capacity inner arc that either endpoint enters and leaves at
the edge's label.  That is at most ``2 + 4m`` nodes, independent of the
lifetime.  The same network without the injectivity requirement computes
the maximum number of pairwise edge-disjoint temporal paths of an
arbitrary temporal graph.

Both public functions run one solve, ``_max_flow``: networkx's
Edmonds–Karp implementation does the flow work, once per call, and this
module owns the network shape and the deterministic walk decomposition.
That decomposition traces each unit of flow from source to sink in one
pass, following the first flow-carrying arc out of each node, and erases
loops as it goes: when an edge lands on a vertex already on the path, the
path is cut back to that vertex, so every unit comes out a path.
:func:`~tgmenger.core.check_family` checks the family before it is
returned.

Both return one :class:`FlowResult`; ``injective_connectivity`` adds the
minimum cut read off the same flow's residual graph: the labels of the
edges whose unit arcs leave the part reachable from the source.  It is
certified by its size, which must equal the flow value, and by
:func:`~tgmenger.cuts.is_snapshot_cut`, the cut search's own check on the
graph's view of the pair.  ``max_edge_disjoint_paths`` leaves
``cut_labels`` ``None``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

from .core import TemporalGraph, TemporalWalk, check_family, check_terminals, token_key
from .cuts import is_snapshot_cut
from .errors import NotInjective

_SRC = ("src",)
_SNK = ("snk",)


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Maximum family of pairwise edge-disjoint temporal s,z-paths and its
    size.  ``cut_labels`` is a minimum snapshot cut of the same size on an
    injective instance (where the two optima coincide), and ``None`` for
    the edge-disjoint packing of an arbitrary instance."""

    value: int
    family: tuple
    cut_labels: Optional[frozenset]


def _expanded_network(g: TemporalGraph, s, z) -> nx.DiGraph:
    times: dict = {}
    for e in g.edges:
        times.setdefault(e.u, set()).add(e.t)
        times.setdefault(e.v, set()).add(e.t)
    big = len(g.edges) + 1
    net = nx.DiGraph()
    net.add_edge(_SRC, ("v", s, min(times[s])), capacity=big)
    for x in sorted(times, key=token_key):
        ts = sorted(times[x])
        for a, b in zip(ts, ts[1:]):
            net.add_edge(("v", x, a), ("v", x, b), capacity=big)
    for t in sorted(times[z]):
        net.add_edge(("v", z, t), _SNK, capacity=big)
    for e in g.sorted_edges():
        inn, out = ("in", e.eid), ("out", e.eid)
        net.add_edge(inn, out, capacity=1)
        for x in (e.u, e.v):
            net.add_edge(("v", x, e.t), inn, capacity=big)
            net.add_edge(out, ("v", x, e.t), capacity=big)
    return net


def _residual_source_side(net, flow_dict) -> set:
    """Nodes reachable from the source in the residual graph of a maximum
    flow: along arcs with spare capacity, and backwards along arcs that
    carry flow.  Every arc leaving this set is saturated, so it is the
    source side of a minimum cut."""
    side = {_SRC}
    queue = deque(side)
    while queue:
        u = queue.popleft()
        for v, attr in net.succ[u].items():
            if v not in side and flow_dict[u][v] < attr["capacity"]:
                side.add(v)
                queue.append(v)
        for v in net.pred[u]:
            if v not in side and flow_dict[v][u] > 0:
                side.add(v)
                queue.append(v)
    return side


def _trace_units(net, flow_dict, value: int, g: TemporalGraph, s) -> list:
    """Split a flow of the given value into unit s,z-paths in one pass.

    Each unit greedily follows the first flow-carrying arc in insertion
    order (the network is built deterministically), decrementing as it
    goes, and records the vertex it lands on after each edge's inner arc.
    A landing on a vertex already on the path erases the loop back to it:
    the edges between two visits of a vertex can be dropped without
    breaking label monotonicity.
    """
    remaining = {u: dict(vs) for u, vs in flow_dict.items()}
    walks = []
    for _ in range(value):
        node = _SRC
        verts, edges, at = [s], [], {s: 0}
        while node != _SNK:
            for succ in net[node]:
                if remaining[node].get(succ, 0) > 0:
                    remaining[node][succ] -= 1
                    break
            else:
                raise AssertionError("flow conservation broke during tracing")
            if node[0] == "out":
                x = succ[1]
                if x in at:
                    del verts[at[x] + 1 :], edges[at[x] :]
                    at = {v: i for i, v in enumerate(verts)}  # rare: rebuild
                else:
                    at[x] = len(verts)
                    verts.append(x)
                    edges.append(g.edge(node[1]))
            node = succ
        walks.append(TemporalWalk(tuple(verts), tuple(edges)))
    return walks


def _max_flow(g: TemporalGraph, s, z) -> tuple:
    """The one flow solve behind both public functions, on terminals the
    caller has checked.  Returns ``(family, network, flow)``, the last two
    ``None`` when *z* is unreachable and no network is built.  That
    pre-check reads the first walk of the graph's view of the pair: one
    full forward sweep, shared with every other question on the pair."""
    if g._pair(s, z).walk is None:
        return (), None, None
    net = _expanded_network(g, s, z)
    value, flow_dict = nx.maximum_flow(net, _SRC, _SNK, flow_func=edmonds_karp)
    family = tuple(_trace_units(net, flow_dict, value, g, s))
    check_family(g, s, z, family, lambda path: path.edge_ids)
    return family, net, flow_dict


def max_edge_disjoint_paths(g: TemporalGraph, s, z) -> FlowResult:
    """Maximum family of pairwise edge-disjoint temporal s,z-paths, for
    any temporal graph (labels may repeat); ``cut_labels`` is ``None``."""
    check_terminals(g, s, z)
    family, _, _ = _max_flow(g, s, z)
    return FlowResult(len(family), family, None)


def injective_connectivity(g: TemporalGraph, s, z) -> FlowResult:
    """Packing = covering for an injective instance, with both witnesses.

    Raises :class:`NotInjective` if any label repeats.  One maximum flow
    gives both: the family comes from its decomposition (edge-disjoint
    paths are snapshot disjoint when no label repeats), and the cut
    collects the labels of the edges whose unit arcs leave the part of the
    residual graph reachable from the source (all crossings are unit arcs
    because every other arc's capacity exceeds the flow value).  A cut as
    large as the family that leaves no s,z-walk proves both optimal, so
    that is what is checked before they are returned.
    """
    check_terminals(g, s, z)
    seen: set = set()
    for e in g.edges:
        if e.t in seen:
            raise NotInjective(e.t)
        seen.add(e.t)
    family, net, flow_dict = _max_flow(g, s, z)
    if net is None:
        return FlowResult(0, (), frozenset())
    side = _residual_source_side(net, flow_dict)
    cut = {g.edge(u[1]) for u in side if u[0] == "in" and ("out", u[1]) not in side}
    labels = frozenset(e.t for e in cut)
    if len(labels) != len(family) or not is_snapshot_cut(g, s, z, labels):
        raise AssertionError("the residual cut is not a snapshot cut of the flow's size")
    return FlowResult(len(family), family, labels)
