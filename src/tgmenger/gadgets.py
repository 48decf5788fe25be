"""Hardness-reduction instance generators.

Three classical problems are translated into temporal connectivity
questions on two terminals:

* independent set   -> counting snapshot-disjoint paths (packing),
* multicolored clique -> bounding the snapshot cut (label covering),
* vertex cover      -> bounding the multiedge cut.

Each generator returns a :class:`GadgetInstance` carrying the temporal
graph, the terminals, the decision question, and a manifest that records
the layout of the construction together with the source problem's ground
truth (computed by the brute-force oracles in :mod:`tgmenger.oracles`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import TemporalGraph, link_key, pair_key, token_key
from .errors import ImproperColoring, MalformedInput
from .oracles import find_multicolored_clique, max_independent_set, min_vertex_cover


@dataclass(frozen=True)
class GadgetInstance:
    graph: TemporalGraph
    s: object
    z: object
    question: str
    manifest: dict


def _source_list(items, what: str) -> list:
    try:
        if not isinstance(items, (str, dict)):
            return list(items)
    except TypeError:
        pass
    raise MalformedInput(f"source {what} must be a list")


def _simple_graph(vertices, edges) -> tuple:
    """Validate and canonicalize an undirected simple source graph.

    As in JSON graph documents, arrays and objects cannot name a vertex.
    """
    listed = _source_list(vertices, "vertices")
    if any(isinstance(v, (list, dict)) for v in listed):
        raise MalformedInput("a source vertex cannot be an array or object")
    verts = sorted(set(listed), key=token_key)
    if len(verts) != len(listed):
        raise MalformedInput("duplicate vertices in source graph")
    known = set(verts)
    seen = set()
    out = []
    for e in _source_list(edges, "edges"):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise MalformedInput(f"edge {e!r} is not a pair")
        u, v = e
        if any(isinstance(x, (list, dict)) for x in e):
            raise MalformedInput(f"edge {e!r}: an endpoint cannot be an array or object")
        if u == v:
            raise MalformedInput(f"loop at {u!r}")
        if u not in known or v not in known:
            raise MalformedInput(f"edge {e!r} uses an unknown vertex")
        pair = link_key(u, v)
        if pair in seen:
            raise MalformedInput(f"duplicate edge {u!r}-{v!r}")
        seen.add(pair)
        out.append(pair)
    out.sort(key=pair_key)
    return verts, out


class _Names:
    """Fresh gadget vertex names that never shadow an existing token."""

    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base: str):
        name = base
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        return name


# -- independent set -> path packing ---------------------------------------------


def indep_set_gadget(vertices, edges) -> GadgetInstance:
    """Temporal graph whose maximum snapshot-disjoint s-z packing equals
    the source graph's independence number.

    Edge number *i* (1-based, sorted order) becomes snapshot *i*.  Each
    source vertex turns into its own s-z path through fresh vertices,
    visiting exactly the snapshots of its incident edges, in order; two
    such paths share a snapshot precisely when the vertices are adjacent.
    Vertices of degree one get a fresh closing snapshot (so that twin legs
    of an isolated edge stay distinguishable), and isolated vertices
    become direct s-z edges on fresh snapshots.
    """
    verts, simple_edges = _simple_graph(vertices, edges)
    index = {pair: i + 1 for i, pair in enumerate(simple_edges)}
    names = _Names(verts)
    s = names.fresh("s")
    z = names.fresh("z")
    incident: dict = {v: [] for v in verts}
    for pair, i in index.items():
        incident[pair[0]].append(i)
        incident[pair[1]].append(i)

    temporal_edges = []
    vertex_paths: dict = {}
    next_fresh = len(simple_edges) + 1
    for v in verts:
        labels = sorted(incident[v])
        if len(labels) <= 1:
            labels = labels + [next_fresh]
            next_fresh += 1
        stops = [s] + [names.fresh(f"{v}.{i}") for i in range(1, len(labels))] + [z]
        for (a, b), t in zip(zip(stops, stops[1:]), labels):
            temporal_edges.append((len(temporal_edges), a, b, t))
        vertex_paths[str(v)] = labels

    graph = TemporalGraph(temporal_edges, vertices=names.taken)
    alpha = max_independent_set(verts, simple_edges)
    return GadgetInstance(
        graph,
        s,
        z,
        f"does the maximum snapshot-disjoint {s}-{z} packing equal {alpha.value}?",
        {
            "reduction": "independent-set",
            "source": {
                "vertices": list(verts),
                "edges": [list(p) for p in simple_edges],
            },
            "snapshot_of_edge": {f"{u},{v}": i for (u, v), i in index.items()},
            "path_snapshots": vertex_paths,
            "alpha": alpha.value,
            "independent_set": sorted(alpha.witness, key=token_key),
            "claim": "max snapshot-disjoint s-z paths == alpha",
        },
    )


# -- multicolored clique -> snapshot cut ------------------------------------------


def clique_gadget(vertices, edges, coloring: dict) -> GadgetInstance:
    """Temporal graph built so that a snapshot cut of size at most
    ``C(k,2) + k`` selects one edge per colour pair and one vertex per
    colour class, all mutually consistent — a multicolored clique.

    Every colour pair gets a private spine from *s* to *z*: the first half
    consists of parallel edges covering that pair's snapshot window, the
    second half walks the window in single steps.  Choosing edge number
    *l* of the pair corresponds to cutting the rest of the window, which
    reroutes the spine onto a branch that exits to *z* at the two
    endpoint vertices' private late snapshots; those exits are shared
    across pairs, which is what forces consistency.  Colour pairs with
    fewer edges than the largest are padded with fresh degree-one source
    vertices (harmless for k >= 3, where a clique needs degree k-1 >= 2).

    The last vertices of small instances keep the construction honest in
    both directions only for k >= 4 and window size >= 2; the manifest
    records the regime along with the source truth.
    """
    verts, simple_edges = _simple_graph(vertices, edges)
    for v in verts:
        if v not in coloring:
            raise MalformedInput(f"vertex {v!r} has no colour")
        if isinstance(coloring[v], (list, dict)):
            raise MalformedInput(f"the colour of {v!r} cannot be an array or object")
    for u, v in simple_edges:
        if coloring[u] == coloring[v]:
            raise ImproperColoring((u, v))
    class_of = dict(coloring)
    classes = sorted({class_of[v] for v in verts}, key=token_key)
    k = len(classes)
    if k < 2:
        raise MalformedInput("need at least two colour classes")

    pair_edges: dict = {pc: [] for pc in itertools.combinations(classes, 2)}
    for u, v in simple_edges:
        cu, cv = class_of[u], class_of[v]
        pc = (cu, cv) if classes.index(cu) < classes.index(cv) else (cv, cu)
        x, y = (u, v) if class_of[u] == pc[0] else (v, u)
        pair_edges[pc].append((x, y))
    for pc in pair_edges:
        pair_edges[pc].sort(key=pair_key)

    m = max(len(elist) for elist in pair_edges.values())
    if m == 0:
        raise MalformedInput("no edges between distinct colour classes")

    names = _Names(verts)
    padding = []
    for pc in sorted(pair_edges, key=pair_key):
        ci, cj = pc
        for r in range(m - len(pair_edges[pc])):
            a = names.fresh(f"pad.{ci}.{cj}.{r}.a")
            b = names.fresh(f"pad.{ci}.{cj}.{r}.b")
            class_of[a] = ci
            class_of[b] = cj
            pair_edges[pc].append((a, b))
            padding.append((a, b))

    all_source = sorted(class_of, key=token_key)
    pairs = sorted(pair_edges, key=pair_key)
    window_top = m * len(pairs)
    vertex_time = {v: window_top + i + 1 for i, v in enumerate(all_source)}

    s = names.fresh("s")
    z = names.fresh("z")
    temporal_edges = []

    def add(u, v, t):
        temporal_edges.append((len(temporal_edges), u, v, t))

    windows: dict = {}
    for pairindex, pc in enumerate(pairs):
        ci, cj = pc
        f = m * pairindex
        window = list(range(f + 1, f + m + 1))
        windows[f"{ci},{cj}"] = window
        spine = (
            [s]
            + [names.fresh(f"p.{ci}.{cj}.{i}") for i in range(1, 2 * m)]
            + [z]
        )
        for pos in range(1, m + 1):
            for t in window:
                add(spine[pos - 1], spine[pos], t)
        for step in range(1, m + 1):
            add(spine[m - 1 + step], spine[m + step], f + step)
        for l, (x, y) in enumerate(pair_edges[pc], start=1):
            if m == 1:
                w = spine[l]
            else:
                branch = [spine[l]] + [
                    names.fresh(f"w.{ci}.{cj}.{l}.{i}") for i in range(1, m)
                ]
                for (a, b), t in zip(
                    zip(branch, branch[1:]), sorted(set(window) - {f + l})
                ):
                    add(a, b, t)
                w = branch[-1]
            add(w, z, vertex_time[x])
            add(w, z, vertex_time[y])

    graph = TemporalGraph(temporal_edges, vertices=names.taken)
    h = k * (k - 1) // 2 + k
    witness = find_multicolored_clique(
        {v: class_of[v] for v in verts}, simple_edges
    )
    return GadgetInstance(
        graph,
        s,
        z,
        f"is there a snapshot cut of size at most {h} between {s} and {z}?",
        {
            "reduction": "multicolored-clique",
            "source": {
                "vertices": list(verts),
                "edges": [list(p) for p in simple_edges],
                "coloring": {str(v): coloring[v] for v in verts},
            },
            "k": k,
            "edges_per_pair": m,
            "cut_threshold": h,
            "pair_windows": windows,
            "vertex_snapshots": {str(v): t for v, t in vertex_time.items()},
            "padding": [list(p) for p in padding],
            "has_clique": witness is not None,
            "clique": None if witness is None else sorted(witness, key=token_key),
            "claim": "min snapshot cut <= cut_threshold iff a multicolored "
            "clique exists (two-sided only for k >= 4 with edges_per_pair >= 2)",
        },
    )


# -- vertex cover -> multiedge cut -----------------------------------------------


def vc_gadget(vertices, edges) -> GadgetInstance:
    """Lifetime-2 temporal graph whose minimum multiedge s-z cut is
    ``n + tau``: one forced private cut per source vertex, plus one extra
    (at the early entry or the late exit of the vertex chain) exactly for
    cover members.

    Each source vertex becomes a four-vertex chain with an early half and
    a late half glued by a doubled middle link; each source edge becomes a
    shortcut from the early half of its smaller endpoint to the late half
    of its larger one.  One direction is enough: either endpoint's cut
    (entry or exit) severs the shortcut.
    """
    verts, simple_edges = _simple_graph(vertices, edges)
    names = _Names(verts)
    s = names.fresh("s")
    z = names.fresh("z")
    stage = {
        v: tuple(names.fresh(f"{v}.{i}") for i in (1, 2, 3, 4)) for v in verts
    }
    temporal_edges = []

    def add(u, v, t):
        temporal_edges.append((len(temporal_edges), u, v, t))

    for v in verts:
        x1, x2, x3, x4 = stage[v]
        add(s, x1, 1)
        add(s, x2, 2)
        add(x3, z, 1)
        add(x4, z, 2)
        add(x1, x2, 1)
        add(x2, x3, 1)
        add(x2, x3, 2)
        add(x3, x4, 2)
    shortcut = {}
    for u, v in simple_edges:
        f = names.fresh(f"{u}+{v}")
        shortcut[f"{u},{v}"] = f
        add(stage[u][0], f, 1)
        add(f, stage[v][3], 2)

    graph = TemporalGraph(temporal_edges, vertices=names.taken)
    tau = min_vertex_cover(verts, simple_edges)
    n = len(verts)
    return GadgetInstance(
        graph,
        s,
        z,
        f"is there a multiedge cut of size at most {n} + k between {s} and {z}?",
        {
            "reduction": "vertex-cover",
            "source": {
                "vertices": list(verts),
                "edges": [list(p) for p in simple_edges],
            },
            "n": n,
            "stages": {str(v): list(stage[v]) for v in verts},
            "shortcuts": shortcut,
            "tau": tau.value,
            "cover": sorted(tau.witness, key=token_key),
            "claim": "min multiedge s-z cut <= n + k iff a vertex cover of "
            "size at most k exists",
        },
    )
