"""Temporal multigraphs and time-respecting traversal primitives.

A *temporal graph* here is an undirected multigraph together with a
timefunction assigning one positive integer label to every edge, under the
standing assumption that each snapshot is simple: parallel edges must carry
pairwise distinct labels.  Walks are *non-strict* — consecutive labels along
a walk may repeat but never decrease.

Every graph keeps a label index: its snapshots, one tuple of edges per
label in increasing label order, built once at construction.  One sweep
over that index answers all time-respecting reachability: run forward
from a source it gives earliest arrivals and the parent edges of
:func:`reachable`'s witness, run backward from a target it gives latest
departures.  This is the label-ordered edge-stream pass of Wu et al.,
"Path Problems in Temporal Graphs" (PVLDB 2014).  The sweep can skip a
removal mask, a set of edges, and stop as soon as a target is reached, so
the cut checks ask "is *z* still reachable once these labels or
multiedges are gone?" of the graph itself instead of rebuilding it
without them.

Every solver for a terminal pair asks its questions of the graph through
one view of that pair, kept by the graph for the last pair it was asked
about and built lazily: the full forward sweep from *s* with its first
s,z-walk, the edges on some s,z-walk (which alone need the backward
sweep from *z*), and whatever a solver module derives from those, such as
the cut candidates and the product's move tables.  Repeated questions on
one pair share that work; a question on another pair replaces the view,
so a graph holds at most one pair's derived data.  Copies and pickles
leave it out.

One depth-first search on an explicit stack enumerates simple paths for
the whole module: given a callback that lists a vertex's moves in the order
they are tried, it yields every simple start,stop-path with its steps.
:func:`enumerate_paths` moves along incident edges in edge-id order whose
label is at least the entering edge's; the minor matcher moves to
token-ordered host neighbours through links heavy enough for the pattern
link and off the other branch vertices and paths.

The module also provides :class:`MGraph`, the untimed multigraph skeleton
(vertices, links, multiplicities) used by the recognition machinery, plus
m-subdivision and a small-pattern topological-minor matcher that respects
multiplicities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import (
    AbstractSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from .errors import (
    DecreasingLabel,
    LimitExceeded,
    MalformedInput,
    MissingMultiedge,
    NonIncident,
    PatternTooLarge,
    UnknownEdge,
    UnknownVertex,
)

INF = float("inf")

Vertex = Hashable
EdgeId = Hashable


def token_key(x):
    """Sort key that tolerates mixed vertex/edge-id types (ints before
    everything else, everything else by its string form)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return (0, x, "")
    return (1, 0, str(x))


def pair_key(pair) -> tuple:
    """Sort key of a vertex pair: :func:`token_key` of each end in turn."""
    return token_key(pair[0]), token_key(pair[1])


def link_key(u: Vertex, v: Vertex) -> tuple:
    """Canonical unordered representation of a vertex pair."""
    return (u, v) if token_key(u) <= token_key(v) else (v, u)


class Edge(NamedTuple):
    """One timed edge: identifier, the two endpoints, and the time label."""

    eid: EdgeId
    u: Vertex
    v: Vertex
    t: int

    def touches(self, x: Vertex) -> bool:
        return x == self.u or x == self.v

    def other(self, x: Vertex) -> Vertex:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise UnknownVertex(x)

    @property
    def pair(self) -> tuple:
        return link_key(self.u, self.v)


class TemporalGraph:
    """Undirected multigraph with integer time labels on edges.

    Parameters
    ----------
    edges:
        Iterable of ``(edge_id, u, v, t)`` tuples or :class:`Edge` values.
        Edge ids must be pairwise distinct, labels must be positive
        integers, loops are rejected, and parallel edges (same endpoints)
        must carry pairwise distinct labels so that every snapshot is a
        simple graph.
    vertices:
        Extra vertices to include beyond the edge endpoints (isolated
        vertices would otherwise be lost).

    Attributes
    ----------
    edges : tuple[Edge]
        Edges in construction order.
    vertices : frozenset
    labels : frozenset[int]
        The set of labels in use.
    lifetime : int
        Largest label, or 0 for an edgeless graph.

    The label index maps each label, in increasing order, to its snapshot:
    the edges at that label in construction order.  The edges in id order
    and the view of the last terminal pair asked about are derived on
    demand and left out of copies and pickles.
    """

    def __init__(self, edges: Iterable, vertices: Iterable[Vertex] = ()):
        built = []
        by_id: dict = {}
        seen_slot: dict = {}
        verts = set(vertices)
        for item in edges:
            try:
                e = item if isinstance(item, Edge) else Edge(*item)
            except TypeError:
                raise MalformedInput(f"edge item {item!r} is not (edge_id, u, v, t)") from None
            if not isinstance(e.t, int) or isinstance(e.t, bool) or e.t < 1:
                raise MalformedInput(
                    f"edge {e.eid!r}: label must be a positive integer, got {e.t!r}"
                )
            if e.u == e.v:
                raise MalformedInput(f"edge {e.eid!r}: loops are not allowed")
            slot = (e.pair, e.t)
            try:
                if e.eid in by_id:
                    raise MalformedInput(f"duplicate edge id {e.eid!r}")
                if slot in seen_slot:
                    raise MalformedInput(
                        f"edges {seen_slot[slot]!r} and {e.eid!r} are parallel and "
                        f"share label {e.t}; snapshots must be simple"
                    )
            except TypeError:
                raise MalformedInput(f"edge item {item!r} has an unhashable id or end") from None
            seen_slot[slot] = e.eid
            by_id[e.eid] = e
            built.append(e)
            verts.add(e.u)
            verts.add(e.v)
        self.edges: tuple = tuple(built)
        self.vertices: frozenset = frozenset(verts)
        self._by_id = by_id
        by_label: dict = {}
        for e in built:
            by_label.setdefault(e.t, []).append(e)
        self._snapshots = {t: tuple(by_label[t]) for t in sorted(by_label)}
        self.labels: frozenset = frozenset(self._snapshots)
        self.lifetime: int = max(self.labels) if self.labels else 0
        inc: dict = {v: [] for v in verts}
        for e in built:
            inc[e.u].append(e)
            inc[e.v].append(e)
        self._incident = {
            v: tuple(sorted(es, key=lambda e: (e.t, token_key(e.eid))))
            for v, es in inc.items()
        }
        self._multi: dict = {}
        for e in built:
            self._multi.setdefault(e.pair, []).append(e)
        self._multi = {
            pair: tuple(sorted(es, key=lambda e: e.t)) for pair, es in self._multi.items()
        }
        self._sorted: Optional[tuple] = None
        self._view: Optional[_PairView] = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_sorted": None, "_view": None}

    # -- access -----------------------------------------------------------

    def edge(self, eid: EdgeId) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownEdge(eid) from None

    def incident(self, v: Vertex) -> tuple:
        try:
            return self._incident[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def snapshot(self, t: int) -> tuple:
        return self._snapshots.get(t, ())

    def multiedge(self, u: Vertex, v: Vertex) -> tuple:
        pair = link_key(u, v)
        try:
            return self._multi[pair]
        except KeyError:
            raise MissingMultiedge(pair) from None

    def multiedges(self) -> dict:
        """Map from canonical vertex pair to the tuple of parallel edges."""
        return dict(self._multi)

    def sorted_edges(self) -> tuple:
        """The edges in edge-id order, sorted once per graph."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.edges, key=lambda e: token_key(e.eid)))
        return self._sorted

    def _pair(self, s: Vertex, z: Vertex) -> "_PairView":
        """The view of the terminal pair *s*, *z*, which the caller has
        checked: the one kept when it is of this pair, else a new one in
        its place."""
        view = self._view
        if view is None or view.s != s or view.z != z:
            view = self._view = _PairView(self, s, z)
        return view

    def underlying(self) -> "MGraph":
        """Forget the timefunction, keeping multiplicities."""
        return MGraph(
            {pair: len(es) for pair, es in self._multi.items()}, vertices=self.vertices
        )

    # -- restricted views --------------------------------------------------

    def without_labels(self, labels: Iterable[int]) -> "TemporalGraph":
        removed = frozenset(labels)
        keep = [e for e in self.edges if e.t not in removed]
        return TemporalGraph(keep, vertices=self.vertices)

    def without_multiedges(self, pairs: Iterable[tuple]) -> "TemporalGraph":
        dropped = {link_key(*p) for p in pairs}
        for pair in dropped:
            if pair not in self._multi:
                raise MissingMultiedge(pair)
        keep = [e for e in self.edges if e.pair not in dropped]
        return TemporalGraph(keep, vertices=self.vertices)

    def __repr__(self):
        return (
            f"TemporalGraph(vertices={len(self.vertices)}, edges={len(self.edges)}, "
            f"lifetime={self.lifetime})"
        )


@dataclass(frozen=True, slots=True)
class TemporalWalk:
    """A time-respecting walk, stored as its vertex and edge sequences.

    ``vertices`` has one more entry than ``edges``; edge ``i`` joins
    ``vertices[i]`` and ``vertices[i+1]``.  Zero-length walks (a single
    vertex, no edges) are allowed.
    """

    vertices: tuple
    edges: tuple

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def first(self) -> Vertex:
        return self.vertices[0]

    @property
    def last(self) -> Vertex:
        return self.vertices[-1]

    @property
    def labels(self) -> tuple:
        return tuple(e.t for e in self.edges)

    @property
    def label_set(self) -> frozenset:
        return frozenset(e.t for e in self.edges)

    @property
    def edge_ids(self) -> tuple:
        return tuple(e.eid for e in self.edges)

    @property
    def multiedge_pairs(self) -> frozenset:
        return frozenset(e.pair for e in self.edges)

    @property
    def is_path(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def sequence(self) -> tuple:
        """Interleaved ``(v0, edge_id, v1, edge_id, ..., vk)`` form."""
        out = [self.vertices[0]]
        for e, v in zip(self.edges, self.vertices[1:]):
            out.append(e.eid)
            out.append(v)
        return tuple(out)

    def pretty(self) -> str:
        """Compact ``(v0, t1, v1, ..., tk, vk)`` rendering using labels."""
        out = [str(self.vertices[0])]
        for e, v in zip(self.edges, self.vertices[1:]):
            out.append(str(e.t))
            out.append(str(v))
        return "(" + ", ".join(out) + ")"


def validate_walk(g: TemporalGraph, sequence: Sequence) -> TemporalWalk:
    """Check an interleaved ``(v0, edge_id, v1, ...)`` sequence against *g*.

    Returns the walk on success.  Raises :class:`UnknownVertex`,
    :class:`UnknownEdge`, :class:`NonIncident` (with the failing step
    index) or :class:`DecreasingLabel` (likewise) on the first violation.
    """
    seq = list(sequence)
    if len(seq) % 2 == 0 or not seq:
        raise MalformedInput(
            "walk sequence must alternate vertex, edge id, vertex, ... "
            "(odd length, at least one vertex)"
        )
    verts = seq[0::2]
    eids = seq[1::2]
    for v in verts:
        if v not in g.vertices:
            raise UnknownVertex(v)
    edges = []
    prev_t = None
    for i, eid in enumerate(eids):
        e = g.edge(eid)
        cur, nxt = verts[i], verts[i + 1]
        if not e.touches(cur) or e.other(cur) != nxt:
            raise NonIncident(i, cur, eid)
        if prev_t is not None and e.t < prev_t:
            raise DecreasingLabel(i, prev_t, e.t)
        prev_t = e.t
        edges.append(e)
    return TemporalWalk(tuple(verts), tuple(edges))


def walk_from_labels(g: TemporalGraph, sequence: Sequence) -> TemporalWalk:
    """Resolve an interleaved ``(v0, t1, v1, t2, ...)`` sequence to a walk.

    Because snapshots are simple, a (vertex pair, label) slot names at most
    one edge, so the compact label form used throughout the docs is
    unambiguous.
    """
    seq = list(sequence)
    if len(seq) % 2 == 0 or not seq:
        raise MalformedInput(
            "label walk must alternate vertex, label, vertex, ... "
            "(odd length, at least one vertex)"
        )
    verts = seq[0::2]
    labels = seq[1::2]
    resolved = [verts[0]]
    for i, t in enumerate(labels):
        cur, nxt = verts[i], verts[i + 1]
        hit = None
        for e in g.multiedge(cur, nxt):
            if e.t == t:
                hit = e
                break
        if hit is None:
            raise MalformedInput(f"no edge between {cur!r} and {nxt!r} with label {t}")
        resolved.append(hit.eid)
        resolved.append(nxt)
    return validate_walk(g, resolved)


def check_family(g: TemporalGraph, s: Vertex, z: Vertex, family, items) -> None:
    """Check a solver's family of s,z-paths before it is returned.

    Every walk must replay through :func:`validate_walk` to itself and be
    a path from *s* to *z*, and ``items(walk)`` (its labels or edge ids)
    must share nothing with any other walk's.  A violation is a fault of
    the solver, not of the input, so it raises :class:`AssertionError`
    explicitly, which ``python -O`` does not strip.
    """
    used: set = set()
    for walk in family:
        try:
            replayed = validate_walk(g, walk.sequence())
        except MalformedInput:
            replayed = None
        if replayed != walk:
            raise AssertionError(f"walk {walk.pretty()} is not in the graph")
        if not (walk.is_path and walk.first == s and walk.last == z):
            raise AssertionError(f"walk {walk.pretty()} is not an s,z-path")
        mine = items(walk)
        if not used.isdisjoint(mine):
            raise AssertionError(f"walk {walk.pretty()} overlaps an earlier one")
        used.update(mine)


# -- time-respecting reachability ------------------------------------------


def _sweep(
    g: TemporalGraph,
    root: Vertex,
    forward: bool,
    removed: AbstractSet[Edge] = frozenset(),
    target: Optional[Vertex] = None,
) -> tuple:
    """One pass over the label index from *root*: forward in increasing
    label order (walks leaving *root*), backward in decreasing order (walks
    ending at *root*).

    Returns the label at which each vertex was first reached (0 forward,
    infinity backward for *root*) and, for every other vertex reached, the
    edge it was reached by.  Labels are met monotonically, so a vertex
    already reached is always in time for the current snapshot and one
    not yet reached never is.

    Edges in the mask *removed* are skipped.  The survivors of a snapshot
    keep their construction order, which is the order of the same
    snapshot in a graph rebuilt without the removed edges, so both sweeps
    reach the same vertices by the same parent edges.  The pass returns
    as soon as *target* is reached: a vertex's parent is fixed when it is
    first reached, so the parent chain back from *target* is already
    final, but vertices reached later are missing from the result.
    """
    reached = {root: 0 if forward else INF}
    parent: dict = {}
    snapshots = g._snapshots.items()
    for t, snap in snapshots if forward else reversed(snapshots):
        if removed:
            snap = [e for e in snap if e not in removed]
        # Within one snapshot several hops at the same label may chain, so
        # iterate to a fixpoint (snapshots are tiny in practice).
        changed = True
        while changed:
            changed = False
            for e in snap:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a in reached and b not in reached:
                        reached[b] = t
                        parent[b] = e
                        if b == target:
                            return reached, parent
                        changed = True
    return reached, parent


class _PairView:
    """The data one graph derives from one terminal pair, each part built
    on first use.  Nothing in it depends on a question's bound or budget,
    so every question on the pair reads the same values."""

    def __init__(self, g: TemporalGraph, s: Vertex, z: Vertex):
        self.graph = g
        self.s = s
        self.z = z
        self._derived: dict = {}

    @cached_property
    def forward(self) -> tuple:
        """Earliest arrivals and parent edges of one full forward sweep
        from *s*."""
        return _sweep(self.graph, self.s, True)

    @cached_property
    def walk(self) -> Optional[TemporalWalk]:
        """:func:`reachable`'s witness, or ``None`` when *z* is
        unreachable.  A vertex's parent is fixed when it is first reached,
        so the full sweep's parent chain back from *z* is that of a sweep
        stopped at *z*."""
        ea, parent = self.forward
        return _walk_back(parent, self.s, self.z) if self.z in ea else None

    @cached_property
    def useful(self) -> tuple:
        """Edges that lie on some temporal s,z-walk, hence the only edges a
        minimal cut can use.

        An edge uv at time t lies on such a walk iff one endpoint is
        reachable from s by time t and the other can still reach z from
        time t on; the backward sweep from *z* is run for this alone.
        """
        ea = self.forward[0]
        ld = _sweep(self.graph, self.z, False)[0]
        useful = []
        for e in self.graph.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if ea.get(a, INF) <= e.t and ld.get(b, -INF) >= e.t:
                    useful.append(e)
                    break
        return tuple(useful)

    def derived(self, build):
        """``build(self)``, computed once per view: how a solver module
        keeps its own tables of the pair."""
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value


def earliest_arrival(g: TemporalGraph, s: Vertex) -> dict:
    """Earliest label at which each vertex is reachable from *s* (0 for *s*
    itself; unreachable vertices are absent)."""
    if s not in g.vertices:
        raise UnknownVertex(s)
    return _sweep(g, s, forward=True)[0]


def latest_departure(g: TemporalGraph, z: Vertex) -> dict:
    """Latest label at which each vertex can still start a walk to *z*
    (infinity for *z* itself; vertices that cannot reach *z* are absent)."""
    if z not in g.vertices:
        raise UnknownVertex(z)
    return _sweep(g, z, forward=False)[0]


def check_terminals(g: TemporalGraph, s: Vertex, z: Vertex) -> None:
    """The terminal rule every s,z solver shares: both are vertices of *g*
    (:class:`UnknownVertex`, *s* checked first) and they are distinct
    (:class:`MalformedInput`)."""
    for v in (s, z):
        if v not in g.vertices:
            raise UnknownVertex(v)
    if s == z:
        raise MalformedInput("terminals must be distinct")


def check_integer(name: str, value) -> int:
    """The type rule of every search bound, returning the bound: an ``int``
    that is not a ``bool``, as for edge labels (:class:`MalformedInput`
    naming it)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"{name} must be an integer, got {value!r}")
    return value


def reachable(g: TemporalGraph, s: Vertex, z: Vertex) -> Optional[TemporalWalk]:
    """A time-respecting *s,z*-path, or ``None`` when *z* is unreachable.

    The witness follows earliest-arrival parent pointers, so it is a path
    (each vertex is adopted once) with non-decreasing labels.
    """
    if s not in g.vertices:
        raise UnknownVertex(s)
    if z not in g.vertices:
        raise UnknownVertex(z)
    if s == z:
        return TemporalWalk((s,), ())
    return _walk_avoiding(g, s, z)


def _walk_avoiding(
    g: TemporalGraph, s: Vertex, z: Vertex, removed: AbstractSet[Edge] = frozenset()
) -> Optional[TemporalWalk]:
    """:func:`reachable`'s witness in *g* with the edges in *removed*
    deleted, from one masked sweep that stops at *z*; the terminals are
    distinct vertices of *g*."""
    ea, parent = _sweep(g, s, True, removed, z)
    return _walk_back(parent, s, z) if z in ea else None


def _walk_back(parent: Mapping, s: Vertex, z: Vertex) -> TemporalWalk:
    """The walk from *s* to *z* that follows each vertex's parent edge
    back from *z*."""
    rv = [z]
    re = []
    cur = z
    while cur != s:
        e = parent[cur]
        re.append(e)
        cur = e.other(cur)
        rv.append(cur)
    return TemporalWalk(tuple(reversed(rv)), tuple(reversed(re)))


def _simple_paths(start: Vertex, stop: Vertex, moves) -> Iterator[tuple]:
    """Every simple *start*,*stop*-path, depth first, as its vertex and
    step tuples.

    ``moves(vertex, step)`` lists the ``(step, next vertex)`` moves out of a
    vertex entered by *step* (``None`` at *start*), in the order they are
    tried; moves to a vertex already on the path are skipped.  A path ends
    the moment it reaches *stop*, so none passes through it.  An explicit
    stack of move iterators keeps long paths from exhausting the
    interpreter's recursion limit.
    """
    vpath = [start]
    spath: list = []
    used = {start}
    stack = [iter(moves(start, None))]
    while stack:
        for step, nxt in stack[-1]:
            if nxt in used:
                continue
            if nxt == stop:
                yield (*vpath, stop), (*spath, step)
                continue
            vpath.append(nxt)
            spath.append(step)
            used.add(nxt)
            stack.append(iter(moves(nxt, step)))
            break
        else:
            stack.pop()
            if spath:
                used.discard(vpath.pop())
                spath.pop()


def enumerate_paths(
    g: TemporalGraph, s: Vertex, z: Vertex, limit: Optional[int] = None
) -> list:
    """All time-respecting *s,z*-paths, in lexicographic order of their
    edge-id sequences.

    Raises :class:`LimitExceeded` if more than ``limit`` paths exist.
    Note a path cannot pass through *z* and return, so every path is
    emitted exactly once, at the moment it reaches *z*.
    """
    if s not in g.vertices:
        raise UnknownVertex(s)
    if z not in g.vertices:
        raise UnknownVertex(z)
    if s == z:
        return [TemporalWalk((s,), ())]

    by_eid: dict = {}  # each vertex's incident edges, sorted on first entry

    def moves(v: Vertex, e: Optional[Edge]) -> Iterator:
        floor = 0 if e is None else e.t
        if v not in by_eid:
            by_eid[v] = sorted(g.incident(v), key=lambda f: token_key(f.eid))
        for f in by_eid[v]:
            if f.t >= floor:
                yield f, f.other(v)

    out: list = []
    for vertices, edges in _simple_paths(s, z, moves):
        out.append(TemporalWalk(vertices, edges))
        if limit is not None and len(out) > limit:
            raise LimitExceeded(limit, "temporal paths")
    return out


# -- untimed multigraphs -----------------------------------------------------


class MGraph:
    """Undirected multigraph stored as link multiplicities.

    A *link* is an unordered vertex pair; its multiplicity counts the
    parallel edges joining the pair.  This is exactly the information left
    of a temporal graph once the timefunction is forgotten.

    Parameters
    ----------
    links:
        Either a mapping ``{(u, v): multiplicity}`` or an iterable of
        ``(u, v)`` / ``(u, v, multiplicity)`` items (repeats accumulate).
    vertices:
        Extra isolated vertices.
    """

    def __init__(self, links=(), vertices: Iterable[Vertex] = ()):
        acc: dict = {}
        mapping = isinstance(links, Mapping)
        for item in links.items() if mapping else links:
            try:
                (u, v), m = (
                    item if mapping else (item[:2], item[2]) if len(item) == 3 else (item, 1)
                )
                pair = link_key(u, v)
                before = acc.get(pair, 0)
            except (TypeError, ValueError):
                raise MalformedInput(
                    f"link item {item!r} is not (u, v) or (u, v, m) with hashable ends"
                ) from None
            if u == v:
                raise MalformedInput(f"loop link at {u!r}")
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise MalformedInput(
                    f"multiplicity of {u!r}-{v!r} must be a positive integer, got {m!r}"
                )
            acc[pair] = before + m
        self.links: dict = acc
        verts = set(vertices)
        for u, v in acc:
            verts.add(u)
            verts.add(v)
        self.vertices: frozenset = frozenset(verts)
        nbrs: dict = {v: set() for v in verts}
        for u, v in acc:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._nbrs = {v: tuple(sorted(ns, key=token_key)) for v, ns in nbrs.items()}

    # -- access -----------------------------------------------------------

    def order(self) -> int:
        return len(self.vertices)

    def size(self) -> int:
        return sum(self.links.values())

    def multiplicity(self, u: Vertex, v: Vertex) -> int:
        return self.links.get(link_key(u, v), 0)

    def neighbors(self, v: Vertex) -> tuple:
        try:
            return self._nbrs[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def underlying_degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def degree(self, v: Vertex) -> int:
        return sum(self.multiplicity(v, w) for w in self.neighbors(v))

    def sorted_links(self) -> list:
        return sorted(self.links.items(), key=lambda kv: pair_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, MGraph)
            and self.vertices == other.vertices
            and self.links == other.links
        )

    def __hash__(self):
        return hash((self.vertices, frozenset(self.links.items())))

    def __repr__(self):
        return f"MGraph(vertices={len(self.vertices)}, links={len(self.links)}, size={self.size()})"

    # -- edits -------------------------------------------------------------

    def drop_link(self, u: Vertex, v: Vertex) -> "MGraph":
        pair = link_key(u, v)
        if pair not in self.links:
            raise MissingMultiedge(pair)
        rest = {p: m for p, m in self.links.items() if p != pair}
        return MGraph(rest, vertices=self.vertices)

    def set_multiplicity(self, u: Vertex, v: Vertex, m: int) -> "MGraph":
        if m == 0:
            return self.drop_link(u, v)
        pair = link_key(u, v)
        new = dict(self.links)
        new[pair] = m
        return MGraph(new, vertices=self.vertices)

    def m_subdivide(self, u: Vertex, v: Vertex) -> "MGraph":
        """Subdivide the link *uv*: replace its r parallel edges by a fresh
        vertex joined to *u* and to *v* by r parallel edges each."""
        pair = link_key(u, v)
        if pair not in self.links:
            raise MissingMultiedge(pair)
        m = self.links[pair]
        fresh = f"{pair[0]}~{pair[1]}"
        while fresh in self.vertices:
            fresh += "'"
        new = {p: mm for p, mm in self.links.items() if p != pair}
        new[link_key(pair[0], fresh)] = m
        new[link_key(fresh, pair[1])] = m
        return MGraph(new, vertices=self.vertices | {fresh})

    # -- global structure ---------------------------------------------------

    def components(self) -> list:
        """The connected components, ordered by least vertex (token order);
        each keeps its links in this graph's link order."""
        comp_of: dict = {}
        members: list = []
        for start in sorted(self.vertices, key=token_key):
            if start in comp_of:
                continue
            comp_of[start] = len(members)
            comp = [start]
            queue = [start]
            while queue:
                for w in self.neighbors(queue.pop()):
                    if w not in comp_of:
                        comp_of[w] = len(members)
                        comp.append(w)
                        queue.append(w)
            members.append(comp)
        links: list = [{} for _ in members]
        for p, m in self.links.items():
            links[comp_of[p[0]]][p] = m
        return [MGraph(ls, vertices=vs) for ls, vs in zip(links, members)]

    def is_connected(self) -> bool:
        return len(self.vertices) <= 1 or len(self.components()) == 1

    def canonical_form(self) -> tuple:
        """Isomorphism-invariant canonical encoding (brute force over all
        vertex orderings — intended for graphs with at most ~8 vertices).

        The form is ``(n, triples)``: the least, over all orderings, of the
        sorted ``(min, max, m)`` triples of the links' endpoint positions
        and multiplicities.  Each triple is compared as the one integer
        ``(min * n + max) * radix + m``, with *radix* above every
        multiplicity; that order-preserving mixed radix lets the search
        sort and compare plain integers and decode only the least list."""
        if self.order() > 8:
            raise PatternTooLarge("canonical_form is brute force; at most 8 vertices")
        verts = sorted(self.vertices, key=token_key)
        n = len(verts)
        if not self.links:
            return (n, ())
        at = {v: i for i, v in enumerate(verts)}
        links = [(at[u], at[v], m) for (u, v), m in self.links.items()]
        radix = max(m for _, _, m in links) + 1
        # pair[i][j]: the code of a link between positions i and j, less m
        pair = [[(min(i, j) * n + max(i, j)) * radix for j in range(n)] for i in range(n)]
        best = min(
            sorted([pair[perm[a]][perm[b]] + m for a, b, m in links])
            for perm in itertools.permutations(range(n))
        )
        triples = []
        for code in best:
            ends, m = divmod(code, radix)
            triples.append((*divmod(ends, n), m))
        return (n, tuple(triples))


# -- topological minors that respect multiplicities --------------------------


@dataclass(frozen=True)
class MinorEmbedding:
    """How a pattern sits inside a host graph.

    ``vertex_map`` sends pattern vertices to host branch vertices;
    ``link_paths`` sends each pattern link (canonical pair) to the host
    vertex sequence realising it.  Paths are internally disjoint from each
    other and from all branch vertices, and every host link along the path
    for a pattern link of multiplicity m has multiplicity at least m.
    """

    vertex_map: dict
    link_paths: dict


def check_embedding(host: MGraph, pattern: MGraph, emb: MinorEmbedding) -> None:
    """Check a minor embedding before it is returned: distinct branch
    images, and for every pattern link of multiplicity m a host path
    between the images of its ends along links of multiplicity at least m,
    whose interior avoids the branch images and every other path.  Raises
    :class:`AssertionError` on a violation, as :func:`check_family` does."""
    images = list(emb.vertex_map.values())
    if len(set(images)) != len(images):
        raise AssertionError("two pattern vertices share a branch image")
    internals_seen: set = set()
    for (pu, pv), mult in pattern.links.items():
        path = emb.link_paths[link_key(pu, pv)]
        if {path[0], path[-1]} != {emb.vertex_map[pu], emb.vertex_map[pv]}:
            raise AssertionError(f"link {pu}-{pv}: its path does not join its ends' images")
        if any(host.multiplicity(a, b) < mult for a, b in zip(path, path[1:])):
            raise AssertionError(f"link {pu}-{pv}: its path has a link below multiplicity {mult}")
        inner = set(path[1:-1])
        if inner & set(images):
            raise AssertionError(f"link {pu}-{pv}: its path runs through a branch image")
        if inner & internals_seen:
            raise AssertionError(f"link {pu}-{pv}: its path meets another path inside")
        internals_seen |= inner


_PATTERN_MAX_VERTICES = 6
_PATTERN_MAX_EDGES = 12


def find_m_topological_minor(host: MGraph, pattern: MGraph) -> Optional[MinorEmbedding]:
    """Search for *pattern* as a multiplicity-respecting topological minor
    of *host*; return an embedding or ``None``.

    Each pattern link of multiplicity m must map to a host path all of
    whose links have multiplicity >= m; distinct pattern links map to
    internally disjoint paths.  The pattern must be small (guard raises
    :class:`PatternTooLarge`): the search is exponential backtracking.
    """
    if pattern.order() > _PATTERN_MAX_VERTICES or pattern.size() > _PATTERN_MAX_EDGES:
        raise PatternTooLarge(
            f"pattern has {pattern.order()} vertices / {pattern.size()} edges; "
            f"the matcher accepts at most {_PATTERN_MAX_VERTICES} / {_PATTERN_MAX_EDGES}"
        )
    if pattern.order() > host.order():
        return None
    p_verts = sorted(
        pattern.vertices, key=lambda v: (-pattern.underlying_degree(v), token_key(v))
    )
    h_verts = sorted(host.vertices, key=token_key)
    # Links in decreasing multiplicity so the hardest constraints fail fast.
    p_links = sorted(
        pattern.links.items(),
        key=lambda kv: (-kv[1], *pair_key(kv[0])),
    )

    def mults(g: MGraph) -> dict:
        """Each vertex's link multiplicities, in decreasing order."""
        out: dict = {v: [] for v in g.vertices}
        for (u, v), m in g.links.items():
            out[u].append(m)
            out[v].append(m)
        for ms in out.values():
            ms.sort(reverse=True)
        return out

    # A pattern vertex with c links of multiplicity >= m needs an image with
    # c distinct neighbours through links of multiplicity >= m, because its
    # links' paths are internally disjoint and so leave the image through
    # distinct neighbours.  For every m at once: the image's multiplicities,
    # in decreasing order, dominate the pattern vertex's term by term.
    p_mults = mults(pattern)
    h_mults = mults(host)

    def fits(pv: Vertex, hv: Vertex) -> bool:
        need, have = p_mults[pv], h_mults[hv]
        return len(have) >= len(need) and all(a >= b for a, b in zip(have, need))

    def embed_links(i: int, vmap: dict, internals: frozenset) -> Optional[dict]:
        if i == len(p_links):
            return {}
        (pa, pb), mult = p_links[i]
        a, b = vmap[pa], vmap[pb]
        branch_images = frozenset(vmap.values())
        banned = (branch_images - {a, b}) | internals

        def moves(v: Vertex, _) -> Iterator:
            # Host paths need no steps, only links of multiplicity >= mult
            # that avoid ``banned`` internally.
            for w in host.neighbors(v):
                if w not in banned and host.multiplicity(v, w) >= mult:
                    yield None, w

        for path, _ in _simple_paths(a, b, moves):
            inner = frozenset(path[1:-1])
            rest = embed_links(i + 1, vmap, internals | inner)
            if rest is not None:
                rest[link_key(pa, pb)] = path
                return rest
        return None

    def assign(i: int, vmap: dict, used: set) -> Optional[MinorEmbedding]:
        if i == len(p_verts):
            paths = embed_links(0, vmap, frozenset())
            if paths is None:
                return None
            return MinorEmbedding(dict(vmap), paths)
        pv = p_verts[i]
        for hv in h_verts:
            if hv in used or not fits(pv, hv):
                continue
            vmap[pv] = hv
            used.add(hv)
            found = assign(i + 1, vmap, used)
            if found is not None:
                return found
            used.discard(hv)
            del vmap[pv]
        return None

    return assign(0, {}, set())


def has_m_topological_minor(host: MGraph, pattern: MGraph) -> bool:
    return find_m_topological_minor(host, pattern) is not None
